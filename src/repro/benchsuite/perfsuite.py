"""Call-memo stress programs (not part of the paper's 17).

Two programs whose call structure defeats whole-input call
memoization but collapses under reachable-slice keying (DESIGN.md,
"Performance architecture").  Both drive their callees from
*straight-line rounds* rather than a loop: an abstract loop fixed
point converges in two or three iterations, but ten unrolled call
sites with ten distinct router states force a whole-input memo miss
at every site — and, because the routers are globals, ``map_call``
carries them into every callee at every depth, so the miss cascades
down the entire call tree.

* ``relay`` — a binary call tree eight functions deep (128 ``bump``
  invocations per round) whose stages share one global cursor; each
  round re-points four router globals (plus four aliases) the chain
  never touches.  The chain's reachable slice (cursor and its
  targets) stabilizes after round one, so slice-keyed memoization
  answers rounds two through ten with a single ``stage7`` lookup
  each, while whole-input keying re-analyzes the tree every round.

* ``fanout`` — twelve workers with pairwise-disjoint global
  footprints, fanned out four times per round through a two-level
  sweep tree, while four shared *mix* globals churn.  Each worker's
  slice is its own two globals; the mix churn is passthrough for all
  of them.

Both execute on the concrete SIMPLE machine (terminating, no unknown
externals), so the differential soundness harness covers them too.
"""

from __future__ import annotations

from repro.benchsuite.programs import Benchmark

RELAY = r"""
/* Deep call chain over one shared cursor; routers churn around it. */
int a; int b; int c;
int *cursor;
int *r0; int *r1; int *r2; int *r3;
int *r4; int *r5; int *r6; int *r7;
int hops;

void bump(void) {
    int v;
    v = *cursor;
    if (v > 100) cursor = &a;
    else if (hops % 2 == 1) cursor = &b;
    else cursor = &c;
    hops = hops + 1;
}

/* Reads the cursor without moving it: its slice (cursor and the
 * three cells) is stable from the first stage7 round on, so every
 * later call is a slice-memo hit no matter how the routers churn. */
void ping(void) {
    int v;
    v = *cursor;
    hops = hops + 1;
}

void stage1(void) { bump(); bump(); }
void stage2(void) { stage1(); stage1(); }
void stage3(void) { stage2(); stage2(); }
void stage4(void) { stage3(); stage3(); }
void stage5(void) { stage4(); stage4(); }
void stage6(void) { stage5(); stage5(); }
void stage7(void) { stage6(); stage6(); }

int main() {
    a = 1; b = 2; c = 3;
    cursor = &a;
    hops = 0;
    r0 = &a; r1 = &b; r2 = &c; r3 = &a;
    r4 = r0; r5 = r1; r6 = r2; r7 = r3;
    stage7();
    ping(); ping(); ping(); ping(); ping(); ping(); ping(); ping(); ping(); ping();
    ping(); ping(); ping(); ping(); ping(); ping(); ping(); ping(); ping(); ping();
    r0 = &b; r1 = &c; r2 = &a; r3 = &c;
    r4 = r1; r5 = r2; r6 = r3; r7 = r0;
    stage7();
    ping(); ping(); ping(); ping(); ping(); ping(); ping(); ping(); ping(); ping();
    ping(); ping(); ping(); ping(); ping(); ping(); ping(); ping(); ping(); ping();
    r0 = &c; r1 = &a; r2 = &b; r3 = &b;
    r4 = r2; r5 = r3; r6 = r0; r7 = r1;
    stage7();
    ping(); ping(); ping(); ping(); ping(); ping(); ping(); ping(); ping(); ping();
    ping(); ping(); ping(); ping(); ping(); ping(); ping(); ping(); ping(); ping();
    r0 = &a; r1 = &c; r2 = &c; r3 = &b;
    r4 = r3; r5 = r0; r6 = r1; r7 = r2;
    stage7();
    ping(); ping(); ping(); ping(); ping(); ping(); ping(); ping(); ping(); ping();
    ping(); ping(); ping(); ping(); ping(); ping(); ping(); ping(); ping(); ping();
    r0 = &b; r1 = &a; r2 = &a; r3 = &c;
    r4 = r0; r5 = r2; r6 = r3; r7 = r1;
    stage7();
    ping(); ping(); ping(); ping(); ping(); ping(); ping(); ping(); ping(); ping();
    ping(); ping(); ping(); ping(); ping(); ping(); ping(); ping(); ping(); ping();
    r0 = &c; r1 = &b; r2 = &b; r3 = &a;
    r4 = r1; r5 = r3; r6 = r0; r7 = r2;
    stage7();
    ping(); ping(); ping(); ping(); ping(); ping(); ping(); ping(); ping(); ping();
    ping(); ping(); ping(); ping(); ping(); ping(); ping(); ping(); ping(); ping();
    r0 = &a; r1 = &a; r2 = &b; r3 = &c;
    r4 = r2; r5 = r0; r6 = r3; r7 = r1;
    stage7();
    ping(); ping(); ping(); ping(); ping(); ping(); ping(); ping(); ping(); ping();
    ping(); ping(); ping(); ping(); ping(); ping(); ping(); ping(); ping(); ping();
    r0 = &b; r1 = &b; r2 = &c; r3 = &a;
    r4 = r3; r5 = r1; r6 = r2; r7 = r0;
    stage7();
    ping(); ping(); ping(); ping(); ping(); ping(); ping(); ping(); ping(); ping();
    ping(); ping(); ping(); ping(); ping(); ping(); ping(); ping(); ping(); ping();
    r0 = &c; r1 = &c; r2 = &a; r3 = &b;
    r4 = r0; r5 = r3; r6 = r1; r7 = r2;
    stage7();
    ping(); ping(); ping(); ping(); ping(); ping(); ping(); ping(); ping(); ping();
    ping(); ping(); ping(); ping(); ping(); ping(); ping(); ping(); ping(); ping();
    r0 = &a; r1 = &b; r2 = &a; r3 = &b;
    r4 = r1; r5 = r0; r6 = r2; r7 = r3;
    stage7();
    ping(); ping(); ping(); ping(); ping(); ping(); ping(); ping(); ping(); ping();
    ping(); ping(); ping(); ping(); ping(); ping(); ping(); ping(); ping(); ping();
    /* Rounds 11-20: churn and re-dispatch without pings -- each
     * is one full-tree re-analysis for whole-input keying and a
     * single stage7 lookup for slice keying. */
    r0 = &a; r1 = &a; r2 = &a; r3 = &c;
    r4 = r0; r5 = r1; r6 = r2; r7 = r3;
    stage7();
    r0 = &a; r1 = &b; r2 = &b; r3 = &c;
    r4 = r1; r5 = r2; r6 = r3; r7 = r0;
    stage7();
    r0 = &a; r1 = &c; r2 = &c; r3 = &c;
    r4 = r2; r5 = r3; r6 = r0; r7 = r1;
    stage7();
    r0 = &b; r1 = &a; r2 = &a; r3 = &c;
    r4 = r3; r5 = r0; r6 = r1; r7 = r2;
    stage7();
    r0 = &b; r1 = &b; r2 = &b; r3 = &c;
    r4 = r0; r5 = r1; r6 = r2; r7 = r3;
    stage7();
    r0 = &b; r1 = &c; r2 = &c; r3 = &c;
    r4 = r1; r5 = r2; r6 = r3; r7 = r0;
    stage7();
    r0 = &c; r1 = &a; r2 = &a; r3 = &c;
    r4 = r2; r5 = r3; r6 = r0; r7 = r1;
    stage7();
    r0 = &c; r1 = &b; r2 = &b; r3 = &c;
    r4 = r3; r5 = r0; r6 = r1; r7 = r2;
    stage7();
    r0 = &c; r1 = &c; r2 = &c; r3 = &c;
    r4 = r0; r5 = r1; r6 = r2; r7 = r3;
    stage7();
    r0 = &a; r1 = &a; r2 = &a; r3 = &c;
    r4 = r1; r5 = r2; r6 = r3; r7 = r0;
    stage7();
    END: return hops;
}
"""

FANOUT = r"""
/* Wide fan-out: disjoint worker footprints under shared mix churn. */
int d0; int d1; int d2; int d3; int d4; int d5;
int d6; int d7; int d8; int d9; int d10; int d11;
int *w0; int *w1; int *w2; int *w3; int *w4; int *w5;
int *w6; int *w7; int *w8; int *w9; int *w10; int *w11;
int *mix0; int *mix1; int *mix2; int *mix3;
int s0; int *sp;

void work0(int n) { int i; int *p; p = &d0; for (i = 0; i < n; i = i + 1) { w0 = p; *p = i; } }
void work1(int n) { int i; int *p; p = &d1; for (i = 0; i < n; i = i + 1) { w1 = p; *p = i; } }
void work2(int n) { int i; int *p; p = &d2; for (i = 0; i < n; i = i + 1) { w2 = p; *p = i; } }
void work3(int n) { int i; int *p; p = &d3; for (i = 0; i < n; i = i + 1) { w3 = p; *p = i; } }
void work4(int n) { int i; int *p; p = &d4; for (i = 0; i < n; i = i + 1) { w4 = p; *p = i; } }
void work5(int n) { int i; int *p; p = &d5; for (i = 0; i < n; i = i + 1) { w5 = p; *p = i; } }
void work6(int n) { int i; int *p; p = &d6; for (i = 0; i < n; i = i + 1) { w6 = p; *p = i; } }
void work7(int n) { int i; int *p; p = &d7; for (i = 0; i < n; i = i + 1) { w7 = p; *p = i; } }
void work8(int n) { int i; int *p; p = &d8; for (i = 0; i < n; i = i + 1) { w8 = p; *p = i; } }
void work9(int n) { int i; int *p; p = &d9; for (i = 0; i < n; i = i + 1) { w9 = p; *p = i; } }
void work10(int n) { int i; int *p; p = &d10; for (i = 0; i < n; i = i + 1) { w10 = p; *p = i; } }
void work11(int n) { int i; int *p; p = &d11; for (i = 0; i < n; i = i + 1) { w11 = p; *p = i; } }

/* Stable two-global slice: every call after main's pre-warm is a
 * slice-memo hit while the mix globals churn around it. */
void probe(void) {
    sp = &s0;
    *sp = *sp + 1;
}

void sweep1(int n) {
    work0(n); work1(n); work2(n); work3(n);
    work4(n); work5(n); work6(n); work7(n);
    work8(n); work9(n); work10(n); work11(n);
}
void sweep2(int n) { sweep1(n); sweep1(n); }
void sweep3(int n) { sweep2(n); sweep2(n); }

int main() {
    sp = &s0;
    mix0 = &d0; mix1 = &d2; mix2 = mix0; mix3 = mix1;
    sweep3(4);
    probe(); probe(); probe(); probe(); probe(); probe(); probe(); probe(); probe(); probe();
    probe(); probe(); probe(); probe(); probe(); probe(); probe(); probe(); probe(); probe();
    mix0 = &d1; mix1 = &d3; mix2 = mix1; mix3 = mix0;
    sweep3(4);
    probe(); probe(); probe(); probe(); probe(); probe(); probe(); probe(); probe(); probe();
    probe(); probe(); probe(); probe(); probe(); probe(); probe(); probe(); probe(); probe();
    mix0 = &d2; mix1 = &d4; mix2 = mix0; mix3 = mix1;
    sweep3(4);
    probe(); probe(); probe(); probe(); probe(); probe(); probe(); probe(); probe(); probe();
    probe(); probe(); probe(); probe(); probe(); probe(); probe(); probe(); probe(); probe();
    mix0 = &d3; mix1 = &d5; mix2 = mix1; mix3 = mix0;
    sweep3(4);
    probe(); probe(); probe(); probe(); probe(); probe(); probe(); probe(); probe(); probe();
    probe(); probe(); probe(); probe(); probe(); probe(); probe(); probe(); probe(); probe();
    mix0 = &d4; mix1 = &d6; mix2 = mix0; mix3 = mix1;
    sweep3(4);
    probe(); probe(); probe(); probe(); probe(); probe(); probe(); probe(); probe(); probe();
    probe(); probe(); probe(); probe(); probe(); probe(); probe(); probe(); probe(); probe();
    mix0 = &d5; mix1 = &d7; mix2 = mix1; mix3 = mix0;
    sweep3(4);
    probe(); probe(); probe(); probe(); probe(); probe(); probe(); probe(); probe(); probe();
    probe(); probe(); probe(); probe(); probe(); probe(); probe(); probe(); probe(); probe();
    mix0 = &d6; mix1 = &d8; mix2 = mix0; mix3 = mix1;
    sweep3(4);
    probe(); probe(); probe(); probe(); probe(); probe(); probe(); probe(); probe(); probe();
    probe(); probe(); probe(); probe(); probe(); probe(); probe(); probe(); probe(); probe();
    mix0 = &d7; mix1 = &d9; mix2 = mix1; mix3 = mix0;
    sweep3(4);
    probe(); probe(); probe(); probe(); probe(); probe(); probe(); probe(); probe(); probe();
    probe(); probe(); probe(); probe(); probe(); probe(); probe(); probe(); probe(); probe();
    mix0 = &d8; mix1 = &d10; mix2 = mix0; mix3 = mix1;
    sweep3(4);
    probe(); probe(); probe(); probe(); probe(); probe(); probe(); probe(); probe(); probe();
    probe(); probe(); probe(); probe(); probe(); probe(); probe(); probe(); probe(); probe();
    mix0 = &d9; mix1 = &d11; mix2 = mix1; mix3 = mix0;
    sweep3(4);
    probe(); probe(); probe(); probe(); probe(); probe(); probe(); probe(); probe(); probe();
    probe(); probe(); probe(); probe(); probe(); probe(); probe(); probe(); probe(); probe();
    END: return 0;
}
"""

PERF_BENCHMARKS: dict[str, Benchmark] = {
    "relay": Benchmark(
        "relay", "Deep call chain under router-global churn.", RELAY
    ),
    "fanout": Benchmark(
        "fanout", "Wide worker fan-out under mix-global churn.", FANOUT
    ),
}
