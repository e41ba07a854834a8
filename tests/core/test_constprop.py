"""Interprocedural constant propagation (the paper's Section 6.1
framework-reuse client), including a differential check against the
concrete interpreter."""

from hypothesis import given, settings, strategies as st

from repro.benchsuite import BENCHMARKS, generate_program
from repro.core.analysis import analyze_source
from repro.core.constprop import propagate_constants
from repro.core.locations import LocKind
from repro.interp.machine import Interpreter, Pointer
from repro.simple.simplify import simplify_source


def run(source):
    analysis = analyze_source(source)
    return propagate_constants(analysis)


class TestIntraprocedural:
    def test_simple_constant(self):
        cp = run("int main() { int a; a = 5; HERE: return a; }")
        assert cp.constant_at("HERE", "a") == 5

    def test_folding(self):
        cp = run("int main() { int a, b; a = 5; b = a * 3 + 1; HERE: return b; }")
        assert cp.constant_at("HERE", "b") == 16

    def test_branch_agreement(self):
        cp = run("""
        int c;
        int main() { int a; if (c) a = 5; else a = 5; HERE: return a; }
        """)
        assert cp.constant_at("HERE", "a") == 5

    def test_branch_disagreement(self):
        cp = run("""
        int c;
        int main() { int a; if (c) a = 5; else a = 6; HERE: return a; }
        """)
        assert cp.constant_at("HERE", "a") is None

    def test_loop_invalidates_changing_variable(self):
        cp = run("""
        int main() {
            int i, a;
            a = 7;
            for (i = 0; i < 3; i++) a = a + 1;
            HERE: return a;
        }
        """)
        assert cp.constant_at("HERE", "a") is None
        assert cp.constant_at("HERE", "i") is None

    def test_loop_invariant_survives(self):
        cp = run("""
        int main() {
            int i, k;
            k = 9;
            for (i = 0; i < 3; i++) ;
            HERE: return k;
        }
        """)
        assert cp.constant_at("HERE", "k") == 9


class TestThroughPointers:
    def test_store_through_definite_pointer(self):
        cp = run("""
        int main() {
            int a; int *p;
            p = &a;
            *p = 10;
            HERE: return a;
        }
        """)
        assert cp.constant_at("HERE", "a") == 10

    def test_store_through_possible_pointer_invalidates(self):
        cp = run("""
        int c;
        int main() {
            int a, b; int *p;
            a = 1; b = 2;
            if (c) p = &a; else p = &b;
            *p = 10;
            HERE: return a + b;
        }
        """)
        assert cp.constant_at("HERE", "a") is None
        assert cp.constant_at("HERE", "b") is None

    def test_load_through_definite_pointer(self):
        cp = run("""
        int main() {
            int a, b; int *p;
            a = 33;
            p = &a;
            b = *p;
            HERE: return b;
        }
        """)
        assert cp.constant_at("HERE", "b") == 33


class TestInterprocedural:
    def test_constant_argument(self):
        cp = run("""
        int twice(int x) { K: return x * 2; }
        int main() { int r; r = twice(4); HERE: return r; }
        """)
        assert cp.constant_at("K", "x") == 4
        assert cp.constant_at("HERE", "r") == 8

    def test_global_set_in_callee(self):
        cp = run("""
        int g;
        void set(void) { g = 12; }
        int main() { set(); HERE: return g; }
        """)
        assert cp.constant_at("HERE", "g") == 12

    def test_address_exposed_local_invalidated_by_call(self):
        cp = run("""
        void mutate(int *p) { *p = 99; }
        int main() {
            int a;
            a = 1;
            mutate(&a);
            HERE: return a;
        }
        """)
        # conservatively unknown (the callee wrote it)
        assert cp.constant_at("HERE", "a") is None

    def test_unexposed_local_survives_call(self):
        cp = run("""
        void noop(int x) { }
        int main() {
            int keep;
            keep = 5;
            noop(1);
            HERE: return keep;
        }
        """)
        assert cp.constant_at("HERE", "keep") == 5

    def test_divergent_returns_unknown(self):
        cp = run("""
        int pick(int c) { if (c) return 1; return 2; }
        int main() { int r; r = pick(0); HERE: return r; }
        """)
        assert cp.constant_at("HERE", "r") is None

    def test_recursion_is_conservative_but_terminates(self):
        cp = run("""
        int fact(int n) { if (n <= 1) return 1; return n * fact(n - 1); }
        int main() { int r; r = fact(5); HERE: return r; }
        """)
        assert cp.point_info  # terminated with results

    def test_function_pointer_callees_merged(self):
        cp = run("""
        int one(void) { return 1; }
        int also_one(void) { return 1; }
        int sel;
        int main() {
            int (*f)(void);
            int r;
            if (sel) f = one; else f = also_one;
            r = f();
            HERE: return r;
        }
        """)
        assert cp.constant_at("HERE", "r") == 1


class TestDifferentialAgainstInterpreter:
    """Every constant fact must match the concrete machine."""

    def check(self, source, max_steps=200_000) -> int:
        """Run the machine against the facts; the number compared."""
        program = simplify_source(source)
        analysis_result = analyze_source(source)
        cp = propagate_constants(analysis_result)
        mismatches = []
        compared = 0

        def observer(stmt, interp):
            nonlocal compared
            env = cp.point_info.get(stmt.stmt_id)
            if env is None:
                return
            frame = interp.current_frame
            if frame is None:
                return
            for loc, expected in env.items():
                if loc.kind is LocKind.GLOBAL:
                    obj = interp.globals.get(loc.base)
                elif (
                    loc.kind in (LocKind.LOCAL, LocKind.PARAM)
                    and loc.func == frame.fn.name
                ):
                    obj = frame.objects.get(loc.base)
                else:
                    continue
                if obj is None or loc.path:
                    continue
                actual = obj.cells.get(())
                if actual is None:
                    continue
                if isinstance(actual, Pointer):
                    continue
                compared += 1
                if actual != expected:
                    mismatches.append((stmt.stmt_id, str(loc), expected, actual))

        interp = Interpreter(program, observer=observer, max_steps=max_steps)
        try:
            interp.run()
        except Exception:
            pass
        assert not mismatches, mismatches[:5]
        return compared

    def test_benchmark_suite_constants_agree(self):
        for name in ("config", "dry", "toplev", "csuite", "compress"):
            compared = self.check(BENCHMARKS[name].source, max_steps=300_000)
            assert compared > 0, f"{name}: no constant fact was compared"

    @given(st.integers(min_value=0, max_value=200))
    @settings(max_examples=20, deadline=None)
    def test_generated_programs_constants_agree(self, seed):
        self.check(generate_program(seed), max_steps=50_000)
