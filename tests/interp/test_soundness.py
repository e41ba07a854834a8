"""The differential soundness harness: analysis vs concrete execution.

These are the strongest tests in the repository: they check the
paper's Definition 3.3 safety conditions against real executions, over
the benchmark suite and randomly generated pointer programs.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.benchsuite import BENCHMARKS, generate_program
from repro.benchsuite.generator import GeneratorConfig
from repro.interp import check_soundness


def assert_sound(source, **kwargs):
    report = check_soundness(source, **kwargs)
    assert report.ok, "\n".join(str(v) for v in report.violations[:10])
    return report


class TestTargetedPrograms:
    def test_strong_update_through_call(self):
        assert_sound("""
        void set(int **q, int *v) { *q = v; }
        int main() {
            int x, y; int *p;
            p = &x;
            set(&p, &y);
            *p = 1;
            return x + y;
        }
        """)

    def test_branching_and_merging(self):
        assert_sound("""
        int pick;
        int main() {
            int a, b; int *p;
            if (pick) p = &a; else p = &b;
            *p = 5;
            p = &a;
            *p = 6;
            return a;
        }
        """)

    def test_recursive_structure_walk(self):
        report = assert_sound("""
        struct node { int v; struct node *next; };
        int length(struct node *n) {
            if (n == 0) return 0;
            return 1 + length(n->next);
        }
        int main() {
            struct node a, b, c;
            a.next = &b; b.next = &c; c.next = 0;
            return length(&a);
        }
        """)
        assert report.exit_value == 3

    def test_function_pointer_dispatch(self):
        assert_sound("""
        int g; int *gp;
        void set_g(void) { gp = &g; }
        void nul_g(void) { gp = 0; }
        int main() {
            void (*f)(void);
            int i;
            for (i = 0; i < 2; i++) {
                if (i) f = set_g; else f = nul_g;
                f();
            }
            return gp != 0;
        }
        """)

    def test_heap_cycles(self):
        assert_sound("""
        struct ring { struct ring *next; };
        int main() {
            struct ring *a, *b;
            a = (struct ring *) malloc(4);
            b = (struct ring *) malloc(4);
            a->next = b;
            b->next = a;
            return a->next->next == a;
        }
        """)

    def test_pointer_into_array_walk(self):
        assert_sound("""
        int main() {
            int buf[8]; int *p; int s;
            for (p = buf; p < buf + 8; p++) *p = 1;
            s = 0;
            for (p = buf; p < buf + 8; p++) s += *p;
            return s;
        }
        """)

    def test_global_array_of_function_pointers(self):
        assert_sound("""
        int one(void) { return 1; }
        int two(void) { return 2; }
        int (*tab[2])(void) = { one, two };
        int main() {
            int (*f)(void);
            int i, s;
            s = 0;
            for (i = 0; i < 2; i++) { f = tab[i]; s += f(); }
            return s;
        }
        """)


#: One C construct per program that the fuzz generator never writes.
#: The string-literal case fails where its char-array twin passes, so
#: the defect is the literal's lowering, not the arithmetic.
CONSTRUCTS = [
    pytest.param(
        "int main() { char a[4]; char *s; char *t;"
        " s = a; t = s + 1; return 0; }",
        id="char_array_plus_one",
    ),
    pytest.param(
        "int main() { char *s; char *t;"
        " s = \"abc\"; t = s + 1; return 0; }",
        id="string_literal_plus_one",
        marks=pytest.mark.xfail(
            strict=True,
            raises=AssertionError,
            reason="known defect: missing '__t1 -> __strlit[tail]' and a "
            "false definite '__t1 -> __strlit' at 't = __t1'",
        ),
    ),
    pytest.param(
        "int x; int main() { long v; int *p;"
        " v = (long)&x; p = (int*)v; return 0; }",
        id="pointer_through_integer",
        marks=pytest.mark.xfail(
            strict=True,
            raises=AssertionError,
            reason="known defect: missing 'v -> x' at 'p = v'",
        ),
    ),
]


@pytest.mark.parametrize("source", CONSTRUCTS)
def test_construct_is_sound(source):
    report = assert_sound(source)
    assert report.facts_checked > 0


class TestBenchmarkSuiteSoundness:
    def test_every_benchmark_is_sound(self):
        for name, bench in BENCHMARKS.items():
            report = check_soundness(bench.source, max_steps=300_000)
            assert report.ok, (
                name + ": " + "; ".join(str(v) for v in report.violations[:5])
            )

    def test_benchmarks_actually_execute(self):
        # the checks must not be vacuous
        for name, bench in BENCHMARKS.items():
            report = check_soundness(bench.source, max_steps=300_000)
            assert report.statements_checked > 10, name
            assert report.facts_checked > 20, name


@given(st.integers(min_value=0, max_value=1000))
@settings(max_examples=50, deadline=None)
def test_generated_programs_are_sound(seed):
    report = check_soundness(generate_program(seed), max_steps=50_000)
    assert report.ok, "\n".join(str(v) for v in report.violations[:5])


@given(st.integers(min_value=0, max_value=300))
@settings(max_examples=15, deadline=None)
def test_deep_generated_programs_are_sound(seed):
    config = GeneratorConfig(
        n_functions=6, n_stmts=12, max_pointer_level=3, n_locals=5
    )
    report = check_soundness(generate_program(seed, config), max_steps=50_000)
    assert report.ok, "\n".join(str(v) for v in report.violations[:5])
