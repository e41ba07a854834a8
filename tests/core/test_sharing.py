"""Sub-tree sharing (Section 6's planned optimization) and the
shared-node re-entry protocol.

The sharing needs no option: the slice-keyed call memo keeps one table
per function, so identical contexts in different invocation-graph
sub-trees share one analysis."""

import pytest

from repro.benchsuite import BENCHMARKS
from repro.core import interproc
from repro.core.analysis import AnalysisOptions, analyze_source


class TestSubtreeSharing:
    def test_identical_contexts_hit_the_cache(self):
        # probe is reached through two different invocation-graph
        # sub-trees (wrapper_a's and wrapper_b's) with identical mapped
        # inputs: the second call replays the first one's analysis.
        source = """
        int *probe(int *x) { return x; }
        void wrapper_a(int *v) { int *l; l = probe(v); }
        void wrapper_b(int *v) { int *l; l = probe(v); }
        int main() {
            int a;
            wrapper_a(&a);
            wrapper_b(&a);
            OUT: return 0;
        }
        """
        result = analyze_source(source)
        probes = [n for n in result.ig.nodes() if n.func == "probe"]
        assert [n.parent.func for n in probes] == ["wrapper_a", "wrapper_b"]
        assert result.stats.per_function["probe"] == [1, 1]
        assert result.stats.slice_hits >= 1
        assert len(result.slice_capture["probe"]) == 1

    def test_different_contexts_miss(self):
        source = """
        void fill(int **q, int *v) { *q = v; }
        int main() {
            int a, b; int *p, *r;
            fill(&p, &a);
            fill(&r, &b);
            OUT: return 0;
        }
        """
        result = analyze_source(source)
        triples = result.triples_at("OUT")
        assert ("p", "a", "D") in triples
        assert ("r", "b", "D") in triples

    @pytest.mark.parametrize("name", sorted(BENCHMARKS))
    def test_results_identical_with_and_without_sharing(
        self, name, monkeypatch
    ):
        # Without the slice memo every call falls back to its own
        # node's whole-input table: nothing is shared across sub-trees.
        source = BENCHMARKS[name].source
        shared = analyze_source(source)
        monkeypatch.setattr(interproc, "_slice_context", lambda *args: None)
        unshared = analyze_source(source)
        assert unshared.stats.slice_lookups == 0
        assert shared.warnings == unshared.warnings
        for label in shared.program.labels:
            assert shared.triples_at(label) == unshared.triples_at(label), (
                name,
                label,
            )


class TestSharedNodeReentry:
    """Context-insensitive mode funnels recursion through one node;
    re-entry must follow the approximate-node protocol, not blow the
    host stack."""

    def test_direct_recursion_insensitive(self):
        source = """
        int *walk(int *p, int n) {
            if (n == 0) return p;
            return walk(p, n - 1);
        }
        int main() { int a; int *q; q = walk(&a, 5); OUT: return 0; }
        """
        result = analyze_source(source, AnalysisOptions(context_sensitive=False))
        triples = result.triples_at("OUT")
        assert any(s == "q" and t == "1_p" or t == "a" for s, t, _ in triples)

    def test_mutual_recursion_insensitive(self):
        source = """
        int g; int *gp;
        void even(int n);
        void odd(int n) { gp = &g; if (n > 0) even(n - 1); }
        void even(int n) { if (n > 0) odd(n - 1); }
        int main() { even(4); OUT: return 0; }
        """
        result = analyze_source(source, AnalysisOptions(context_sensitive=False))
        assert ("gp", "g", "P") in result.triples_at("OUT")

    @pytest.mark.parametrize("name", sorted(BENCHMARKS))
    def test_insensitive_mode_terminates_on_suite(self, name):
        result = analyze_source(
            BENCHMARKS[name].source,
            AnalysisOptions(context_sensitive=False),
        )
        assert result.point_info
