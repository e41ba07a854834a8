"""Sub-tree sharing (Section 6's planned optimization) and the
shared-node re-entry protocol.

The sharing needs no option: the slice-keyed call memo keeps one table
per function, so identical contexts in different invocation-graph
sub-trees share one analysis."""

import pytest

from repro import obs
from repro.benchsuite import BENCHMARKS, PERF_BENCHMARKS
from repro.benchsuite.generator import GeneratorConfig, generate_program
from repro.core import interproc
from repro.core.analysis import AnalysisOptions, analyze_source
from repro.core.pointsto import PointsToSet

#: A wide generated program whose slice-memo hits sit inside nested
#: misses (175 of its 596 slice lookups hit).
WIDE_SEED5 = generate_program(
    5, GeneratorConfig(n_functions=32, n_stmts=12, n_globals=6)
)

#: The programs the slice memo is compared against unshared runs on:
#: the suite, the perfsuite pair (most of their calls hit) and the
#: wide seed.
ORACLE_PROGRAMS = {
    **{name: bench.source for name, bench in BENCHMARKS.items()},
    **{name: bench.source for name, bench in PERF_BENCHMARKS.items()},
    "wide-s5": WIDE_SEED5,
}


def statement_triples(result) -> dict:
    """Every statement's triples, as sorted strings."""
    return {
        stmt_id: sorted(
            (str(src), str(tgt), str(definiteness))
            for src, tgt, definiteness in pts.triples()
        )
        for stmt_id, pts in result.point_info.items()
    }


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

    @pytest.mark.parametrize("name", sorted(ORACLE_PROGRAMS))
    def test_results_identical_with_and_without_sharing(
        self, name, monkeypatch
    ):
        # Without the slice memo every call falls back to its own
        # node's whole-input table: nothing is shared across sub-trees,
        # and no hit's records are folded into a later replay.
        source = ORACLE_PROGRAMS[name]
        shared = analyze_source(source)
        monkeypatch.setattr(interproc, "_slice_context", lambda *args: None)
        unshared = analyze_source(source)
        assert unshared.stats.slice_lookups == 0
        assert shared.warnings == unshared.warnings
        assert statement_triples(shared) == statement_triples(unshared)


class TestReplayWork:
    """A slice-memo entry replays into the run's point sets once, and a
    record goes to one capture frame.  Merging each hit's records on
    the spot and copying each record into every open frame makes 2,714
    merges on fanout, 1,897 on relay and 68,165 on the wide seed."""

    #: program -> (most ``PointsToSet.merge`` calls, most capture-frame
    #: appends).  The runs make 426/319, 148/81 and 14,493/8,512.
    BOUNDS = {
        "fanout": (1_000, 1_200),
        "relay": (400, 500),
        "wide-s5": (40_000, 36_000),
    }

    @pytest.mark.parametrize("name", sorted(BOUNDS))
    def test_merges_and_frame_appends_are_bounded(self, name, monkeypatch):
        merges = [0]
        merge = PointsToSet.merge

        def counted(self, other):
            merges[0] += 1
            return merge(self, other)

        monkeypatch.setattr(PointsToSet, "merge", counted)
        tracer = obs.Tracer()
        with obs.tracing(tracer):
            result = analyze_source(ORACLE_PROGRAMS[name])
        counters = tracer.snapshot()["counters"]
        max_merges, max_appends = self.BOUNDS[name]
        assert merges[0] <= max_merges
        assert counters["analysis.record_frame_appends"] <= max_appends
        replayed = counters["analysis.replayed_entries"]
        assert 0 < replayed <= result.stats.slice_hits


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
