"""The fingerprint-keyed call memo tables and their statistics.

Covers the multi-entry generalization of Figure 4's single stored
(input, output) pair: one invocation-graph node re-entered with
alternating inputs retains an entry per distinct input, the table is
bounded (LRU eviction), and hit/miss/eviction counters surface
through the analysis statistics.
"""

from repro.core import interproc
from repro.core.analysis import analyze_source
from repro.core.statistics import collect_perf

#: The same invocation node sees two different inputs (one per loop
#: fixed-point iteration: first ``p -> a`` definitely, then the merged
#: ``p -> {a, b}``), so the single-pair protocol would have discarded
#: the first entry.
LOOP_SOURCE = """
int a; int b; int *p;
void touch(void) { int *l; l = p; }
int main() {
    int i;
    p = &a;
    for (i = 0; i < 3; i = i + 1) {
        touch();
        p = &b;
    }
    OUT: return 0;
}
"""

#: The recursion fixed point re-analyzes walk's body, so the ordinary
#: ``leaf`` node inside is re-entered with an identical input: a hit.
RECURSIVE_SOURCE = """
int g;
void leaf(int **q) { *q = &g; }
int walk(int n) {
    int *l;
    leaf(&l);
    if (n == 0) return 0;
    return walk(n - 1);
}
int main() { walk(3); OUT: return 0; }
"""


class TestMemoTable:
    def test_node_retains_one_entry_per_distinct_input(self):
        result = analyze_source(LOOP_SOURCE)
        (node,) = [n for n in result.ig.nodes() if n.func == "touch"]
        table = result.slice_capture["touch"]
        assert len(table) == 2
        assert result.stats.misses == 2
        # Entries are keyed on the reachable slice of the input (the
        # callee touches ``p``, so both loop inputs differ inside the
        # slice); the newest entry is the stored pair's output.  The
        # node's own table stays empty: the slice memo serves it.
        assert node.stored_output is not None
        assert not node.memo
        newest = table[next(reversed(table))]
        assert newest.output == node.stored_output

    def test_reentry_with_identical_input_hits(self):
        result = analyze_source(RECURSIVE_SOURCE)
        assert result.stats.hits >= 1
        assert result.stats.lookups == result.stats.hits + result.stats.misses

    def test_capacity_bounds_the_table_with_eviction(self, monkeypatch):
        monkeypatch.setattr(interproc, "MEMO_CAPACITY", 1)
        result = analyze_source(LOOP_SOURCE)
        monkeypatch.undo()
        assert len(result.slice_capture["touch"]) == 1
        assert result.stats.evictions >= 1
        assert result.triples_at("OUT") == analyze_source(LOOP_SOURCE).triples_at("OUT")


class TestRecursionTruncation:
    def test_hitting_the_iteration_cap_warns_and_records(self, monkeypatch):
        monkeypatch.setattr(interproc, "MAX_RECURSION_ITERATIONS", 1)
        result = analyze_source(RECURSIVE_SOURCE)
        assert any("did not converge" in w for w in result.warnings)
        assert result.stats.recursion_truncations >= 1
        assert "walk" in result.stats.truncated_functions

    def test_normal_runs_never_truncate(self):
        result = analyze_source(RECURSIVE_SOURCE)
        assert result.stats.recursion_truncations == 0
        assert result.stats.truncated_functions == []
        assert not any("did not converge" in w for w in result.warnings)


class TestPerfStatistics:
    def test_collect_perf_reports_counters(self):
        result = analyze_source(RECURSIVE_SOURCE)
        row = collect_perf(result, "rec")
        assert row.benchmark == "rec"
        assert row.statements == result.program.count_basic_stmts() > 0
        assert row.memo_lookups == row.memo_hits + row.memo_misses > 0
        assert 0.0 <= row.memo_hit_rate <= 1.0
        assert row.peak_triples >= 1
        data = row.as_dict()
        assert data["memo_hits"] == row.memo_hits
        assert data["peak_triples"] == row.peak_triples
