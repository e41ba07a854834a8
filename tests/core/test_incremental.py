"""Unit tests for function-granularity incremental re-analysis.

Covers the building blocks bottom-up — the top-level chunker, content
fingerprints, the dirty-set planner with kill propagation — and then
the update ladder itself: splice applicability on the perfsuite
programs, the untouched-subtree guarantee (editing one fanout worker
must not re-analyze the other eleven), counter emission, and the
removed/added/fallback paths.  Byte-level equivalence against a cold
run over the whole corpus lives in
``tests/interp/test_incremental_equivalence.py``.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.benchsuite.perfsuite import PERF_BENCHMARKS
from repro.core.analysis import AnalysisOptions, analyze_source
from repro.core.incremental import (
    closure_members,
    function_fingerprints,
    globals_fingerprint,
    plan_update,
    skeleton,
    static_deps,
    update_analysis,
)
from repro.simple.patching import ChunkError, split_chunks
from repro.simple.simplify import simplify_source
from repro.service.serialize import semantic_payload_bytes

SMALL = """
int g; int h;
int *p;
void set(void) { p = &g; }
void flip(void) { p = &h; }
int main(void) { set(); flip(); return 0; }
"""

#: A summary-preserving edit of ``set`` (same points-to effect, new
#: body text), the shape the splice tier is built for.
SMALL_EDIT = SMALL.replace(
    "void set(void) { p = &g; }",
    "void set(void) { int t; t = 0; p = &g; t = t + 1; }",
)


# --------------------------------------------------------------------------
# Chunker
# --------------------------------------------------------------------------


class TestSplitChunks:
    def test_functions_and_globals_split(self):
        chunks = split_chunks(SMALL)
        functions = [c for c in chunks if c.kind == "function"]
        assert [c.name for c in functions] == ["set", "flip", "main"]
        # Spans tile the source: reassembling them is the identity.
        assert "".join(c.text for c in chunks) == SMALL.strip("\n") or (
            "".join(c.text for c in chunks) in SMALL
        )

    def test_spans_are_exact(self):
        for chunk in split_chunks(SMALL):
            assert SMALL[chunk.start : chunk.end] == chunk.text

    def test_prototypes_are_not_functions(self):
        chunks = split_chunks("void f(void);\nvoid f(void) { }\n")
        kinds = [(c.kind, c.name) for c in chunks]
        assert ("function", "f") in kinds
        assert sum(1 for k, _ in kinds if k == "function") == 1

    def test_braces_in_strings_and_comments(self):
        source = (
            "/* a { stray */\n"
            "int main(void) { /* } */ return 0; }\n"
        )
        functions = [
            c for c in split_chunks(source) if c.kind == "function"
        ]
        assert [c.name for c in functions] == ["main"]

    def test_unbalanced_raises(self):
        with pytest.raises(ChunkError):
            split_chunks("int main(void) { return 0;\n")


# --------------------------------------------------------------------------
# Fingerprints and the skeleton
# --------------------------------------------------------------------------


class TestFingerprints:
    def test_stable_across_parses(self):
        a = function_fingerprints(simplify_source(SMALL))
        b = function_fingerprints(simplify_source(SMALL))
        assert a == b
        assert set(a) == {"set", "flip", "main"}

    def test_edit_changes_only_the_edited_function(self):
        old = function_fingerprints(simplify_source(SMALL))
        new = function_fingerprints(simplify_source(SMALL_EDIT))
        assert old["flip"] == new["flip"]
        assert old["main"] == new["main"]
        assert old["set"] != new["set"]

    def test_globals_fingerprint_tracks_globals_only(self):
        base = globals_fingerprint(simplify_source(SMALL))
        assert base == globals_fingerprint(simplify_source(SMALL_EDIT))
        grown = SMALL.replace("int g;", "int g; int extra_global;")
        assert base != globals_fingerprint(simplify_source(grown))

    def test_skeleton_shape(self):
        sk = skeleton(simplify_source(SMALL))
        assert set(sk) == {"fingerprints", "deps", "globals"}
        assert sk["deps"]["main"] == ["flip", "set"]

    def test_closure_members(self):
        deps = static_deps(simplify_source(SMALL))
        assert closure_members(deps, "main") == {"main", "set", "flip"}
        assert closure_members(deps, "set") == {"set"}

    def test_encoding_reuses_the_analysis_scans(self, tmp_path, monkeypatch):
        # A cold store request scans each function once: the encoder's
        # skeleton reads the scans the analysis made for its slice
        # summaries (kept on the program), and equals a skeleton built
        # from a fresh parse.
        from repro.core import slices
        from repro.service.store import ResultStore

        program = PERF_BENCHMARKS["fanout"].source
        calls = []
        real_scan = slices._scan_function

        def counting_scan(fn, prog):
            calls.append(fn.name)
            return real_scan(fn, prog)

        monkeypatch.setattr(slices, "_scan_function", counting_scan)
        analysis, hit = ResultStore(tmp_path / "store").load_or_analyze(
            program
        )
        assert not hit and analysis.program.scans is not None
        assert sorted(calls) == sorted(analysis.program.functions)
        assert skeleton(analysis.program) == skeleton(simplify_source(program))


# --------------------------------------------------------------------------
# The planner: dirty sets and kill propagation
# --------------------------------------------------------------------------


class TestPlanUpdate:
    def _plans(self, old_src, new_src, edges=None):
        old = simplify_source(old_src)
        new = simplify_source(new_src)
        return plan_update(
            function_fingerprints(old),
            static_deps(old),
            function_fingerprints(new),
            static_deps(new),
            dependency_edges=edges,
        )

    def test_single_edit_dirties_callers(self):
        plan = self._plans(SMALL, SMALL_EDIT)
        assert plan.changed == ["set"]
        assert plan.dirty == ["main", "set"]
        # main was killed transitively, not edited.
        assert plan.kill_propagations == 1

    def test_no_edit_no_dirt(self):
        plan = self._plans(SMALL, SMALL)
        assert plan.changed == [] and plan.dirty == []
        assert plan.kill_propagations == 0

    def test_removed_function_propagates(self):
        without_flip = SMALL.replace(
            "void flip(void) { p = &h; }", ""
        ).replace("set(); flip();", "set();")
        plan = self._plans(SMALL, without_flip)
        assert plan.removed == ["flip"]
        assert "main" in plan.dirty

    def test_added_function_reported(self):
        grown = SMALL.replace(
            "int main", "void fresh(void) { p = 0; }\nint main"
        )
        plan = self._plans(SMALL, grown)
        assert plan.added == ["fresh"]

    def test_provenance_edges_override_static_reverse(self):
        # With explicit dependency edges, only the listed dependents
        # are killed — a caller with no recorded derivation edge from
        # the edited callee stays clean.
        plan = self._plans(SMALL, SMALL_EDIT, edges={"set": set()})
        assert plan.dirty == ["set"]
        assert plan.kill_propagations == 0

    def test_kill_propagation_is_transitive(self):
        chain = """
int *p; int g;
void leaf(void) { p = &g; }
void mid(void) { leaf(); }
int main(void) { mid(); return 0; }
"""
        edited = chain.replace(
            "void leaf(void) { p = &g; }",
            "void leaf(void) { int t; t = 1; p = &g; }",
        )
        plan = self._plans(chain, edited)
        assert plan.dirty == ["leaf", "main", "mid"]
        assert plan.kill_propagations == 2


# --------------------------------------------------------------------------
# update_analysis: the ladder end to end
# --------------------------------------------------------------------------


def _update(old_src, new_src, options=None):
    old = analyze_source(old_src, options)
    return update_analysis(old, old_src, new_src, options)


class TestUpdateAnalysis:
    def test_unchanged_short_circuits(self):
        old = analyze_source(SMALL)
        result, report = update_analysis(old, SMALL, SMALL)
        assert report.mode == "unchanged"
        assert result is old

    def test_summary_preserving_edit_splices(self):
        result, report = _update(SMALL, SMALL_EDIT)
        assert report.mode == "splice"
        assert report.changed == ["set"]
        assert report.reanalyzed == ["set"]
        assert report.reused_summaries >= 1
        cold = analyze_source(SMALL_EDIT)
        assert semantic_payload_bytes(result, "t") == (
            semantic_payload_bytes(cold, "t")
        )

    def test_structural_edit_falls_back_but_matches_cold(self):
        removed = SMALL.replace(
            "void flip(void) { p = &h; }", ""
        ).replace("set(); flip();", "set();")
        result, report = _update(SMALL, removed)
        assert report.mode in ("seeded", "cold")
        cold = analyze_source(removed)
        assert semantic_payload_bytes(result, "t") == (
            semantic_payload_bytes(cold, "t")
        )

    def test_counters_emitted(self):
        tracer = obs.Tracer()
        with obs.tracing(tracer):
            _, report = _update(SMALL, SMALL_EDIT)
        counters = tracer.snapshot()["counters"]
        assert counters["incremental.updates"] == 1
        assert counters["incremental.dirty_functions"] == len(
            report.dirty_functions
        )
        assert counters["incremental.reused_summaries"] == (
            report.reused_summaries
        )
        assert counters["incremental.kill_propagations"] == (
            report.kill_propagations
        )

    def test_report_as_dict_round_trips(self):
        _, report = _update(SMALL, SMALL_EDIT)
        data = report.as_dict()
        assert data["mode"] == "splice"
        assert set(data) == {
            "mode", "changed", "removed", "dirty_functions",
            "kill_propagations", "reused_summaries", "reanalyzed",
            "fallback",
        }


class TestUntouchedSubtrees:
    """Editing one function must not re-analyze independent subtrees."""

    def test_fanout_workers_stay_memoized(self):
        source = PERF_BENCHMARKS["fanout"].source
        target = (
            "void work0(int n) { int i; int *p; p = &d0; "
            "for (i = 0; i < n; i = i + 1) { w0 = p; *p = i; } }\n"
        )
        assert target in source
        edited = source.replace(
            target,
            "void work0(int n) { int i; int j; int *p; p = &d0; "
            "for (i = 0; i < n; i = i + 1) "
            "{ j = i; w0 = p; *p = j; } }\n",
        )
        result, report = _update(source, edited)
        assert report.mode == "splice"
        assert report.changed == ["work0"]
        untouched = {f"work{i}" for i in range(1, 12)}
        assert untouched.isdisjoint(report.reanalyzed), (
            f"independent workers re-analyzed: "
            f"{untouched & set(report.reanalyzed)}"
        )
        cold = analyze_source(edited)
        assert semantic_payload_bytes(result, "t") == (
            semantic_payload_bytes(cold, "t")
        )

    def test_relay_chain_edit_splices(self):
        source = PERF_BENCHMARKS["relay"].source
        edited = source.replace(
            "void ping(void) {\n    int v;\n    v = *cursor;",
            "void ping(void) {\n    int v;\n    int extra;\n"
            "    extra = 0;\n    v = *cursor;\n    v = v + extra;\n"
            "    extra = v;",
        )
        assert edited != source
        result, report = _update(source, edited)
        assert report.mode == "splice"
        assert report.changed == ["ping"]
        cold = analyze_source(edited)
        assert semantic_payload_bytes(result, "t") == (
            semantic_payload_bytes(cold, "t")
        )

    def test_options_respected(self):
        options = AnalysisOptions(
            function_pointer_strategy="address_taken"
        )
        result, report = _update(SMALL, SMALL_EDIT, options)
        cold = analyze_source(SMALL_EDIT, options)
        assert semantic_payload_bytes(result, "t") == (
            semantic_payload_bytes(cold, "t")
        )
