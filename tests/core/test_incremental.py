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

import gc

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
from repro.core.invocation_graph import IGNode
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

    @staticmethod
    def _count_site_callee_builds(monkeypatch) -> list:
        """Patch the read/write memo so each build of its call-site
        callee map (one walk of the invocation graph) is recorded."""
        from repro.core import readwrite

        builds = []
        real = readwrite._Effects.site_callees

        def counting(effects, analysis):
            if effects._site_callees is None:
                builds.append(analysis.program)
            return real(effects, analysis)

        monkeypatch.setattr(readwrite._Effects, "site_callees", counting)
        return builds

    @pytest.mark.parametrize("name", ["relay", "fanout"])
    def test_encoding_never_walks_the_ig_for_read_write(
        self, name, monkeypatch
    ):
        # Only indirect calls read the call sites' bound callees, and
        # these programs make none.
        from repro.core import readwrite
        from repro.service.serialize import encode_analysis
        from repro.simple.ir import CALL_KIND, BasicStmt

        analysis = analyze_source(PERF_BENCHMARKS[name].source)
        assert not any(
            isinstance(stmt, BasicStmt) and stmt.kind is CALL_KIND
            and stmt.callee is None
            for fn in analysis.program.functions.values()
            for stmt in fn.iter_stmts()
        )
        builds = self._count_site_callee_builds(monkeypatch)
        for func in analysis.program.functions:
            readwrite.function_read_write(analysis, func)
        encode_analysis(analysis, name)
        assert builds == []

    def test_indirect_calls_walk_the_ig_once(self, monkeypatch):
        from repro.core import readwrite

        source = """
        int g;
        void f(void) { g = 1; }
        void h(void) { g = 2; }
        int main(int k) {
            void (*fp)(void);
            fp = f;
            if (k) { fp = h; }
            fp();
            fp();
            return 0;
        }
        """
        analysis = analyze_source(source)
        builds = self._count_site_callee_builds(monkeypatch)
        main_sets = readwrite.function_read_write(analysis, "main")
        for func in analysis.program.functions:
            readwrite.function_read_write(analysis, func)
        assert builds == [analysis.program]
        assert {"g"} <= {
            str(loc) for sets in main_sets for loc in sets.may_write
        }

    @pytest.mark.parametrize("depth", [1, 4, 12])
    def test_fact_extraction_walks_each_statement_a_bounded_number_of_times(
        self, depth, monkeypatch
    ):
        # ``depth`` nested loops, each allocating through a cast temp:
        # the extraction expands each compound statement at most twice
        # (its own walk, plus the heap-connection sweep's search for
        # the entry statement), however many loops and allocations
        # the function holds.
        from repro.checkers import facts as facts_module
        from repro.simple import ir

        body = "keep = h0;"
        for level in reversed(range(depth)):
            body = (
                f"while (n) {{ h{level} = (int *) malloc(4); {body} }}"
            )
        decls = " ".join(f"int *h{level};" for level in range(depth))
        source = (
            "int *keep;\n"
            f"void f(int n) {{ {decls} {body} }}\n"
            "int main() { f(3); return 0; }\n"
        )
        analysis = analyze_source(source)
        expansions: dict[int, int] = {}
        real_children = ir.child_stmts

        def counting_children(stmt):
            expansions[id(stmt)] = expansions.get(id(stmt), 0) + 1
            return real_children(stmt)

        monkeypatch.setattr(ir, "child_stmts", counting_children)
        monkeypatch.setattr(facts_module, "child_stmts", counting_children)
        facts = facts_module.collect_facts(analysis)
        assert [site.name for site in facts.allocs] == [
            f"h{level}" for level in range(depth)
        ]
        assert len(facts.loops) == depth
        assert max(expansions.values()) <= 2


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
        assert report.mode == "cold"
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

    def test_relay_splice_keeps_the_graph_lazy(self):
        """Renumbering call sites remaps each distinct subtree shape
        once: the splice creates no calling context."""
        source = PERF_BENCHMARKS["relay"].source
        edited = source.replace(
            "void ping(void) {\n    int v;\n    v = *cursor;",
            "void ping(void) {\n    int v;\n    int extra;\n"
            "    extra = 0;\n    v = *cursor;\n    v = v + extra;\n"
            "    extra = v;",
        )

        def live_nodes() -> int:
            gc.collect()
            return sum(
                1 for obj in gc.get_objects() if type(obj) is IGNode
            )

        old = analyze_source(source)
        nodes_before = live_nodes()
        subtrees_before = len(list(old.ig.distinct_subtrees()))
        assert nodes_before < old.ig.node_count()
        result, report = update_analysis(old, source, edited)
        assert report.mode == "splice"
        assert live_nodes() == nodes_before
        assert len(list(result.ig.distinct_subtrees())) == subtrees_before
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
