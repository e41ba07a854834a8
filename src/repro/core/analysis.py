"""Whole-program points-to analysis driver.

``analyze`` (or ``analyze_source``) runs the full pipeline: the
invocation graph is built from ``main`` (left incomplete at indirect
call-sites), the global initializers are executed abstractly, and
``main``'s body is processed with the compositional rules, mapping and
unmapping across every call per Figures 3-5.

The result object carries everything the paper's evaluation needs:
per-program-point points-to sets (merged over calling contexts), the
completed invocation graph with per-node map information, and query
helpers keyed by source labels (a labeled statement is a named program
point, mirroring the paper's "point A/B/C/D" examples).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import obs
from repro.frontend.errors import CFrontendError
from repro.simple.ir import ALLOC_KIND, BasicStmt, SimpleProgram
from repro.frontend.parser import parse
from repro.simple.simplify import HEAP_ALLOCATORS, simplify_program
from repro.core import provenance
from repro.core.env import FuncEnv
from repro.core.externals import model_external
from repro.core.funcptr import address_taken_functions, process_call_indirect
from repro.core.interproc import (
    MemoStats,
    process_call_node,
    replayed_records,
)
from repro.core.intra import IntraAnalyzer, apply_assignment, null_initialized
from repro.core.invocation_graph import IGNode, InvocationGraph
from repro.core.locations import HEAP, NULL, LocTable, install_table
from repro.core.lvalues import l_locations
from repro.core.perf import CONFIG
from repro.core.pointsto import P, PointsToSet, merge_all, merge_rows
from repro.core.slices import ClosureSummaries


@dataclass
class AnalysisOptions:
    """Tunable analysis behaviour.

    * ``function_pointer_strategy``: ``precise`` (the paper's
      algorithm), ``all_functions`` or ``address_taken`` (the naive
      baselines of Section 5).
    * ``unknown_external_policy``: ``ignore`` (warn; the McCAT
      setting) or ``havoc`` (conservative smash).
    * ``context_sensitive``: when False, every call to a function uses
      a single shared invocation-graph node per function (an ablation
      baseline, not part of the paper's algorithm).

    The sharing Section 6 plans for large programs — one analysis for
    identical contexts in different invocation-graph sub-trees — needs
    no option: the slice-keyed call memo is global per function (see
    :mod:`repro.core.slices`).
    """

    function_pointer_strategy: str = "precise"
    unknown_external_policy: str = "ignore"
    context_sensitive: bool = True
    entry_point: str = "main"


def _is_temp_name(name: str) -> bool:
    return name.startswith("__t") and name[3:].isdigit()


class PointsToAnalysis:
    """Result of a whole-program analysis."""

    def __init__(
        self,
        program: SimpleProgram,
        ig: InvocationGraph,
        point_info: dict[int, PointsToSet],
        warnings: list[str],
        options: AnalysisOptions,
        stats: MemoStats | None = None,
    ):
        self.program = program
        self.ig = ig
        self.point_info = point_info
        self.warnings = warnings
        self.options = options
        #: Memoization / fixed-point counters of the producing run.
        self.stats = stats if stats is not None else MemoStats()
        #: Derivation log of the producing run (a
        #: :class:`repro.core.provenance.ProvenanceLog`), or None when
        #: ``perf.CONFIG.track_provenance`` was off.
        self.provenance = None
        #: Slice-keyed memo capture of the producing run (func ->
        #: {key_rows: interproc._SliceEntry}), retained so
        #: incremental updates can reuse per-function summaries; None
        #: on decoded or hand-built results.
        self.slice_capture = None
        #: Functions whose body the producing run analyzed, sorted;
        #: empty on decoded or hand-built results.
        self.flowed: list[str] = []
        self._envs: dict[str | None, FuncEnv] = {}
        self._stmt_func: dict[int, str] = {
            stmt_id: name
            for name, stmt_ids in program.stmt_ids.items()
            for stmt_id in stmt_ids
        }

    # -- queries -----------------------------------------------------------

    def env(self, func: str | None) -> FuncEnv:
        raise NotImplementedError  # replaced by the analyzer on creation

    def at_label(self, label: str) -> PointsToSet:
        """The merged points-to set at a labeled program point."""
        func, stmt_id = self.program.labels[label]
        info = self.point_info.get(stmt_id)
        if info is None:
            return PointsToSet()  # unreachable statement
        return info

    def at_stmt(self, stmt_id: int) -> PointsToSet | None:
        return self.point_info.get(stmt_id)

    def function_of_stmt(self, stmt_id: int) -> str | None:
        return self._stmt_func.get(stmt_id)

    def triples_at(
        self, label: str, skip_null: bool = True, skip_temps: bool = True
    ):
        """Human-readable (src, tgt, D/P) strings at a label.

        By default relationships whose source is a compiler-introduced
        temporary (``__tN``) are omitted — they mirror a named
        variable's relationships and only add noise; pass
        ``skip_temps=False`` (or use :meth:`at_label`) for the raw set.
        """
        result = []
        for src, tgt, definiteness in self.at_label(label).triples():
            if skip_null and tgt.is_null:
                continue
            if skip_temps and _is_temp_name(src.base):
                continue
            result.append((str(src), str(tgt), str(definiteness)))
        return sorted(result)


class Analyzer:
    """Mutable state of one analysis run."""

    def __init__(
        self,
        program: SimpleProgram,
        options: AnalysisOptions,
        ig: InvocationGraph | None = None,
    ):
        self.program = program
        self.options = options
        self.ig = (
            ig
            if ig is not None
            else InvocationGraph(program, options.entry_point)
        )
        self.point_info: dict[int, PointsToSet] = {}
        self.warnings: list[str] = []
        self._envs: dict[str | None, FuncEnv] = {}
        self._address_taken: set[str] | None = None
        self._shared_nodes: dict[str, IGNode] = {}
        #: Per-node memo table counters (see interproc.MemoStats).
        self.memo_stats = MemoStats()
        #: Active capture frames, one per open slice-memo miss: a
        #: ``record`` or a replay goes to the innermost frame only, and
        #: a closing frame becomes an entry that replays into the one
        #: enclosing it (see ``interproc.merge_frame``).  A miss walks
        #: its key rows only, so nothing recorded under an open frame
        #: goes to ``point_info`` directly.  Every ``warn`` goes to all
        #: open warning frames.
        self._record_frames: list[list] = []
        self._warn_frames: list[list] = []
        #: The passthrough pairs of the open misses: a call inside them
        #: counts those too, since a whole-input walk would carry them.
        self.inherited_passthrough_pairs = 0
        #: Slice-memo entries replayed outside every frame: id(entry)
        #: -> (entry, the Merge of the replays' passthrough rows, the
        #: passthrough tuple merged last), merged into ``point_info``
        #: once per entry by :meth:`flush_replays`.
        self._replays: dict[int, tuple] = {}
        #: Work counters, emitted as obs counters by :meth:`run`.
        self.record_frame_appends = 0
        self.replayed_entries = 0
        #: Per-function closure summaries for slice-keyed call
        #: memoization, each made on first use.
        self.summaries = ClosureSummaries(program, options)
        #: Slice-keyed call memo, global per function: func ->
        #: {key_rows: interproc._SliceEntry}, LRU-bounded.
        self._slice_memo: dict[str, dict] = {}
        #: Optional incremental seed bank (repro.core.incremental
        #: .SeedBank): consulted on slice-memo misses so a splice's mini
        #: run can replay summaries captured by the prior run.
        self.seed_bank = None
        #: Functions whose body this run analyzed (a memo hit replays
        #: instead), in first-flow order.
        self.flowed: dict[str, None] = {}

    # -- plumbing ---------------------------------------------------------

    def env(self, func: str | None) -> FuncEnv:
        env = self._envs.get(func)
        if env is None:
            env = self._envs[func] = FuncEnv(self.program, func)
        return env

    def warn(self, message: str) -> None:
        for frame in self._warn_frames:
            frame.append(message)
        if message not in self.warnings:
            self.warnings.append(message)

    def address_taken_functions(self) -> set[str]:
        if self._address_taken is None:
            self._address_taken = address_taken_functions(self.program)
        return self._address_taken

    def record(self, stmt: BasicStmt, input_set: PointsToSet) -> None:
        """A program-point set: into the innermost capture frame while
        a miss is open (its rows lack the open misses' passthrough),
        else into ``point_info``."""
        frames = self._record_frames
        if frames:
            frames[-1].append((stmt.stmt_id, input_set.copy()))
            self.record_frame_appends += 1
        else:
            self.record_by_id(stmt.stmt_id, input_set)

    def replay(self, entry, passthrough: tuple) -> None:
        """Account a slice-memo entry's body run — a hit's, or a miss's
        once its frame closed — under ``passthrough``: in the innermost
        capture frame while a miss is open, else in the entry's
        passthrough Merge that :meth:`flush_replays` replays."""
        frames = self._record_frames
        if frames:
            frames[-1].append((None, (entry, passthrough)))
            self.record_frame_appends += 1
            return
        pending = self._replays.get(id(entry))
        if pending is None:
            self._replays[id(entry)] = (entry, passthrough, passthrough)
        elif pending[2] is not passthrough:
            # Merge is idempotent: the join already holds a tuple it
            # merged last (hits on one census share their split's).
            joined = merge_rows(pending[1], passthrough)
            self._replays[id(entry)] = (entry, joined, passthrough)

    def flush_replays(self) -> None:
        """Merge every entry replayed outside the frames since the last
        flush into ``point_info``, once, under the Merge of its
        replays' passthrough rows.  Exact because nothing reads
        ``point_info`` during a run and the fold into it is
        commutative, associative and idempotent.  Called after
        ``main``'s body, and after each call re-processed with
        provenance recording suppressed."""
        for entry, passthrough, _ in self._replays.values():
            for stmt_id, recorded in replayed_records(entry, passthrough):
                self.record_by_id(stmt_id, recorded)
        self.replayed_entries += len(self._replays)
        self._replays.clear()

    def record_by_id(self, stmt_id: int, input_set: PointsToSet) -> None:
        existing = self.point_info.get(stmt_id)
        if existing is None:
            self.point_info[stmt_id] = input_set.copy()
        elif existing == input_set:
            pass  # merging an equal set is the identity; skip the copy
        else:
            self.point_info[stmt_id] = existing.merge(input_set)

    # -- body analysis -------------------------------------------------------

    def analyze_body(
        self, node: IGNode, func_input: PointsToSet
    ) -> PointsToSet | None:
        self.flowed[node.func] = None
        env = self.env(node.func)
        fn = self.program.functions[node.func]
        entry = func_input.copy()
        locals_null = null_initialized(env, fn.local_types.items())
        for src, tgt, definiteness in locals_null.triples():
            entry.add(src, tgt, definiteness)
        intra = IntraAnalyzer(
            env,
            call_handler=lambda stmt, inp: self.handle_call_stmt(
                node, env, stmt, inp
            ),
            recorder=self.record,
        )
        flow = intra.process_root(fn.body, entry)
        output = merge_all([flow.out, flow.returns])
        if output is not None:
            # A body ending in a call hands on the census unmap gave
            # its output; the memo tables keep the output, not it.
            output.forget_census()
        return output

    # -- call dispatch ---------------------------------------------------------

    def handle_call_stmt(
        self,
        node: IGNode,
        env: FuncEnv,
        stmt: BasicStmt,
        input_set: PointsToSet,
    ) -> PointsToSet | None:
        if stmt.kind is ALLOC_KIND:
            obs.count("analysis.allocs")
            return self._handle_alloc(env, stmt, input_set)
        if stmt.callee_ptr is not None:
            obs.count("analysis.indirect_calls")
            return process_call_indirect(self, node, env, stmt, input_set)
        obs.count("analysis.direct_calls")
        callee = stmt.callee
        assert callee is not None
        if callee in self.program.functions:
            child = self._resolve_child(node, stmt, callee)
            return process_call_node(self, env, child, stmt, input_set)
        return self.handle_external_call(env, stmt, input_set, callee)

    def _resolve_child(
        self, node: IGNode, stmt: BasicStmt, callee: str
    ) -> IGNode:
        if not self.options.context_sensitive:
            # Ablation mode: one shared node per function.
            shared = self._shared_nodes.get(callee)
            if shared is None:
                shared = IGNode(callee)
                self._shared_nodes[callee] = shared
            return shared
        assert stmt.call_site is not None
        child = node.child(stmt.call_site, callee)
        if child is None:
            child = self.ig.attach_call(node, stmt.call_site, callee)
        return child

    def _handle_alloc(
        self, env: FuncEnv, stmt: BasicStmt, input_set: PointsToSet
    ) -> PointsToSet:
        if stmt.lhs is None or stmt.lhs_type is None:
            return input_set
        if not stmt.lhs_type.involves_pointers():
            return input_set
        llocs = l_locations(stmt.lhs, input_set, env)
        prov = provenance.CURRENT
        if prov.enabled:
            prov.gen_rule = provenance.RULE_ALLOC
        output = apply_assignment(input_set, llocs, [(HEAP, P)])
        # Fresh heap cells read as NULL until written (the machine
        # model zero-initializes allocations; see DESIGN.md) — loading
        # a pointer from untouched heap memory must yield NULL.
        output.add(HEAP, NULL, P)
        if prov.enabled:
            prov.gen_rule = provenance.RULE_ASSIGN_GEN
            prov.record(HEAP, NULL, False, provenance.RULE_ALLOC)
        return output

    def handle_external_call(
        self,
        env: FuncEnv,
        stmt: BasicStmt,
        input_set: PointsToSet,
        callee: str | None = None,
    ) -> PointsToSet:
        name = callee or stmt.callee
        if name in HEAP_ALLOCATORS:
            # Only a function pointer reaches here: the simplifier
            # lowers direct allocator calls to ALLOC statements.
            return self._handle_alloc(env, stmt, input_set)
        effect = model_external(name, stmt, input_set, env, self.options)
        if effect is None:
            self.warn(
                f"call to unknown external function '{name}'; assuming no "
                f"effect on points-to information"
            )
            output = input_set
            returns = []
            if stmt.lhs_type is not None and stmt.lhs_type.involves_pointers():
                returns = [(HEAP, P)]
        else:
            output = effect.output
            returns = effect.returns
        if (
            stmt.lhs is not None
            and stmt.lhs_type is not None
            and stmt.lhs_type.involves_pointers()
        ):
            prov = provenance.CURRENT
            if prov.enabled:
                prov.gen_rule = provenance.RULE_EXTERN
                prov.gen_extra = {"callee": name, "external": True}
            llocs = l_locations(stmt.lhs, output, env)
            output = apply_assignment(output, llocs, returns)
            if prov.enabled:
                prov.gen_rule = provenance.RULE_ASSIGN_GEN
                prov.gen_extra = None
        return output

    # -- entry ------------------------------------------------------------------

    def run(self) -> PointsToAnalysis:
        log = (
            provenance.ProvenanceLog()
            if CONFIG.track_provenance
            else None
        )
        previous = provenance.install(log) if log is not None else None
        # One dense-id table per run: every set this analysis creates
        # binds to it, keeping ids small and reproducible.
        previous_table = install_table(LocTable())
        try:
            # timed, not span: feeds the "core.analysis" phase
            # histogram the daemon's merged metrics aggregate.
            with obs.timed("core.analysis", entry=self.options.entry_point):
                result = self._run()
        finally:
            # The result object keeps us alive through its env hook;
            # free the capture frames and the memo.
            self._record_frames.clear()
            self._warn_frames.clear()
            self.inherited_passthrough_pairs = 0
            self._replays.clear()
            self._slice_memo.clear()
            install_table(previous_table)
            if log is not None:
                provenance.install(previous)  # type: ignore[arg-type]
        result.provenance = log
        if obs.active():
            stats = self.memo_stats
            obs.count("analysis.runs")
            obs.count("analysis.memo_hits", stats.hits)
            obs.count("analysis.memo_misses", stats.misses)
            obs.count("analysis.memo_evictions", stats.evictions)
            obs.count(
                "analysis.recursion_truncations", stats.recursion_truncations
            )
            obs.count("analysis.replayed_entries", self.replayed_entries)
            obs.count(
                "analysis.record_frame_appends", self.record_frame_appends
            )
            obs.gauge("analysis.ig_nodes", self.ig.node_count())
            obs.gauge("analysis.program_points", len(self.point_info))
            obs.gauge("analysis.warnings", len(self.warnings))
        return result

    def _run(self) -> PointsToAnalysis:
        global_env = self.env(None)
        initial = null_initialized(
            global_env, self.program.global_types.items()
        )
        init_intra = IntraAnalyzer(
            global_env,
            call_handler=self._global_init_call_handler,
            recorder=self.record,
        )
        with obs.span("analysis.global_init"):
            init_flow = init_intra.process_stmt(
                self.program.global_init, initial
            )
        entry_state = init_flow.out if init_flow.out is not None else initial

        main_fn = self.program.functions[self.options.entry_point]
        main_env = self.env(self.options.entry_point)
        main_input = entry_state.copy()
        # main's own parameters (argc/argv) are initialized to NULL,
        # like all pointers the analysis cannot see being created.
        for src, tgt, definiteness in null_initialized(
            main_env, main_fn.params
        ).triples():
            main_input.add(src, tgt, definiteness)

        with obs.span("analysis.entry_body", func=self.options.entry_point):
            self.analyze_body(self.ig.root, main_input)
        self.flush_replays()

        result = PointsToAnalysis(
            self.program,
            self.ig,
            self.point_info,
            self.warnings,
            self.options,
            stats=self.memo_stats,
        )
        result.env = self.env  # share the populated environments
        # Hand the slice-memo capture to the result before run()'s
        # cleanup clears the analyzer-side reference; incremental
        # updates reuse it as the per-function summary bank.
        result.slice_capture = self._slice_memo
        self._slice_memo = {}
        result.flowed = sorted(self.flowed)
        return result

    def _global_init_call_handler(self, stmt, input_set):
        raise CFrontendError(
            "calls are not permitted in global initializers"
        )


def analyze(
    program: SimpleProgram, options: AnalysisOptions | None = None
) -> PointsToAnalysis:
    """Analyze a SIMPLE program; see :class:`AnalysisOptions`."""
    return Analyzer(program, options or AnalysisOptions()).run()


class TooDeepError(RecursionError):
    """The input nests deeper than one phase's recursion can follow.
    ``phase`` is ``parse``, ``simplify`` or ``analyze``."""

    def __init__(self, phase: str):
        super().__init__(f"input nests too deeply to {phase}")
        self.phase = phase


def analyze_source(
    source: str,
    options: AnalysisOptions | None = None,
    filename: str = "<source>",
) -> PointsToAnalysis:
    """Parse, simplify, and analyze C source text in one step.  Running
    out of stack raises :class:`TooDeepError` naming the phase."""
    phase = "parse"
    try:
        unit = parse(source, filename)
        phase = "simplify"
        program = simplify_program(unit, source_lines=source.count("\n") + 1)
        phase = "analyze"
        return analyze(program, options)
    except RecursionError as exc:
        raise TooDeepError(phase) from exc
