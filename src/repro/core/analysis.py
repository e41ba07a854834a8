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
from repro.simple.ir import (
    ALLOC_KIND,
    CALL_KIND,
    BasicStmt,
    SimpleProgram,
    Stmt,
    child_stmts,
    iter_stmts,
)
from repro.frontend.parser import parse
from repro.simple.simplify import simplify_program
from repro.core import provenance
from repro.core.env import FuncEnv
from repro.core.externals import model_external
from repro.core.funcptr import address_taken_functions, process_call_indirect
from repro.core.interproc import MemoStats, process_call_node
from repro.core.intra import (
    FlowOut,
    IntraAnalyzer,
    apply_assignment,
    null_initialized,
)
from repro.core.invocation_graph import IGNode, InvocationGraph
from repro.core.locations import HEAP, NULL, LocTable, install_table
from repro.core.lvalues import l_locations
from repro.core.perf import CONFIG
from repro.core.pointsto import P, PointsToSet, merge_all


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
    * ``share_subtrees``: the optimization Section 6 plans for large
      programs — a global per-function memo table keyed on the mapped
      input set, so identical invocation contexts share one analysis
      even when they sit in different sub-trees of the invocation
      graph.  Results are unchanged; only work is saved.
    """

    function_pointer_strategy: str = "precise"
    unknown_external_policy: str = "ignore"
    context_sensitive: bool = True
    share_subtrees: bool = False
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
        #: {("slice", key_rows): interproc._SliceEntry}), retained so
        #: incremental updates can reuse per-function summaries; None
        #: on decoded or hand-built results.
        self.slice_capture = None
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


class _TransferCache:
    """Change-driven worklist: per-(invocation-graph node, compound
    statement) transfer memo.

    A compound statement's flow is a deterministic function of its
    input set and of the interprocedural state its calls consult (memo
    tables, recursion fixed-point state, pending inputs).  The
    analyzer maintains a *call-state version* that every mutation of
    that state bumps; an entry recorded at version ``v`` whose subtree
    contains call statements is valid exactly while the version is
    still ``v``, and an entry for a call-free subtree is valid forever
    (for its input).  Re-flowing a statement with an unchanged input
    under a valid entry returns copies of the recorded flow instead of
    re-evaluating the subtree — this is what collapses
    ``analysis.body_passes`` under loop and recursion fixed points.

    Skipping a re-evaluation is behavior-preserving because an equal
    re-run is a no-op on every observable: ``record`` merges are
    idempotent, ``warn`` deduplicates, and function-pointer discovery
    already attached its invocation-graph children on the recorded
    run.  Captured record/warning streams are replayed into any
    active capture frames so the slice-keyed call memo composes with
    the worklist.
    """

    __slots__ = ("analyzer", "node_key", "func")

    def __init__(self, analyzer: "Analyzer", node: IGNode):
        self.analyzer = analyzer
        # Keyed by identity: nodes live as long as the run does.
        self.node_key = id(node)
        self.func = node.func

    def lookup(self, stmt: Stmt, input_set: PointsToSet) -> FlowOut | None:
        analyzer = self.analyzer
        obs.count("analysis.worklist_visits")
        entry = analyzer._transfer_entries.get((self.node_key, stmt.stmt_id))
        if entry is None:
            return None
        fp, version, out, breaks, continues, returns, records, warnings = entry
        if fp != input_set.fingerprint():
            return None
        if version is not None and version != analyzer.call_state_version:
            return None
        obs.count("analysis.worklist_skips")
        analyzer.replay_capture(records, warnings)
        return FlowOut(
            out.copy() if out is not None else None,
            breaks=[s.copy() for s in breaks],
            continues=[s.copy() for s in continues],
            returns=returns.copy() if returns is not None else None,
        )

    def begin(self, stmt: Stmt, input_set: PointsToSet):
        analyzer = self.analyzer
        records: list = []
        warnings: list = []
        analyzer._record_frames.append(records)
        analyzer._warn_frames.append(warnings)
        return (stmt, input_set.fingerprint(), records, warnings)

    def end(self, token, flow: FlowOut | None) -> None:
        analyzer = self.analyzer
        stmt, fp, records, warnings = token
        analyzer._record_frames.pop()
        analyzer._warn_frames.pop()
        if flow is None:
            return
        version = (
            analyzer.call_state_version
            if analyzer.stmt_has_calls(self.func, stmt)
            else None
        )
        analyzer._transfer_entries[(self.node_key, stmt.stmt_id)] = (
            fp,
            version,
            flow.out.copy() if flow.out is not None else None,
            tuple(s.copy() for s in flow.breaks),
            tuple(s.copy() for s in flow.continues),
            flow.returns.copy() if flow.returns is not None else None,
            records,
            warnings,
        )


def _symbolic_observer(frames: list[list]):
    """A ``FuncEnv.on_symbolic`` hook appending each registration to
    every open capture frame."""

    def note(func, name, ctype) -> None:
        for frame in frames:
            frame.append((func, name, ctype))

    return note


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
        #: share_subtrees memo: (func, canonical input) -> output set.
        self._subtree_cache: dict[tuple, PointsToSet | None] = {}
        self.subtree_cache_hits = 0
        self.subtree_cache_misses = 0
        #: Per-node memo table counters (see interproc.MemoStats).
        self.memo_stats = MemoStats()
        #: Monotone counter over the interprocedural state (memo
        #: tables, fixed-point stored inputs/outputs, pending lists,
        #: in-progress brackets).  Transfer-cache entries for subtrees
        #: containing calls are keyed on it; see :class:`_TransferCache`.
        self.call_state_version = 0
        #: (id(node), stmt_id) -> recorded transfer entry.
        self._transfer_entries: dict[tuple[int, int], tuple] = {}
        #: stmt_id -> whether the statement's subtree contains a call.
        self._has_calls: dict[int, bool] = {}
        #: Active capture frames: every ``record``/``warn`` during a
        #: framed evaluation is appended to all open frames so cached
        #: transfers (and memoized call bodies) can replay them later.
        self._record_frames: list[list] = []
        self._warn_frames: list[list] = []
        #: Symbolic-introduction capture frames (parallel to
        #: ``_record_frames``): every symbolic registration during a
        #: memoized body run is appended so a seed hit in a later run
        #: can re-register the same invisible variables.
        self._symbolic_frames: list[list] = []
        # The observer closes over the frame list, not the analyzer: a
        # bound method stored on every environment would make each run
        # a reference cycle that only the cyclic collector frees.
        self._note_symbolic = _symbolic_observer(self._symbolic_frames)
        #: Lazily-built per-function closure summaries for slice-keyed
        #: call memoization (see repro.core.slices).
        self._summaries: dict | None = None
        #: Slice-keyed call memo, global per function: func ->
        #: {("slice", key_rows): interproc._SliceEntry}, LRU-bounded.
        self._slice_memo: dict[str, dict] = {}
        #: Optional incremental seed bank (repro.core.incremental
        #: .SeedBank): consulted on slice-memo misses so a splice's mini
        #: run can replay summaries captured by the prior run.
        self.seed_bank = None

    def bump_call_state(self) -> None:
        """Note a mutation of the interprocedural call state (memo /
        fixed-point / pending state), invalidating call-dependent
        transfer-cache entries."""
        self.call_state_version += 1

    def stmt_has_calls(self, func: str, stmt: Stmt) -> bool:
        """Whether ``stmt``'s subtree contains a call that consults
        mutable interprocedural state (any CALL to an analyzed or
        indirect target; ALLOC and direct external calls are pure
        functions of the input set).  The first query for ``func``
        answers for all of its statements in one bottom-up pass."""
        cached = self._has_calls.get(stmt.stmt_id)
        if cached is None:
            functions = self.program.functions
            has_calls = self._has_calls
            # Reversed pre-order reaches a statement after all of its
            # descendants.
            for s in reversed(list(iter_stmts(functions[func].body))):
                has_calls[s.stmt_id] = (
                    s.kind is CALL_KIND
                    and (s.callee_ptr is not None or s.callee in functions)
                    if isinstance(s, BasicStmt)
                    else any(has_calls[c.stmt_id] for c in child_stmts(s))
                )
            cached = has_calls[stmt.stmt_id]
        return cached

    def function_summary(self, func: str):
        """The static closure summary used for slice-keyed memoization."""
        if self._summaries is None:
            from repro.core.slices import summarize_program

            self._summaries = summarize_program(self.program, self.options)
        return self._summaries[func]

    def replay_capture(self, records, warnings) -> None:
        """Append a recorded (stmt_id, set) / warning stream to every
        open capture frame (a skipped subtree still contributes to any
        enclosing capture)."""
        for frame in self._record_frames:
            frame.extend(records)
        for frame in self._warn_frames:
            frame.extend(warnings)

    # -- plumbing ---------------------------------------------------------

    def env(self, func: str | None) -> FuncEnv:
        if func not in self._envs:
            env = FuncEnv(self.program, func)
            env.on_symbolic = self._note_symbolic
            self._envs[func] = env
        return self._envs[func]

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
        if self._record_frames:
            captured = input_set.copy()
            for frame in self._record_frames:
                frame.append((stmt.stmt_id, captured))
        self.record_by_id(stmt.stmt_id, input_set)

    def record_by_id(self, stmt_id: int, input_set: PointsToSet) -> None:
        existing = self.point_info.get(stmt_id)
        if existing is None:
            self.point_info[stmt_id] = input_set.copy()
        elif existing == input_set:
            pass  # merging an equal set is the identity; skip the copy
        else:
            self.point_info[stmt_id] = existing.merge(input_set)

    # -- sub-tree sharing (the optimization planned in Section 6) ---------

    def subtree_cache_lookup(
        self, func: str, input_set: PointsToSet
    ) -> tuple[bool, PointsToSet | None]:
        if not self.options.share_subtrees:
            return False, None
        key = (func, input_set.fingerprint())
        if key in self._subtree_cache:
            self.subtree_cache_hits += 1
            return True, self._subtree_cache[key]
        self.subtree_cache_misses += 1
        return False, None

    def subtree_cache_store(
        self, func: str, input_set: PointsToSet, output: PointsToSet | None
    ) -> None:
        if not self.options.share_subtrees:
            return
        key = (func, input_set.fingerprint())
        self._subtree_cache[key] = output
        self.bump_call_state()

    # -- body analysis -------------------------------------------------------

    def analyze_body(
        self, node: IGNode, func_input: PointsToSet
    ) -> PointsToSet | None:
        env = self.env(node.func)
        fn = self.program.functions[node.func]
        entry = func_input.copy()
        locals_null = null_initialized(env, fn.local_types.items())
        for src, tgt, definiteness in locals_null.triples():
            entry.add(src, tgt, definiteness)
        use_worklist = not provenance.CURRENT.enabled
        intra = IntraAnalyzer(
            env,
            call_handler=lambda stmt, inp: self.handle_call_stmt(
                node, env, stmt, inp
            ),
            recorder=self.record,
            transfer_cache=_TransferCache(self, node) if use_worklist else None,
        )
        flow = intra.process_root(fn.body, entry)
        return merge_all([flow.out, flow.returns])

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
                self.bump_call_state()
            return shared
        assert stmt.call_site is not None
        child = node.child(stmt.call_site, callee)
        if child is None:
            child = self.ig.attach_call(node, stmt.call_site, callee)
            self.bump_call_state()
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
        effect_stmt = stmt
        if callee is not None and callee != stmt.callee:
            # Indirect call resolved to an external function.
            effect_stmt = stmt
        effect = model_external(effect_stmt, input_set, env, self.options)
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
            # The transfer cache only serves one run; free the
            # recorded flows (the result object keeps us alive through
            # its env hook).
            self._transfer_entries.clear()
            self._record_frames.clear()
            self._warn_frames.clear()
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
