"""Interprocedural call processing (Figure 4 of the paper).

``process_call_node`` implements the three cases of Figure 4:

* **Ordinary** nodes memoize (input, output) pairs — a bounded
  per-node table keyed on the input set's cached canonical fingerprint
  (Figure 4 stores a single pair; the table generalizes it so nodes
  re-entered with alternating inputs, e.g. from a surrounding loop
  fixed point, stop re-analyzing their bodies).  A hit skips the body
  entirely.
* **Approximate** nodes never analyze the body: if the current input
  is covered by their recursive partner's stored input they reuse the
  partner's stored output, otherwise they add the input to the
  partner's pending list and return *Bottom* (None).
* **Recursive** nodes run the generalizing fixed point: the stored
  input absorbs pending inputs, the stored output grows until the body
  adds nothing new.

One extension beyond the figure: a node that *becomes* recursive while
its body is being analyzed (possible only through function-pointer
discovery, Section 5 — a static build marks recursion up front) falls
through to the fixed-point loop after its first body pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import obs
from repro.core import provenance
from repro.core.env import FuncEnv
from repro.core.intra import apply_assignment
from repro.core.invocation_graph import APPROXIMATE_NODE, RECURSIVE_NODE, IGNode
from repro.core.lvalues import LocSet, l_locations
from repro.core.mapping import map_call, unmap_call
from repro.core.pointsto import PointsToSet, merge_all, pair_count
from repro.core.slices import split_input
from repro.simple.ir import BasicStmt

#: Safety valve for the recursion fixed point.  Hitting it truncates
#: the fixed point (with a warning and a statistics record) instead of
#: aborting the whole analysis; the truncated result may be unsound.
MAX_RECURSION_ITERATIONS = 100

#: Bound on entries per memo table (an ordinary invocation-graph
#: node's, and each function's slice-keyed table); least-recently-used
#: entries are evicted.
MEMO_CAPACITY = 8

#: Sentinel distinguishing "call never recorded" from a remembered
#: Bottom (None) output in the provenance seen-calls table.
_UNSEEN = object()


@dataclass
class MemoStats:
    """Counters for the invocation-graph memo tables and the recursion
    fixed point, aggregated per analysis run and surfaced through
    :func:`repro.core.statistics.collect_perf`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    recursion_truncations: int = 0
    truncated_functions: list[str] = field(default_factory=list)
    #: Per-function [hits, misses] over all of that function's nodes.
    per_function: dict[str, list[int]] = field(default_factory=dict)
    #: Slice-keyed memo traffic (perf observability; surfaced through
    #: ``statistics.collect_perf`` and the ``stats`` payload).
    slice_hits: int = 0
    slice_lookups: int = 0
    slice_key_pairs: int = 0
    slice_passthrough_pairs: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0

    def note(self, func: str, hit: bool) -> None:
        counters = self.per_function.setdefault(func, [0, 0])
        counters[0 if hit else 1] += 1

    def per_function_rates(self) -> dict[str, dict]:
        result = {}
        for func, (hits, misses) in sorted(self.per_function.items()):
            lookups = hits + misses
            result[func] = {
                "hits": hits,
                "misses": misses,
                "hit_rate": round(hits / lookups, 4) if lookups else 0.0,
            }
        return result

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": round(self.hit_rate, 4),
            "recursion_truncations": self.recursion_truncations,
            "truncated_functions": list(self.truncated_functions),
            "per_function": {
                func: list(counters)
                for func, counters in sorted(self.per_function.items())
            },
            "slice": {
                "hits": self.slice_hits,
                "lookups": self.slice_lookups,
                "key_pairs": self.slice_key_pairs,
                "passthrough_pairs": self.slice_passthrough_pairs,
            },
        }


def _memo_lookup(analyzer, child: IGNode, func_input: PointsToSet):
    """Consult the node's memo; returns (key, hit, output).

    ``key`` is the input's fingerprint, to store a later result under.
    *Bottom* outputs (None — the call never returns) are never
    memoized.  A hit on an entry other than the most recent one still
    performs a sub-tree cache lookup, purely so the sharing statistics
    match Figure 4's single-pair protocol (which would have served
    exactly those calls from that cache).
    """
    stats = analyzer.memo_stats
    key = func_input.fingerprint()
    memo = child.memo
    output = memo.get(key)
    if output is None:
        stats.misses += 1
        stats.note(child.func, False)
        return key, False, None
    newest = next(reversed(memo))
    if newest != key:
        memo.pop(key)
        memo[key] = output  # refresh recency
        analyzer.subtree_cache_lookup(child.func, func_input)
    stats.hits += 1
    stats.note(child.func, True)
    return key, True, output


def _memo_store(
    analyzer, child: IGNode, key, output: PointsToSet | None
) -> None:
    if output is None:
        return  # Bottom output: nothing to table
    memo = child.memo
    memo.pop(key, None)
    memo[key] = output
    while len(memo) > MEMO_CAPACITY:
        memo.pop(next(iter(memo)))  # least recently used
        analyzer.memo_stats.evictions += 1
    analyzer.bump_call_state()


def process_call_node(
    analyzer,
    caller_env: FuncEnv,
    child: IGNode,
    stmt: BasicStmt,
    input_set: PointsToSet,
) -> PointsToSet | None:
    """Process one call to the invocation-graph node ``child``.

    ``input_set`` is the caller's set at the call point (for indirect
    calls, already specialized with the function pointer definitely
    bound to ``child.func``).  Returns the caller's output set, or None
    (Bottom) when an approximate node defers resolution.
    """
    program = analyzer.program
    callee_fn = program.functions[child.func]
    callee_env = analyzer.env(child.func)

    prov = provenance.CURRENT
    if not prov.enabled:
        return _process_call_node(
            analyzer, caller_env, callee_env, callee_fn, child, stmt,
            input_set,
        )

    # One call processing is a deterministic function of the call
    # site, the invocation-graph path, and the caller's input set —
    # except while the callee subtree's state is still evolving
    # (recursion fixed points, approximate nodes).  Loop and recursion
    # fixed points re-process the same call with the same input many
    # times; every record such a re-processing would make is an exact
    # duplicate, so run it with recording suppressed and verify the
    # assumption against the remembered output fingerprint.  When the
    # output diverged (the subtree evolved), re-process with recording
    # on so the new facts get witnesses.
    # id(child): nodes are kept alive by the invocation graph, so the
    # id is stable for the run.
    key = (stmt.stmt_id, prov.path, id(child), input_set.fingerprint())
    expected = prov.seen_calls.get(key, _UNSEEN)
    if expected is not _UNSEEN:
        previous = provenance.install(None)
        try:
            output = _process_call_node(
                analyzer, caller_env, callee_env, callee_fn, child, stmt,
                input_set,
            )
        finally:
            provenance.install(previous)
        if (output.fingerprint() if output is not None else None) == expected:
            return output

    # The dynamic extent of this call — map, body, unmap — records
    # under an invocation-graph path extended with the callee; the
    # caller's statement context is restored on exit.
    prov.push_call(
        stmt.call_site,
        child.func,
        indirect=stmt.callee_ptr is not None,
        fp=stmt.callee_ptr,
    )
    try:
        output = _process_call_node(
            analyzer, caller_env, callee_env, callee_fn, child, stmt,
            input_set,
        )
    finally:
        prov.pop_call()
    prov.seen_calls[key] = (
        output.fingerprint() if output is not None else None
    )
    return output


def _process_call_node(
    analyzer,
    caller_env: FuncEnv,
    callee_env: FuncEnv,
    callee_fn,
    child: IGNode,
    stmt: BasicStmt,
    input_set: PointsToSet,
) -> PointsToSet | None:
    func_input, map_info = map_call(
        caller_env, callee_env, input_set, stmt.args, callee_fn
    )
    child.map_info = map_info

    if child.kind is APPROXIMATE_NODE:
        partner = child.rec_partner
        assert partner is not None
        if (
            partner.stored_input is not None
            and func_input.is_subset_of(partner.stored_input)
        ):
            if partner.stored_output is None:
                return None
            func_output = partner.stored_output
        else:
            partner.pending_inputs.append(func_input)
            analyzer.bump_call_state()
            return None
    elif child.in_progress:
        # Re-entry of a node whose body is being analyzed: only
        # possible through a *shared* node (context-insensitive
        # ablation / sub-tree sharing); the node acts as its own
        # recursive partner, exactly like the approximate case.
        if (
            child.stored_input is not None
            and func_input.is_subset_of(child.stored_input)
        ):
            if child.stored_output is None:
                return None
            func_output = child.stored_output
        else:
            child.pending_inputs.append(func_input)
            analyzer.bump_call_state()
            return None
    elif child.kind is RECURSIVE_NODE:
        func_output = _process_recursive(analyzer, child, func_input)
        if func_output is None:
            return None
    else:
        func_output = _process_ordinary(analyzer, child, func_input)
        if func_output is None:
            return None

    return _unmap_and_assign(
        analyzer, caller_env, callee_fn, stmt, input_set, func_output, map_info
    )


def _refresh_stored(
    analyzer, child: IGNode, func_input: PointsToSet, output
) -> None:
    """Refresh ``stored_input``/``stored_output`` from a memo or
    sub-tree cache hit.  Bumps the call-state version only when the
    *content* actually changes — a loop fixed point re-hitting the same
    entry must not invalidate the caller's transfer cache, or the
    worklist would never converge to skips.  Output comparison is by
    content: a slice-keyed hit reconstructs a fresh (but equal) output
    object every time."""
    same_output = child.stored_output is output or (
        child.stored_output is not None
        and output is not None
        and child.stored_output == output
    )
    if (
        not same_output
        or child.stored_input is None
        or child.stored_input != func_input
    ):
        analyzer.bump_call_state()
    child.stored_input = func_input
    child.stored_output = output


@dataclass
class _SliceEntry:
    """One slice-keyed memo entry: the body's output plus everything a
    hit must replay — the passthrough rows the output (and every
    recorded program-point set) embeds, and the record/warning stream
    the body emitted.

    ``passthrough`` holds ``(source id, (definite mask, possible
    mask))`` rows in the input's row order, bound to ``output.table``
    like the entry's key.  A hit masks them out of each stored set and
    writes the current call's passthrough rows in their place."""

    output: PointsToSet
    passthrough: tuple
    records: list
    warnings: list
    #: (func, name, ctype) symbolic registrations the body run
    #: performed — replayed on a hit so a seed-consulting run's scope
    #: envs end up identical to a cold run's.
    symbolics: tuple = ()


def _slice_context(analyzer, child: IGNode, func_input: PointsToSet):
    """The (key, passthrough) split for this call, or None when slice
    keying does not apply (provenance recording, opaque callee, or an
    invocation-graph mode whose nodes re-enter)."""
    if provenance.CURRENT.enabled:
        return None
    options = analyzer.options
    if options.share_subtrees or not options.context_sensitive:
        return None
    summary = analyzer.function_summary(child.func)
    if summary.opaque:
        return None
    return split_input(
        func_input,
        analyzer.program.functions[child.func],
        analyzer.env(child.func),
        summary.referenced_globals,
    )


def _reconstruct_output(entry: _SliceEntry, passthrough: tuple) -> PointsToSet:
    if entry.passthrough == passthrough:
        return entry.output
    return entry.output.swapped(entry.passthrough, passthrough)


def _replay_body(analyzer, entry: _SliceEntry, passthrough: tuple) -> None:
    """Re-merge the stored body run's program-point records (with the
    stored passthrough swapped for the current one) and re-emit its
    warnings — exactly what a fresh body run under this input would
    have contributed to ``point_info`` and the warning list."""
    changed = entry.passthrough != passthrough
    for stmt_id, recorded in entry.records:
        if changed:
            recorded = recorded.swapped(entry.passthrough, passthrough)
        for frame in analyzer._record_frames:
            frame.append((stmt_id, recorded))
        analyzer.record_by_id(stmt_id, recorded)
    for func, name, ctype in entry.symbolics:
        # Re-registration propagates into any open symbolic frames via
        # the env observer, so enclosing captures stay complete.
        analyzer.env(func).register_symbolic(name, ctype)
    for message in entry.warnings:
        analyzer.warn(message)


def _process_ordinary_sliced(
    analyzer, child: IGNode, func_input: PointsToSet, slice_ctx
) -> PointsToSet | None:
    key_rows, passthrough, slice_root_count = slice_ctx
    # Tagged so a slice key can never collide with a whole-input
    # fingerprint in a node's mirror table (provenance-recording
    # passes of the same run use whole-input keys).
    key = ("slice", key_rows)
    stats = analyzer.memo_stats
    stats.slice_lookups += 1
    stats.slice_key_pairs += pair_count(key_rows)
    stats.slice_passthrough_pairs += pair_count(passthrough)
    obs.gauge("analysis.slice_roots", slice_root_count)
    # The table is global per function, not per node: a non-opaque
    # callee's analysis is a deterministic function of (function,
    # slice) — node identity only matters through recursion and
    # function-pointer discovery, which opacity excludes — so distinct
    # call sites with the same slice share one entry.
    table = analyzer._slice_memo.setdefault(child.func, {})
    entry = table.get(key)
    if entry is None:
        bank = getattr(analyzer, "seed_bank", None)
        if bank is not None:
            entry = bank.materialize(child.func, key_rows, func_input.table)
            if entry is not None:
                # A seed hit is indistinguishable from a within-run
                # hit: the bank only holds entries whose producing
                # closure is fingerprint-identical, and the entry
                # replays exactly what a cold miss would record.
                table[key] = entry
                while len(table) > MEMO_CAPACITY:
                    table.pop(next(iter(table)))
                    stats.evictions += 1
                obs.count("incremental.seed_hits")
    if entry is not None:
        if next(reversed(table)) != key:
            table.pop(key)
            table[key] = entry  # refresh recency
        child.memo.pop(key, None)
        child.memo[key] = entry  # mirror for per-node introspection
        stats.hits += 1
        stats.slice_hits += 1
        stats.note(child.func, True)
        obs.count("analysis.slice_memo_hits")
        output = _reconstruct_output(entry, passthrough)
        _replay_body(analyzer, entry, passthrough)
        _refresh_stored(analyzer, child, func_input, output)
        return output
    stats.misses += 1
    stats.note(child.func, False)
    child.in_progress = True
    analyzer.bump_call_state()
    records: list = []
    warnings: list = []
    symbolics: list = []
    analyzer._record_frames.append(records)
    analyzer._warn_frames.append(warnings)
    analyzer._symbolic_frames.append(symbolics)
    try:
        func_output = analyzer.analyze_body(child, func_input)
    finally:
        analyzer._record_frames.pop()
        analyzer._warn_frames.pop()
        analyzer._symbolic_frames.pop()
        child.in_progress = False
        analyzer.bump_call_state()
    if child.kind is RECURSIVE_NODE or child.pending_inputs:
        # Defensive: non-opaque closures contain no indirect call
        # sites, so ordinary nodes cannot be discovered recursive
        # mid-body — but fall through safely if it ever happens.
        return _process_recursive(analyzer, child, func_input)
    child.stored_input = func_input
    child.stored_output = func_output
    if func_output is not None:
        # Pre-merge the record stream per statement: replaying the
        # merged set is equivalent (the record fold into point_info is
        # associative — D survives only when definite in every
        # operand) and caps the stream at one record per statement
        # instead of one per (statement, context) of the whole
        # sub-tree, which is what a hit pays to replay.
        merged: dict[int, PointsToSet] = {}
        for stmt_id, recorded in records:
            prev = merged.get(stmt_id)
            merged[stmt_id] = (
                recorded if prev is None else prev.merge(recorded)
            )
        seen: set = set()
        intro = tuple(
            item
            for item in symbolics
            if not (item[:2] in seen or seen.add(item[:2]))
        )
        entry = _SliceEntry(
            func_output, passthrough, list(merged.items()), warnings, intro
        )
        table = analyzer._slice_memo.setdefault(child.func, {})
        table.pop(key, None)
        table[key] = entry
        while len(table) > MEMO_CAPACITY:
            table.pop(next(iter(table)))  # least recently used
            stats.evictions += 1
        # Mirror into the node's own table (introspection parity with
        # the whole-input protocol; same bound, evictions counted once).
        child.memo.pop(key, None)
        child.memo[key] = entry
        while len(child.memo) > MEMO_CAPACITY:
            child.memo.pop(next(iter(child.memo)))
    analyzer.bump_call_state()
    return func_output


def _process_ordinary(
    analyzer, child: IGNode, func_input: PointsToSet
) -> PointsToSet | None:
    slice_ctx = _slice_context(analyzer, child, func_input)
    if slice_ctx is not None:
        return _process_ordinary_sliced(analyzer, child, func_input, slice_ctx)
    key, memo_hit, memo_output = _memo_lookup(analyzer, child, func_input)
    if memo_hit:
        _refresh_stored(analyzer, child, func_input, memo_output)
        return memo_output
    hit, cached = analyzer.subtree_cache_lookup(child.func, func_input)
    if hit:
        # Sub-tree sharing (Section 6's planned optimization): another
        # invocation-graph node already analyzed this function with an
        # identical input; reuse its output.
        _refresh_stored(analyzer, child, func_input, cached)
        _memo_store(analyzer, child, key, cached)
        return cached
    child.in_progress = True
    analyzer.bump_call_state()
    try:
        func_output = analyzer.analyze_body(child, func_input)
    finally:
        child.in_progress = False
        analyzer.bump_call_state()
    if child.kind is RECURSIVE_NODE or child.pending_inputs:
        # The body analysis discovered (via a function pointer) that
        # this node is recursive: switch to the fixed-point protocol.
        return _process_recursive(analyzer, child, func_input)
    child.stored_input = func_input
    child.stored_output = func_output
    _memo_store(analyzer, child, key, func_output)
    analyzer.subtree_cache_store(child.func, func_input, func_output)
    return func_output


def _process_recursive(
    analyzer, child: IGNode, func_input: PointsToSet
) -> PointsToSet | None:
    if (
        not child.in_progress
        and child.stored_input is not None
        and child.stored_output is not None
        and child.stored_input == func_input
    ):
        return child.stored_output

    child.in_progress = True
    child.stored_input = func_input
    child.stored_output = None
    child.pending_inputs = []
    analyzer.bump_call_state()
    iterations = 0
    fixpoint_context = obs.span("analysis.fixed_point", func=child.func)
    fixpoint_span = fixpoint_context.__enter__()
    try:
        while True:
            iterations += 1
            if iterations > MAX_RECURSION_ITERATIONS:
                # Truncate rather than abort: keep the output merged so
                # far, but never silently — warn and record it in the
                # run's statistics so callers can see the result may be
                # incomplete.
                analyzer.warn(
                    f"recursion fixed point for '{child.func}' did not "
                    f"converge within {MAX_RECURSION_ITERATIONS} "
                    f"iterations; truncated (result may be incomplete)"
                )
                stats = analyzer.memo_stats
                stats.recursion_truncations += 1
                if child.func not in stats.truncated_functions:
                    stats.truncated_functions.append(child.func)
                break
            func_output = analyzer.analyze_body(child, child.stored_input)
            if child.pending_inputs:
                merged = merge_all([child.stored_input] + child.pending_inputs)
                child.stored_input = merged
                child.pending_inputs = []
                child.stored_output = None
                analyzer.bump_call_state()
                continue
            if func_output is None:
                # Every path recursed without resolution: no base case
                # reachable — the call never returns.
                break
            if child.stored_output is not None and func_output.is_subset_of(
                child.stored_output
            ):
                break
            child.stored_output = merge_all(
                [child.stored_output, func_output]
            )
            analyzer.bump_call_state()
    finally:
        child.in_progress = False
        analyzer.bump_call_state()
        if obs.active():
            obs.count("analysis.fixpoint_rounds")
            obs.count("analysis.fixpoint_iterations", iterations)
            obs.count(f"analysis.fixpoint_iterations.{child.func}", iterations)
            fixpoint_span.annotate(iterations=iterations)
        fixpoint_context.__exit__(None, None, None)
    # Reset the stored input to this call's input for future
    # memoization (the last line of Figure 4's recursive case).
    child.stored_input = func_input
    analyzer.bump_call_state()
    return child.stored_output


def _unmap_and_assign(
    analyzer,
    caller_env: FuncEnv,
    callee_fn,
    stmt: BasicStmt,
    input_set: PointsToSet,
    func_output: PointsToSet,
    map_info,
) -> PointsToSet:
    unmapped = unmap_call(input_set, func_output, map_info, callee_fn)
    for loc in unmapped.dangling:
        analyzer.warn(
            f"pointer to local '{loc}' of '{callee_fn.name}' escapes "
            f"its frame (dangling); relationship dropped"
        )
    result = unmapped.output
    if stmt.lhs is None or stmt.lhs_type is None:
        return result
    if not stmt.lhs_type.involves_pointers():
        return result

    prov = provenance.CURRENT
    if prov.enabled:
        # The return-value assignment is a caller-side fact at the
        # call statement; its parents are the callee's retval facts
        # carried out by the unmap.  (pop_call restores these context
        # overrides when the surrounding process_call_node exits.)
        fn = caller_env.fn
        prov.set_stmt(stmt.stmt_id, fn.name if fn is not None else None)
        prov.add_resolved_support(unmapped.return_support)
        prov.gen_rule = provenance.RULE_CALL_RETURN
        prov.gen_extra = prov.call_extra()

    caller_paths = {path for path, _, _ in unmapped.returns}
    if caller_paths == {()} or not unmapped.returns:
        rlocs: LocSet = [
            (loc, d) for path, loc, d in unmapped.returns if path == ()
        ]
        llocs = l_locations(stmt.lhs, result, caller_env)
        return apply_assignment(result, llocs, rlocs)
    # Struct-valued return: assign per pointer-holding sub-path.
    base_llocs = l_locations(stmt.lhs, result, caller_env)
    for path in sorted(caller_paths):
        rlocs = [(loc, d) for p, loc, d in unmapped.returns if p == path]
        llocs = [(loc.extend(path), d) for loc, d in base_llocs]
        result = apply_assignment(result, llocs, rlocs)
    return result
