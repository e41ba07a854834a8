"""Interprocedural call processing (Figure 4 of the paper).

``process_call_node`` implements the three cases of Figure 4:

* **Ordinary** nodes memoize (input, output) pairs — a bounded
  per-node table keyed on the input set's cached canonical fingerprint
  (Figure 4 stores a single pair; the table generalizes it so nodes
  re-entered with alternating inputs, e.g. from a surrounding loop
  fixed point, stop re-analyzing their bodies).  A hit skips the body
  entirely.  Calls to a function whose closure the slice summaries can
  bound (:mod:`repro.core.slices`) use one table per *function*
  instead, keyed on the input's reachable slice, so identical contexts
  in different invocation-graph sub-trees share one analysis (the
  sharing Section 6 plans); the per-node table serves opaque callees,
  provenance-recording runs and the context-insensitive ablation.
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
from repro.core.invocation_graph import (
    APPROXIMATE_NODE,
    ORDINARY_NODE,
    RECURSIVE_NODE,
    IGNode,
)
from repro.core.locations import global_loc
from repro.core.lvalues import LocSet, l_locations
from repro.core.mapping import formal_bindings, map_call, unmap_call
from repro.core.pointsto import PointsToSet, merge_all, merge_rows, pair_count
from repro.core.slices import CallSplit, split_input
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
    memoized.
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
            # The slice memo serves only such unrecorded runs: merge
            # their hits before recording resumes, so every recorded
            # merge meets the point sets it would have met had each
            # hit merged on the spot, and no flush records a weakening
            # outside its statement.
            analyzer.flush_replays()
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
    # One boundary for every call: split the caller's set first, so map
    # carries the key rows only and unmap leaves the passthrough rows
    # where they are.  Calls outside slice keying carry every row.
    split = _slice_context(
        analyzer, caller_env, callee_env, callee_fn, child, stmt, input_set
    )
    func_input, map_info = map_call(
        caller_env, callee_env, input_set, stmt.args, callee_fn, split
    )
    child.map_info = map_info
    try:
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
                return None
        elif child.in_progress:
            # Re-entry of a node whose body is being analyzed: only
            # possible through a *shared* node (the context-insensitive
            # ablation); the node acts as its own recursive partner,
            # exactly like the approximate case.
            if (
                child.stored_input is not None
                and func_input.is_subset_of(child.stored_input)
            ):
                if child.stored_output is None:
                    return None
                func_output = child.stored_output
            else:
                child.pending_inputs.append(func_input)
                return None
        elif child.kind is RECURSIVE_NODE:
            func_output = _process_recursive(analyzer, child, func_input)
            if func_output is None:
                return None
        else:
            func_output = _process_ordinary(analyzer, child, func_input, split)
            if func_output is None:
                return None

        return _unmap_and_assign(
            analyzer, caller_env, callee_fn, stmt, input_set, func_output,
            map_info,
        )
    finally:
        # The call is done with the caller's census (its output may
        # carry it on, see ``unmap_call``).
        input_set.forget_census()


@dataclass
class _SliceEntry:
    """One slice-keyed memo entry: the body's run on the call's key
    rows — its output, and what a hit must replay: the record/warning
    stream it emitted.

    Neither ``output`` nor the records hold a passthrough row: the
    body never saw one, and the caller's passthrough rows never cross
    the boundary, so a hit's output is the stored one as it is and a
    replay writes the replaying calls' passthrough rows into each
    recorded set (:func:`replayed_records`).  ``passthrough`` keeps the
    storing call's ``(source id, (definite mask, possible mask))``
    rows, bound to ``output.table`` like the entry's key, so an update
    can rebuild that call's whole input.  The entry keeps no symbolic
    names: the run that stored it registered them, and they are
    context-free within their function."""

    output: PointsToSet
    passthrough: tuple
    records: list
    warnings: list


def _slice_context(
    analyzer,
    caller_env: FuncEnv,
    callee_env: FuncEnv,
    callee_fn,
    child: IGNode,
    stmt: BasicStmt,
    input_set: PointsToSet,
) -> CallSplit | None:
    """The key/passthrough split of the caller's set for this call,
    taken before map; None when slice keying does not apply
    (provenance recording, an opaque callee, a node that is not a
    fresh ordinary one, or an invocation-graph mode whose nodes
    re-enter): such a call carries every row."""
    if provenance.CURRENT.enabled:
        return None
    if not analyzer.options.context_sensitive:
        return None
    if child.kind is not ORDINARY_NODE or child.in_progress:
        return None
    summary = analyzer.summaries.summary(child.func)
    if summary.opaque:
        return None
    bindings = formal_bindings(
        caller_env, callee_env, input_set, stmt.args, callee_fn
    )
    seeds = [target.root() for _, target, _ in bindings[0]]
    # A formal named like a global shares its symbolic names with that
    # global's (``locations.symbolic_name``), and a shared name merges
    # the roots it stands for: slice the global too.
    global_types = analyzer.program.global_types
    seeds.extend(
        global_loc(name)
        for name, _ in callee_fn.params
        if name in global_types
    )
    split = split_input(input_set, seeds, summary.referenced_globals)
    split.bindings = bindings  # map binds the formals from them
    return split


def replayed_records(entry: _SliceEntry, passthrough: tuple):
    """The entry's per-statement sets as a whole-input body run under
    ``passthrough`` would have recorded them: ``passthrough`` written
    into each (the body carries those rows unchanged), one at a time.
    Records that share a row dict share the written set too, as the
    sets a whole-input run records share theirs."""
    written: dict[int, PointsToSet] = {}
    for stmt_id, recorded in entry.records:
        if passthrough:
            shared = written.get(id(recorded.rows))
            if shared is None:
                shared = written[id(recorded.rows)] = recorded.with_rows(
                    passthrough
                )
            recorded = shared
        yield stmt_id, recorded


def merge_frame(frame: list) -> dict[int, PointsToSet]:
    """A closed capture frame merged per statement, in order of first
    appearance.  The frame holds ``(stmt_id, set)`` records and
    ``(None, (entry, passthrough))`` replays of slice-memo entries (a
    hit's, or a closed miss's); the replays of one entry happen once,
    where the first of them sits, under the Merge of their passthrough
    rows.  That equals merging each replay on its own: a passthrough
    row's source never has a key or body row, so the Merge of the sets
    with the rows written in is the Merge of the sets with the merged
    rows written in.  As in ``Analyzer.replay``, a tuple the join
    merged last is not merged again."""
    #: id(entry) -> [the join so far, the tuple merged last]
    joined: dict[int, list] = {}
    for stmt_id, item in frame:
        if stmt_id is None:
            entry, passthrough = item
            prev = joined.get(id(entry))
            if prev is None:
                joined[id(entry)] = [passthrough, passthrough]
            elif prev[1] is not passthrough:
                prev[0] = merge_rows(prev[0], passthrough)
                prev[1] = passthrough
    merged: dict[int, PointsToSet] = {}
    for stmt_id, item in frame:
        if stmt_id is None:
            entry = item[0]
            prev = joined.pop(id(entry), None)
            if prev is None:
                continue  # this entry already replayed
            records = replayed_records(entry, prev[0])
        else:
            records = ((stmt_id, item),)
        for sid, recorded in records:
            prev = merged.get(sid)
            merged[sid] = recorded if prev is None else prev.merge(recorded)
    return merged


def _replay_body(analyzer, entry: _SliceEntry, passthrough: tuple) -> None:
    """Account a hit for the stored body run: its records go to the
    innermost capture frame, or, outside every frame, to the run's
    per-entry passthrough join, which ``Analyzer.flush_replays`` merges
    into ``point_info`` once per entry; its warnings are re-emitted
    now.  Together that is exactly what a fresh body run under this
    input would have contributed.  The body's symbolic names need no
    replay: a name is context-free within its function, so the run that
    stored the entry registered it already, and a splice takes its
    envs from the old run."""
    analyzer.replay(entry, passthrough)
    for message in entry.warnings:
        analyzer.warn(message)


def _process_ordinary_sliced(
    analyzer, child: IGNode, func_input: PointsToSet, split: CallSplit
) -> PointsToSet | None:
    # The mapped input is the key: map carried the key rows only.
    key = tuple(func_input.rows.items())
    passthrough = split.rows
    stats = analyzer.memo_stats
    stats.slice_lookups += 1
    stats.slice_key_pairs += pair_count(key)
    stats.slice_passthrough_pairs += (
        split.pairs + analyzer.inherited_passthrough_pairs
    )
    obs.gauge("analysis.slice_roots", split.slice_roots)
    # The table is global per function, not per node: a non-opaque
    # callee's analysis is a deterministic function of (function,
    # slice) — node identity only matters through recursion and
    # function-pointer discovery, which opacity excludes — so distinct
    # call sites with the same slice share one entry.
    table = analyzer._slice_memo.setdefault(child.func, {})
    entry = table.get(key)
    if entry is None:
        bank = analyzer.seed_bank
        if bank is not None:
            entry = bank.materialize(child.func, key, func_input.table)
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
        stats.hits += 1
        stats.slice_hits += 1
        stats.note(child.func, True)
        obs.count("analysis.slice_memo_hits")
        _replay_body(analyzer, entry, passthrough)
        child.stored_input = func_input
        child.stored_output = entry.output
        return entry.output
    stats.misses += 1
    stats.note(child.func, False)
    # The body walks the key rows only.  Its records reach the run as an
    # entry's do: the frame becomes the entry's record stream, and the
    # miss replays it under its passthrough like a hit.
    inherited = analyzer.inherited_passthrough_pairs
    analyzer.inherited_passthrough_pairs = inherited + split.pairs
    child.in_progress = True
    records: list = []
    warnings: list = []
    analyzer._record_frames.append(records)
    analyzer._warn_frames.append(warnings)
    try:
        func_output = analyzer.analyze_body(child, func_input)
    finally:
        analyzer._record_frames.pop()
        analyzer._warn_frames.pop()
        analyzer.inherited_passthrough_pairs = inherited
        child.in_progress = False
    # Pre-merge the record stream per statement: replaying the merged
    # set is equivalent (the record fold into point_info is associative
    # — D survives only when definite in every operand) and caps the
    # stream at one record per statement instead of one per (statement,
    # context) of the whole sub-tree, which is what a hit pays to
    # replay.
    entry = _SliceEntry(
        func_output, passthrough, list(merge_frame(records).items()), warnings
    )
    analyzer.replay(entry, passthrough)
    if child.kind is RECURSIVE_NODE or child.pending_inputs:
        # Defensive: non-opaque closures contain no indirect call
        # sites, so ordinary nodes cannot be discovered recursive
        # mid-body — but fall through safely if it ever happens, on
        # every row.
        whole = func_input.copy()
        whole.own_rows().update(passthrough)
        func_output = _process_recursive(analyzer, child, whole)
        if func_output is None:
            return None
        result = func_output.copy()
        rows = result.own_rows()
        for sid, _ in passthrough:
            del rows[sid]
        return result
    child.stored_input = func_input
    child.stored_output = func_output
    if func_output is not None:
        table = analyzer._slice_memo.setdefault(child.func, {})
        table.pop(key, None)
        table[key] = entry
        while len(table) > MEMO_CAPACITY:
            table.pop(next(iter(table)))  # least recently used
            stats.evictions += 1
    return func_output


def _process_ordinary(
    analyzer,
    child: IGNode,
    func_input: PointsToSet,
    split: CallSplit | None = None,
) -> PointsToSet | None:
    if split is not None:
        return _process_ordinary_sliced(analyzer, child, func_input, split)
    key, memo_hit, memo_output = _memo_lookup(analyzer, child, func_input)
    if memo_hit:
        child.stored_input = func_input
        child.stored_output = memo_output
        return memo_output
    child.in_progress = True
    try:
        func_output = analyzer.analyze_body(child, func_input)
    finally:
        child.in_progress = False
    if child.kind is RECURSIVE_NODE or child.pending_inputs:
        # The body analysis discovered (via a function pointer) that
        # this node is recursive: switch to the fixed-point protocol.
        return _process_recursive(analyzer, child, func_input)
    child.stored_input = func_input
    child.stored_output = func_output
    _memo_store(analyzer, child, key, func_output)
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
    finally:
        child.in_progress = False
        if obs.active():
            obs.count("analysis.fixpoint_rounds")
            obs.count("analysis.fixpoint_iterations", iterations)
            obs.count(f"analysis.fixpoint_iterations.{child.func}", iterations)
            fixpoint_span.annotate(iterations=iterations)
        fixpoint_context.__exit__(None, None, None)
    # Reset the stored input to this call's input for future
    # memoization (the last line of Figure 4's recursive case).
    child.stored_input = func_input
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
