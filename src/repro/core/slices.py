"""Reachable-slice memo keys for call memoization.

The whole-input memo of Figure 4 misses whenever *anything* in the
mapped input differs — including caller state the callee can never
observe.  Map restricts the input to formals-reachable targets, but
the paper's map also carries every global and heap root into the
callee (they are visible everywhere), so the redundant context is
exactly the global state the callee's transitive call closure never
references.  This module splits, per call, the caller's set into the
*key* — the rows that can influence the body's analysis — and the
*passthrough* complement that provably flows through the body
unchanged.  The split works on whole bitset rows (a source id with its
definite and possible masks): the criterion looks only at a row's
source root, so no row is ever cut in two.

The split comes first, on the caller's set (:func:`split_input`), and
the passthrough rows then stay where they are: map carries the key
rows only, so the mapped input *is* the memo key; the memo stores each
entry's output without passthrough rows, so a hit's output crosses
back as it is; and unmap updates only the roots that crossed, moving
the caller's passthrough rows to where a whole-input unmap would have
re-added them (row order feeds later keys and symbolic names).  A
miss walks the body on the key rows alone, so a miss and a hit differ
only in whether the entry was just computed: what the body records
goes to the miss's capture frame, and the closed frame replays like a
hit's entry, with the call's passthrough rows written into each
recorded set (see ``interproc``).

The passthrough side is computed here, not in map or unmap: the split
lists the passthrough rows as runs between the crossing roots, each
with the row-less roots its targets meet, and the caller's
:class:`~repro.core.pointsto.RowCensus` keeps the last split.  Unmap
hands that census on to its output whenever no row had to move (the
rows it would move already end the caller's set in order, as after any
call with no caller statement since), so a run of calls (a ``sweep1``
body) builds one census, calls that repeat (``probe(); probe();``)
split it once, and no call walks the passthrough roots it does not
carry: map places each run with one step, and unmap leaves the rows
where they are.

Slicing the caller's set gives the split of the whole mapped input:
the actuals' targets stand for the formals, and a caller root a
symbolic name stands for is reachable from the actuals exactly when
the name is reachable from the formals — up to a formal named like a
global, whose symbolic names that global's share, which is why the
call boundary seeds such a global too.

The passthrough invariant (those pairs flow through the body
unchanged, with the same definiteness) holds because a passthrough
root is required to be:

* a GLOBAL root the closure never references by name and that is not
  reachable from any slice root — so no l-location in the body can
  name it and no statement can kill, weaken, or extend it;
* a root *all* of whose targets are visible-everywhere (*inert*) —
  a sub-call that carries it maps each pair to itself: no symbolic
  name is created for any of its targets, so it can never become
  multi-represented and have its definite pairs degraded, and the
  sub-call's unmap performs a strong kill-and-re-add of the identical
  pairs (globals are non-heap, uniquely represented visible roots).
  A caller's passthrough root stays passthrough for every callee in
  its closure, so sub-calls leave it out as well.

Roots failing either condition stay in the *key*: heap (weak-updated
at call boundaries), anything referenced by or reachable from the
closure, and any root with an invisible (param/symbolic) target —
such pairs can change a sub-callee's symbolic multiplicities and
thereby the output, so two calls may only share a memo entry when
they agree on them.

Functions are *opaque* — their nodes keep whole-input keys — when the
static closure cannot bound what the body observes: indirect call
sites anywhere in the closure (the invocation graph completes
dynamically), the function participating in a call cycle (its node
re-enters), or unmodeled externals under the ``havoc`` policy (havoc
smashes everything reachable, including passthrough candidates).

The key is *order-sensitive*: a tuple of the mapped key rows,
``(source id, (definite mask, possible mask))``, in row order — one to
one with the tuple of the key's pairs in iteration order, for ids of
one location table.  Symbolic-name assignment during sub-call mapping
is first-reaching-path-wins over that order, so a hit must guarantee
the body would have seen the slice in the same order; the inert
passthrough rows, wherever they sit, never compete for a symbolic name
and cannot perturb it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable

from repro.core.externals import (
    CONTENT_COPIERS,
    HEAP_RETURNING_EXTERNALS,
    PURE_EXTERNALS,
    RETURN_FIRST_ARG,
)
from repro.core.locations import (
    GLOBAL_KIND,
    HEAP,
    HEAP_KIND,
    AbsLoc,
    LocKind,
    LocTable,
    global_loc,
)
from repro.core.pointsto import PointsToSet, RowCensus, iter_bits
from repro.simple.ir import (
    AddrOf,
    BasicKind,
    BasicStmt,
    Ref,
    SimpleProgram,
    SReturn,
)

#: Target kinds the slice closure does not follow.
_NOT_TRAVERSED = (LocKind.NULL, LocKind.FUNCTION)

_GLOBAL_OR_HEAP = (GLOBAL_KIND, HEAP_KIND)

#: Externals with effect models confined to argument-reachable state
#: and the heap — both always inside the slice.
MODELED_EXTERNALS = (
    PURE_EXTERNALS
    | HEAP_RETURNING_EXTERNALS
    | RETURN_FIRST_ARG
    | CONTENT_COPIERS
)


@dataclass(frozen=True)
class FunctionSummary:
    """Static facts about a function's transitive direct-call closure."""

    #: Global variable names referenced (read, written, or
    #: address-taken) anywhere in the closure.
    referenced_globals: frozenset[str]
    #: Whether slice keying must be disabled for this function.
    opaque: bool


@dataclass
class _Scan:
    """Single-function scan results (pre-closure)."""

    callees: frozenset[str]
    globals_referenced: frozenset[str]
    has_indirect: bool
    unmodeled_externals: frozenset[str]


def _scan_function(fn, program: SimpleProgram) -> _Scan:
    callees: set[str] = set()
    globals_referenced: set[str] = set()
    has_indirect = False
    unmodeled: set[str] = set()
    shadowed = set(fn.local_types) | {name for name, _ in fn.params}
    global_names = program.global_types.keys()

    def note_name(name: str) -> None:
        if name in global_names and name not in shadowed:
            globals_referenced.add(name)

    def note_operand(operand) -> None:
        if isinstance(operand, Ref):
            note_name(operand.base)
        elif isinstance(operand, AddrOf):
            note_name(operand.ref.base)

    for stmt in fn.iter_stmts():
        if isinstance(stmt, SReturn):
            if stmt.value is not None:
                note_operand(stmt.value)
            continue
        if not isinstance(stmt, BasicStmt):
            continue
        if stmt.lhs is not None:
            note_operand(stmt.lhs)
        if stmt.rvalue is not None:
            note_operand(stmt.rvalue)
        for operand in stmt.operands:
            note_operand(operand)
        for arg in stmt.args:
            note_operand(arg)
        if stmt.kind is BasicKind.CALL:
            if stmt.callee_ptr is not None:
                has_indirect = True
                note_name(stmt.callee_ptr)
            elif stmt.callee in program.functions:
                callees.add(stmt.callee)
            elif stmt.callee is not None and stmt.callee not in MODELED_EXTERNALS:
                unmodeled.add(stmt.callee)
    return _Scan(
        frozenset(callees),
        frozenset(globals_referenced),
        has_indirect,
        frozenset(unmodeled),
    )


def scan_program(program: SimpleProgram) -> dict[str, _Scan]:
    """Every function's single-function scan, made once per program."""
    if program.scans is None:
        program.scans = {
            name: _scan_function(fn, program)
            for name, fn in program.functions.items()
        }
    return program.scans


def closure_members(deps, *funcs: str) -> set[str]:
    """``funcs`` and every function reachable from them over ``deps``,
    a mapping from a function to the functions it calls."""
    closure: set[str] = set()
    stack = list(funcs)
    while stack:
        member = stack.pop()
        if member not in closure:
            closure.add(member)
            stack.extend(deps.get(member, ()))
    return closure


class ClosureSummaries:
    """Per-function direct-call closures and closure summaries of one
    program.  A summary is made on first request (a run or an update
    only asks for the functions it calls or edits) and kept; a closure
    is walked again on each request, so a deep call chain does not keep
    one set per function alive."""

    def __init__(self, program: SimpleProgram, options):
        self.program = program
        self._havoc = options.unknown_external_policy == "havoc"
        self._deps: dict[str, frozenset[str]] | None = None
        self._summaries: dict[str, FunctionSummary] = {}

    def _callees(self) -> dict[str, frozenset[str]]:
        if self._deps is None:
            self._deps = {
                name: scan.callees
                for name, scan in scan_program(self.program).items()
            }
        return self._deps

    def closure(self, func: str) -> set[str]:
        """``func`` and every function it reaches by direct calls."""
        return closure_members(self._callees(), func)

    def summary(self, func: str) -> FunctionSummary:
        found = self._summaries.get(func)
        if found is not None:
            return found
        scans = scan_program(self.program)
        callees = self._callees()
        reach = closure_members(callees, *callees[func])
        # A function its own callees reach is on a call cycle: its node
        # re-enters.
        opaque = func in reach
        reach.add(func)
        referenced: set[str] = set()
        for member in reach:
            scan = scans[member]
            referenced |= scan.globals_referenced
            opaque = opaque or scan.has_indirect or (
                self._havoc and bool(scan.unmodeled_externals)
            )
        found = self._summaries[func] = FunctionSummary(
            frozenset(referenced), opaque
        )
        return found


def carrying_order(sids: list[int], rows: dict, locs) -> list[int]:
    """One root's source ids in the order map carries their rows: the
    order :func:`~repro.core.mapping._definite_first` first adds each
    source in (definite rows first, then by name)."""
    if len(sids) == 1:
        return sids
    return sorted(sids, key=lambda sid: (not rows[sid][0], locs[sid].text))


def met_roots(rows: dict, table: LocTable, sids, mask: int, rowed) -> list[int]:
    """The ids of the GLOBAL and HEAP roots of the targets in ``mask``
    that are not in ``rowed`` (the roots with rows), in the
    order the rows ``sids``' pairs first meet them when sorted as map
    walks them: definite pairs first, then by source and target
    name."""
    roots = table.roots
    locs = table.locs
    if not mask & (mask - 1):  # one target
        trid = roots[mask.bit_length() - 1]
        if trid in rowed or locs[trid].kind not in _GLOBAL_OR_HEAP:
            return []
        return [trid]
    fresh: dict[int, int] = {}
    while mask:
        low = mask & -mask
        mask ^= low
        trid = roots[low.bit_length() - 1]
        if trid not in rowed and locs[trid].kind in _GLOBAL_OR_HEAP:
            fresh[trid] = fresh.get(trid, 0) | low
    if len(fresh) > 1:
        bits = 0
        for found in fresh.values():
            bits |= found
        pairs = []
        for sid in sids:
            defs, poss = rows[sid]
            text = locs[sid].text
            for tid in iter_bits(defs & bits):
                pairs.append((False, text, locs[tid].text, tid))
            for tid in iter_bits(poss & bits):
                pairs.append((True, text, locs[tid].text, tid))
        pairs.sort()
        return list(dict.fromkeys(roots[pair[3]] for pair in pairs))
    return list(fresh)


class CallSplit:
    """The passthrough side of one call's split, in the caller's name
    space: the rows map leaves out, the memo entry leaves out of its
    output, and unmap leaves in the caller's set.

    ``roots`` maps each passthrough root id to its source ids, in the
    caller's census order and, within a root, in the order map would
    have carried them (definite rows first, then by name).  ``rows``
    holds those rows as ``(source id, (definite mask, possible
    mask))`` in the same order; ``pairs`` counts their pairs.
    ``slice_roots`` is the size of the slice, counting the seeds the
    location table has never seen.  ``keys`` lists the visible roots
    that cross, in census order, and ``runs`` each run of passthrough
    roots between them as ``(i, source ids, met)``: the run sits just
    before ``keys[i]`` (``i == len(keys)``: after them all), and
    ``met`` holds the row-less GLOBAL and HEAP roots (``AbsLoc`` ->
    root id) its targets first meet, so map places the passthrough and
    meets its targets with one step per run; both are None when
    nothing passes through.  ``bindings``, when the split was taken at
    a call site, is the ``(pending, missing)`` pair of
    :func:`~repro.core.mapping.formal_bindings` its seeds came from,
    which map reuses for the formals."""

    __slots__ = (
        "roots", "rows", "pairs", "slice_roots", "keys", "runs", "bindings"
    )

    def __init__(
        self,
        roots: dict[int, list[int]],
        rows: tuple,
        pairs: int,
        slice_roots: int,
        keys: list[int] | None = None,
        runs: list[tuple[int, tuple, dict]] | None = None,
    ) -> None:
        self.roots = roots
        self.rows = rows
        self.pairs = pairs
        self.slice_roots = slice_roots
        self.keys = keys
        self.runs = runs
        self.bindings: tuple[list, list] | None = None


def split_input(
    pts: PointsToSet,
    seeds: Iterable[AbsLoc],
    referenced_globals: frozenset[str],
) -> CallSplit:
    """Split ``pts`` into key and passthrough before a call's map.

    The slice is the closure over ``pts``'s points-to relation, by
    root, of ``seeds`` (the roots of the actuals' targets at a call
    site; the formals on a callee-side set), the closure-referenced
    globals and the heap.  The passthrough is every inert root (a
    GLOBAL root whose targets are all visible everywhere) outside it;
    everything else is key.  Every row lies wholly on one side: the
    criterion only looks at the source root.  The per-root target
    unions and inert verdicts come from the set's cached
    :class:`~repro.core.pointsto.RowCensus`, which keeps the last
    split with its seeds and referenced globals: a call on a census the
    call before it split the same way (``probe(); probe();``, the
    census handed on by unmap) reuses it.
    """
    census = pts.census()
    seeds = tuple(seeds)
    last = census.split
    if (
        last is None
        or last[1] is not referenced_globals
        or last[0] != seeds
    ):
        last = census.split = (
            seeds,
            referenced_globals,
            _split(pts, census, seeds, referenced_globals),
        )
    return CallSplit(*last[2])


def _split(
    pts: PointsToSet,
    census: RowCensus,
    seeds: tuple[AbsLoc, ...],
    referenced_globals: frozenset[str],
) -> tuple:
    """:func:`split_input`'s work: the arguments of its
    :class:`CallSplit`."""
    table = pts.table
    reach = census.reach
    roots = table.roots
    locs = table.locs

    # A seed the table has never seen has no rows and no referrer, so
    # it only counts.
    stack: list[int] = []
    unseen: set[AbsLoc] = set()
    for seed in chain(
        seeds, map(global_loc, referenced_globals), (HEAP,)
    ):
        if seed.kind in _NOT_TRAVERSED:
            continue
        rid = table.get_id(seed)
        if rid is None:
            unseen.add(seed)
        else:
            stack.append(rid)

    # Transitive closure over the points-to relation, by root id.
    slice_roots: set[int] = set()
    while stack:
        rid = stack.pop()
        if rid in slice_roots:
            continue
        slice_roots.add(rid)
        for tid in iter_bits(reach.get(rid, 0)):
            target_root = roots[tid]
            if target_root not in slice_roots and not (
                locs[target_root].kind in _NOT_TRAVERSED
            ):
                stack.append(target_root)

    count = len(slice_roots) + len(unseen)
    passing = census.inert - slice_roots
    if not passing:
        return {}, (), 0, count, None, None
    src = pts.rows
    groups = census.groups
    split_roots: dict[int, list[int]] = {}
    keys: list[int] = []
    runs: list[tuple[int, tuple, dict]] = []
    run: list[int] = []
    meets: dict[int, None] = {}
    # Target bits an earlier run met already: map makes that run's
    # roots visible first.
    settled = 0
    passthrough: list[tuple] = []
    pairs = 0
    for rid in census.visible:
        if rid not in passing:
            if run:
                met = {locs[trid]: trid for trid in meets}
                runs.append((len(keys), tuple(run), met))
                run = []
                meets = {}
            keys.append(rid)
            continue
        sids = groups[rid]
        if len(sids) > 1:
            sids = carrying_order(sids, src, locs)
        split_roots[rid] = sids
        run.extend(sids)
        for sid in sids:
            row = src[sid]
            passthrough.append((sid, row))
            pairs += (row[0] | row[1]).bit_count()
        mask = reach[rid] & ~settled
        if not mask:
            continue
        settled |= mask
        if mask & (mask - 1):
            for trid in met_roots(src, table, sids, mask, groups):
                meets[trid] = None
            continue
        trid = roots[mask.bit_length() - 1]  # one new target
        if trid not in groups and locs[trid].kind in _GLOBAL_OR_HEAP:
            meets[trid] = None
    if run:
        runs.append((len(keys), tuple(run), {locs[t]: t for t in meets}))
    rows = tuple(passthrough)
    return split_roots, rows, pairs, count, keys, runs
