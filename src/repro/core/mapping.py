"""Mapping and unmapping of points-to information across calls
(Section 4.1 of the paper).

**Map** prepares the callee's input set from the caller's set at the
call-site: formals inherit the relationships of the corresponding
actuals, globals keep their names, and every location *invisible* to
the callee (caller locals, caller parameters, the caller's own
symbolic names) is represented by a *symbolic name* generated from the
callee-side access path that reaches it (``1_x`` for the target of
formal ``x``, ``2_x`` for the target of ``1_x``, ...).

The correspondence ``symbolic name -> invisible variables`` is the
*map information*; it is deposited on the invocation-graph node and
drives **unmap**, which rewrites the callee's output back into the
caller's name space.  Key properties implemented here:

* an invisible variable is represented by at most one symbolic name
  (Property 3.1) — the first reaching access path wins, and definite
  relationships are mapped before possible ones (the paper's accuracy
  heuristic, illustrated by its x/y/a/b example);
* a symbolic name may represent several invisible variables; any
  relationship involving such a name is weakened to possible, and the
  unmap performs only weak updates through it;
* strong updates on unmap are performed exactly for caller locations
  whose representative stands for them alone (globals, and symbolic
  names with a single represented invisible);
* a sliceable call's passthrough rows (``core/slices.py``) never
  cross: map leaves them out and unmap moves them, unchanged, to where
  the paper's strong update of those globals would have re-added them.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.frontend.ctypes import StructType
from repro.core import provenance
from repro.core.env import FuncEnv
from repro.core.lvalues import r_locations
from repro.core.locations import (
    FUNCTION_KIND,
    GLOBAL_KIND,
    HEAP_KIND,
    LOCAL_KIND,
    NULL,
    PARAM_KIND,
    RETVAL_KIND,
    AbsLoc,
    retval_loc,
    symbolic_name,
)
from repro.core.pointsto import (
    D,
    P,
    Definiteness,
    PointsToSet,
    iter_bits,
    row_triples,
)
from repro.core.slices import CallSplit
from repro.simple.ir import Const, Operand, Ref, SimpleFunction

_GLOBAL_OR_HEAP = (GLOBAL_KIND, HEAP_KIND)
_LOCAL_OR_PARAM = (LOCAL_KIND, PARAM_KIND)


@dataclass
class MapInfo:
    """Per-call mapping information (stored on the IG node)."""

    #: callee symbolic root -> caller roots it represents (ordered).
    to_caller: dict[AbsLoc, tuple[AbsLoc, ...]] = field(default_factory=dict)
    #: caller invisible root -> its unique callee symbolic root.
    from_caller: dict[AbsLoc, AbsLoc] = field(default_factory=dict)
    #: visible caller roots (globals, heap) whose relationships were
    #: carried into the callee — these are owned by the callee output.
    #: Insertion-ordered: unmap updates in this order, which decides
    #: the caller output's row order.  A value is the root's
    #: ``LocTable`` id, or None where map did not look it up.  The
    #: call's passthrough roots (``core/slices.py``) are not here:
    #: they never cross.
    visible_roots: dict[AbsLoc, int | None] = field(default_factory=dict)
    #: Where the caller's passthrough rows re-enter its set: a position
    #: in ``visible_roots`` -> the source ids that unmap moves to the
    #: end just before it updates that entry, in order.  A whole-input
    #: map would have placed those roots there, and its unmap would
    #: have re-added their unchanged rows at that point.
    passthrough: dict[int, list[int]] = field(default_factory=dict)

    def representative_count(self, callee_root: AbsLoc) -> int:
        return len(self.to_caller.get(callee_root, ()))

    def describe(self) -> str:
        lines = []
        for sym, roots in sorted(
            self.to_caller.items(), key=lambda item: str(item[0])
        ):
            names = ", ".join(str(r) for r in sorted(roots, key=str))
            lines.append(f"({sym}, {{{names}}})")
        return " ".join(lines)


def _definite_first(pairs):
    return sorted(
        pairs, key=lambda item: (item[2] is not D, item[0].text, item[1].text)
    )


def formal_bindings(
    caller_env: FuncEnv,
    callee_env: FuncEnv,
    input_set: PointsToSet,
    args: tuple[Operand, ...],
    callee_fn: SimpleFunction,
) -> tuple[list, list]:
    """What the actuals bind the callee's pointer-holding formals to:
    ``(pending, missing)``, where ``pending`` holds a ``(formal
    location, caller-side target, definiteness)`` entry per target of
    an actual, in formal order, and ``missing`` a ``(formal location,
    type)`` entry per formal left without an actual.  The targets'
    roots seed the call's slice (``core/slices.py``)."""
    pending: list[tuple[AbsLoc, AbsLoc, Definiteness]] = []
    missing: list = []
    for index, (name, ctype) in enumerate(callee_fn.params):
        if not ctype.involves_pointers():
            continue
        formal_loc = callee_env.var_loc(name)
        if index >= len(args):
            missing.append((formal_loc, ctype))
            continue
        arg = args[index]
        if isinstance(ctype, StructType):
            pending.extend(
                _struct_formal_entries(
                    caller_env, callee_env, input_set, formal_loc, ctype, arg
                )
            )
        else:
            for target, definiteness in r_locations(
                arg, input_set, caller_env
            ):
                pending.append((formal_loc, target, definiteness))
    return pending, missing


def _struct_formal_entries(
    caller_env: FuncEnv,
    callee_env: FuncEnv,
    input_set: PointsToSet,
    formal_loc: AbsLoc,
    ctype: StructType,
    arg: Operand,
) -> list[tuple[AbsLoc, AbsLoc, Definiteness]]:
    if isinstance(arg, Const):
        return []
    assert isinstance(arg, Ref) and arg.is_plain_var
    obj = caller_env.var_loc(arg.base)
    entries = []
    prov = provenance.CURRENT
    for path in callee_env.pointer_paths(ctype):
        src = obj.extend(path)
        targets = input_set.targets_of(src)
        if prov.enabled:
            prov.add_support(src, targets)
        for target, definiteness in targets:
            entries.append((formal_loc.extend(path), target, definiteness))
    return entries


class _Mapper:
    def __init__(
        self,
        caller_env: FuncEnv,
        callee_env: FuncEnv,
        input_set: PointsToSet,
        split: CallSplit | None = None,
    ):
        self.caller_env = caller_env
        self.callee_env = callee_env
        self.input_set = input_set
        self.info = MapInfo()
        self.result = PointsToSet(input_set.table)
        #: The result's row dict, written in place by :meth:`_copy_rows`.
        self.rows = self.result.own_rows()
        self.queue: deque[AbsLoc] = deque()
        self.processed: set[AbsLoc] = set()
        #: The caller's rows by source root (cached on ``input_set``,
        #: where unmap finds it again).
        self.census = input_set.census()
        #: Target ids whose meeting is known to be a no-op: their root
        #: is already a visible root, or is not a GLOBAL/HEAP one.
        self.settled = 0
        #: Ids of roots known to be in ``info.visible_roots``, or to
        #: stay out of it as passthrough (the formals' visible targets
        #: are left out: re-adding a root that is already there leaves
        #: the order as it is).
        self.visible_ids: set[int] = set()
        #: The passthrough roots, which map leaves out: root id ->
        #: source ids in carrying order (``CallSplit.roots``).
        self.passing = split.roots if split is not None else {}
        #: The formals' bindings the split was seeded from, if any.
        self.bindings = split.bindings if split is not None else None

    # -- symbolic assignment --------------------------------------------

    def map_target(self, target: AbsLoc, via: AbsLoc) -> AbsLoc:
        """Rewrite a caller-side target location into the callee's name
        space, creating a symbolic name when it is invisible.  ``via``
        is the callee-side source location that reaches it (it
        determines the symbolic name's level and suffix)."""
        if target.is_visible_everywhere:
            self.enqueue(target.root(), visible=True)
            return target
        root = target.root()
        existing = self.info.from_caller.get(root)
        if existing is None:
            name = symbolic_name(via)
            root_type = self.caller_env.type_of_loc(root)
            existing = self.callee_env.register_symbolic(name, root_type)
            self.info.from_caller[root] = existing
            represented = self.info.to_caller.get(existing, ())
            if root not in represented:
                self.info.to_caller[existing] = represented + (root,)
            if provenance.CURRENT.enabled:
                provenance.CURRENT.record_symbolic(existing, root, via)
            self.enqueue(root)
        return existing.extend(target.path)

    def enqueue(self, root: AbsLoc, visible: bool = False) -> None:
        if visible:
            if root.kind not in _GLOBAL_OR_HEAP:
                return
            visible_roots = self.info.visible_roots
            if root not in visible_roots:
                if (
                    self.passing
                    and self.input_set.table.get_id(root) in self.passing
                ):
                    return  # a passthrough root never crosses
                visible_roots[root] = None
        if root not in self.processed:
            self.queue.append(root)

    # -- the walk ------------------------------------------------------------

    def map_formals(
        self, callee_fn: SimpleFunction, args: tuple[Operand, ...]
    ) -> None:
        """Map formal parameters from the actuals.

        All pending (formal location, target, definiteness) entries are
        collected first and mapped *definite-first across all formals*
        — the paper's accuracy heuristic: when ``x`` possibly points to
        ``{a, b}`` and ``y`` definitely points to ``b``, ``b`` must map
        via ``y``'s symbolic name, keeping ``y``'s pair definite.  A
        split taken at the call site hands over the bindings it was
        seeded from, so the actuals are resolved once.
        """
        bindings = self.bindings
        if bindings is None:
            bindings = formal_bindings(
                self.caller_env,
                self.callee_env,
                self.input_set,
                args,
                callee_fn,
            )
        pending, missing = bindings
        for formal_loc, ctype in missing:
            # Missing argument (variadic mismatch): NULL, possibly.
            for path in self.callee_env.pointer_paths(ctype):
                self.result.add(formal_loc.extend(path), NULL, P)
                if provenance.CURRENT.enabled:
                    provenance.CURRENT.record(
                        formal_loc.extend(path),
                        NULL,
                        False,
                        provenance.RULE_MAP_FORMAL,
                    )
        prov = provenance.CURRENT
        if prov.enabled:
            call_extra = prov.call_extra()
        for formal_loc, target, definiteness in _definite_first(pending):
            mapped = self.map_target(target, via=formal_loc)
            self.result.add(formal_loc, mapped, definiteness)
            if prov.enabled:
                # Parents: the caller facts that justified the actual's
                # R-locations (collected as support while map_formals
                # resolved the argument expressions).
                prov.record(
                    formal_loc,
                    mapped,
                    definiteness is D,
                    provenance.RULE_MAP_FORMAL,
                    prov.support_parents(target),
                    extra=call_extra,
                )

    def drain(self) -> None:
        """Map the rows of every root the walk reaches, in the order of
        the paper's walk: the roots the formals' targets queued, then
        every GLOBAL/HEAP root with rows (map carries all of them into
        every callee but the passthrough ones) in row order, then the
        invisible roots met on the way.  Every GLOBAL/HEAP root with
        rows enters ``MapInfo.visible_roots`` before the walk starts,
        or, if passthrough, ``MapInfo.passthrough`` at the position it
        would have taken.  Runs of inert roots are copied whole by
        :meth:`_copy_rows`, every other root maps pair by pair
        (:meth:`_map_pairs`)."""
        census = self.census
        visible = census.visible
        locs = self.input_set.table.locs
        visible_roots = self.info.visible_roots
        passing = self.passing
        if passing:
            moves = self.info.passthrough
            for rid in visible:
                sids = passing.get(rid)
                if sids is None:
                    visible_roots[locs[rid]] = rid
                else:
                    moves.setdefault(len(visible_roots), []).extend(sids)
        else:
            visible_roots.update(zip(map(locs.__getitem__, visible), visible))
        self.visible_ids.update(visible)
        queue = self.queue
        for _ in range(len(queue)):
            self._walk(queue.popleft())
        processed = self.processed
        inert = () if provenance.CURRENT.enabled else census.inert
        run: list[int] = []
        for rid in visible:
            if processed and locs[rid] in processed:
                continue  # a formal's target: mapped above
            if rid in inert:
                run.append(rid)
                continue
            if run:
                self._copy_rows(run)
                run = []
            self._map_pairs(locs[rid], census.groups[rid])
        if run:
            self._copy_rows(run)
        while queue:
            root = queue.popleft()
            # Every GLOBAL/HEAP root with rows is mapped by now; the
            # others have nothing to map.
            if not root.is_visible_everywhere:
                self._walk(root)

    def _walk(self, root: AbsLoc) -> None:
        """Map the rows of a queued root (once)."""
        if root in self.processed:
            return
        self.processed.add(root)
        rid = self.input_set.table.get_id(root)
        sids = self.census.groups.get(rid)
        if not sids:
            return
        if rid in self.census.inert and not provenance.CURRENT.enabled:
            self._copy_rows([rid])
        else:
            self._map_pairs(root, sids)

    def _map_pairs(self, root: AbsLoc, sids: list[int]) -> None:
        """Map one root's rows pair by pair, definite pairs first."""
        prov = provenance.CURRENT
        if prov.enabled:
            latest = prov.latest
            call_extra = prov.call_extra()
        table = self.input_set.table
        rows = self.input_set.rows
        pairs = row_triples([(sid, rows[sid]) for sid in sids], table)
        for src, tgt, definiteness in _definite_first(pairs):
            if root.is_visible_everywhere:
                mapped_src = src
            else:
                rep = self.info.from_caller.get(root)
                if rep is None:
                    continue  # unreachable root (defensive)
                mapped_src = rep.extend(src.path)
            mapped_tgt = self.map_target(tgt, via=mapped_src)
            self.result.add(mapped_src, mapped_tgt, definiteness)
            if prov.enabled:
                parent = latest.get((src, tgt))
                prov.record(
                    mapped_src,
                    mapped_tgt,
                    definiteness is D,
                    provenance.RULE_MAP_REACH,
                    (parent,) if parent is not None else (),
                    call_extra,
                )

    def _copy_rows(self, run: list[int]) -> None:
        """Carry a run of inert roots (GLOBAL roots whose targets are
        all visible everywhere), in walk order: every pair maps to
        itself, so each root's rows are copied whole — in the order
        :func:`_definite_first` would first add each source (definite
        rows, then possible ones, each by name).  The only other effect
        of mapping those pairs is meeting the GLOBAL/HEAP target roots
        the walk has not made visible yet, in the same sorted pair
        order.  Such a root has no rows (every root with rows is
        visible already), so it needs no queue entry.  A passthrough
        root's rows stay out, but its targets are met all the same, so
        ``visible_roots`` keeps the order a whole-input map gives it."""
        table = self.input_set.table
        roots = table.roots
        locs = table.locs
        rows = self.input_set.rows
        out = self.rows
        census = self.census
        groups = census.groups
        reach = census.reach
        passing = self.passing
        visible_roots = self.info.visible_roots
        visible_ids = self.visible_ids
        settled = self.settled
        for rid in run:
            sids = passing.get(rid)  # a passthrough root's: not copied
            if sids is None:
                sids = groups[rid]
                if len(sids) == 1:
                    sid = sids[0]
                    out[sid] = rows[sid]
                else:
                    sids = sorted(
                        sids,
                        key=lambda sid: (not rows[sid][0], locs[sid].text),
                    )
                    for sid in sids:
                        out[sid] = rows[sid]
            pending = reach[rid] & ~settled
            if not pending:
                continue
            settled |= pending
            if not pending & (pending - 1):  # one new target
                trid = roots[pending.bit_length() - 1]
                if (
                    trid not in visible_ids
                    and locs[trid].kind in _GLOBAL_OR_HEAP
                ):
                    visible_roots[locs[trid]] = trid
                    visible_ids.add(trid)
                continue
            fresh: dict[int, int] = {}
            while pending:
                low = pending & -pending
                pending ^= low
                trid = roots[low.bit_length() - 1]
                if (
                    trid not in visible_ids
                    and locs[trid].kind in _GLOBAL_OR_HEAP
                ):
                    fresh[trid] = fresh.get(trid, 0) | low
            if not fresh:
                continue
            order = self._first_met(sids, fresh) if len(fresh) > 1 else fresh
            for trid in order:
                visible_roots[locs[trid]] = trid
            visible_ids.update(fresh)
        self.settled = settled

    def _first_met(self, sids: list[int], fresh: dict[int, int]) -> list[int]:
        """The root ids ``fresh`` (root id -> its target bits) in the
        order the rows ``sids``' pairs, sorted as by
        :func:`_definite_first`, first meet them."""
        rows = self.input_set.rows
        table = self.input_set.table
        roots = table.roots
        locs = table.locs
        mask = 0
        for bits in fresh.values():
            mask |= bits
        pairs = []
        for sid in sids:
            defs, poss = rows[sid]
            text = locs[sid].text
            for tid in iter_bits(defs & mask):
                pairs.append((False, text, locs[tid].text, tid))
            for tid in iter_bits(poss & mask):
                pairs.append((True, text, locs[tid].text, tid))
        pairs.sort()
        return list(dict.fromkeys(roots[pair[3]] for pair in pairs))

    def degrade_multi_represented(self) -> None:
        """Weaken definite pairs through multi-represented symbolic names."""
        if all(len(roots) < 2 for roots in self.info.to_caller.values()):
            return
        for src, tgt, definiteness in list(self.result.triples()):
            if definiteness is not D:
                continue
            if (
                self.info.representative_count(src.root()) > 1
                or self.info.representative_count(tgt.root()) > 1
            ):
                self.result.discard(src, tgt)
                self.result.add(src, tgt, P)
                if provenance.CURRENT.enabled:
                    provenance.CURRENT.record_weaken(
                        src, tgt, rule=provenance.RULE_MAP_DEGRADE
                    )


def map_call(
    caller_env: FuncEnv,
    callee_env: FuncEnv,
    input_set: PointsToSet,
    args: tuple[Operand, ...],
    callee_fn: SimpleFunction,
    split: CallSplit | None = None,
) -> tuple[PointsToSet, MapInfo]:
    """Compute the callee's input points-to set and the map information
    for one call (the *map* box of Figure 3).  The rows of ``split``'s
    passthrough roots, taken on ``input_set`` before the call, stay
    out: the input holds the call's key rows only."""
    mapper = _Mapper(caller_env, callee_env, input_set, split)
    mapper.map_formals(callee_fn, args)
    mapper.drain()
    mapper.degrade_multi_represented()
    from repro import obs

    if obs.active():
        obs.count("analysis.map_calls")
        obs.count("analysis.mapped_relationships", len(mapper.result))
        obs.count("analysis.boundary_rows", len(mapper.rows))
    return mapper.result, mapper.info


# ---------------------------------------------------------------------------
# Unmap
# ---------------------------------------------------------------------------

#: Root kinds of the callee's own frame: their rows die with the call
#: (the retval root's rows become the return value).
_FRAME_KINDS = (LOCAL_KIND, PARAM_KIND, RETVAL_KIND, FUNCTION_KIND)


@dataclass
class UnmapResult:
    """Caller-side set after the call plus the unmapped return value."""

    output: PointsToSet
    #: (retval sub-path, caller-side target, definiteness) entries.
    returns: list[tuple[tuple[str, ...], AbsLoc, Definiteness]]
    #: Locations of callee locals that escaped (dangling pointers).
    dangling: list[AbsLoc] = field(default_factory=list)
    #: Provenance support for the return-value assignment: (caller
    #: target, id of the callee retval fact).  Empty when recording is
    #: off.
    return_support: list[tuple[AbsLoc, int]] = field(default_factory=list)


def unmap_call(
    caller_input: PointsToSet,
    callee_output: PointsToSet,
    map_info: MapInfo,
    callee_fn: SimpleFunction,
) -> UnmapResult:
    """Rewrite the callee's output back into the caller's name space
    (the *unmap* box of Figure 3)."""
    dangling: list[AbsLoc] = []

    def unrewrite(loc: AbsLoc) -> list[tuple[AbsLoc, bool]]:
        """Caller-side images of a callee location, flagged unique."""
        if loc.is_visible_everywhere:
            return [(loc, True)]
        root = loc.root()
        caller_roots = map_info.to_caller.get(root)
        if caller_roots is None:
            if root.kind in _LOCAL_OR_PARAM:
                dangling.append(loc)
            return []
        unique = len(caller_roots) == 1
        return [(r.extend(loc.path), unique) for r in caller_roots]

    returns: list[tuple[tuple[str, ...], AbsLoc, Definiteness]] = []
    ret_root = retval_loc(callee_fn.name)
    prov = provenance.CURRENT
    recording = prov.enabled
    return_support: list[tuple[AbsLoc, int]] = []
    table = callee_output.table
    assert caller_input.table is table
    roots = table.roots
    locs = table.locs
    get_id = table.get_id
    outside = ~table.vis

    # Group the callee's pairs by the caller root they describe, keyed
    # by the root's id (or by the root itself while the table has no
    # id for it: a caller variable only an actual's ``&`` named).  Each
    # entry carries the provenance parents of the callee fact behind it
    # (the empty tuple when recording is off).  An inert row — a GLOBAL
    # source whose targets are all visible everywhere — names the same
    # pairs on both sides, so it is carried whole as a ``(source id,
    # row)`` entry; a GLOBAL root is never heap nor represented by a
    # symbolic name, so such entries only ever meet the strong update.
    new_rels: dict = {}
    #: Keys of the roots with a translated (pair) entry.
    translated: set = set()
    for item in callee_output.rows.items():
        sid, row = item
        kind = locs[sid].kind
        if (
            kind is GLOBAL_KIND
            and not recording
            and not (row[0] | row[1]) & outside
        ):
            rid = roots[sid]
            group = new_rels.get(rid)
            if group is None:
                new_rels[rid] = [item]
            else:
                group.append(item)
            continue
        src_root = locs[roots[sid]]
        if kind in _FRAME_KINDS and src_root is not ret_root:
            continue  # the callee's frame dies with the call
        for src, tgt, definiteness in row_triples((item,), table):
            if src_root is ret_root:
                callee_rid = (
                    prov.latest.get((src, tgt)) if recording else None
                )
                for caller_tgt, unique in unrewrite(tgt):
                    ret_def = definiteness if unique else P
                    returns.append((src.path, caller_tgt, ret_def))
                    if callee_rid is not None:
                        return_support.append((caller_tgt, callee_rid))
                continue
            sources = unrewrite(src)
            if not sources:
                continue
            targets = unrewrite(tgt)
            if not targets:
                continue  # dangling target: the relationship cannot be named
            parents: tuple[int, ...] = ()
            if recording:
                callee_rid = prov.latest.get((src, tgt))
                if callee_rid is not None:
                    parents = (callee_rid,)
            for caller_src, s_unique in sources:
                caller_root = caller_src.root()
                key = get_id(caller_root)
                if key is None:
                    key = caller_root
                group = new_rels.setdefault(key, [])
                translated.add(key)
                for caller_tgt, t_unique in targets:
                    out_def = definiteness if (s_unique and t_unique) else P
                    group.append((caller_src, caller_tgt, out_def, parents))

    # The represented caller roots, keyed as above before any id is
    # allocated below: strong unless a symbolic name stands for several.
    represented: dict = {}
    for caller_roots in map_info.to_caller.values():
        strong = len(caller_roots) == 1
        for root in caller_roots:
            key = get_id(root)
            represented[root if key is None else key] = strong

    # Build the caller's output in one dict: a strong update deletes the
    # root's caller rows and appends the callee's, so they re-enter at
    # the end; a weak one weakens them in place.  Roots update in this
    # order — represented roots, visible roots, then the roots only the
    # callee's output names — which decides the order of the appended
    # rows.
    result = caller_input.copy()
    out = result.own_rows()
    groups = caller_input.census().groups
    # ``kill_row`` counts the killed pairs for provenance.
    kill = result.kill_row if recording else out.__delitem__

    if recording:
        # Weakenings of surviving caller pairs during weak updates are
        # part of the unmap step, not of any assignment rule; and unmap
        # records belong to the call statement, not to the last
        # statement the callee's body happened to process.
        saved_weaken_rule = prov.weaken_rule
        prov.weaken_rule = provenance.RULE_UNMAP_WEAKEN
        prov.restore_caller_stmt()
        call_extra = prov.call_extra()
        prov_record = prov.record
        rule_strong = provenance.RULE_UNMAP_STRONG
        rule_weak = provenance.RULE_UNMAP_WEAK

    def update(key, strong: bool) -> None:
        entries = new_rels.pop(key, ())
        sids = groups.get(key, ())
        if not strong:
            for sid in sids:
                result.weaken_row(sid)
            for caller_src, caller_tgt, _, parents in entries:
                result.add(caller_src, caller_tgt, P)
                if recording:
                    prov_record(
                        caller_src,
                        caller_tgt,
                        False,
                        rule_weak,
                        parents,
                        call_extra,
                    )
            return
        for sid in sids:
            kill(sid)
        if key not in translated:
            # Carried rows only: their sources are this root's, all
            # deleted above, so each re-enters at the end.
            out.update(entries)
            return
        for entry in entries:
            if len(entry) == 2:
                result.add_row(entry[0], *entry[1])
                continue
            caller_src, caller_tgt, definiteness, parents = entry
            result.add(caller_src, caller_tgt, definiteness)
            if recording:
                prov_record(
                    caller_src,
                    caller_tgt,
                    definiteness is D,
                    rule_strong,
                    parents,
                    call_extra,
                )

    for key, strong in represented.items():
        update(key, strong)
    # The caller's passthrough rows, unchanged by the call, move to the
    # end where a whole-input unmap would have re-added them.
    moves = map_info.passthrough
    visible_roots = map_info.visible_roots
    for index, (root, rid) in enumerate(visible_roots.items()):
        if moves and index in moves:
            for sid in moves[index]:
                out[sid] = out.pop(sid)
        if rid is None:
            rid = get_id(root)
        # A root with nothing to kill, weaken or add costs this test.
        if rid in groups or rid in new_rels:
            update(rid, root.kind is not HEAP_KIND)
    for sid in moves.get(len(visible_roots), ()):
        out[sid] = out.pop(sid)
    # Roots the callee created relationships for without inheriting
    # any (e.g. the heap on its first allocation, or a global the
    # caller never initialized): nothing to kill, everything to add.
    for key in list(new_rels):
        root = key if isinstance(key, AbsLoc) else locs[key]
        update(key, root.kind is not HEAP_KIND)
    if recording:
        prov.weaken_rule = saved_weaken_rule

    from repro import obs

    if obs.active():
        obs.count("analysis.unmap_calls")
        obs.count("analysis.unmapped_relationships", len(callee_output))
        obs.count("analysis.boundary_rows", len(callee_output.rows))
        obs.count("analysis.dangling_locations", len(dangling))
    return UnmapResult(result, returns, dangling, return_support)
