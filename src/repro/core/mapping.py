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
  names with a single represented invisible).
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
    #: Insertion-ordered (values unused): unmap updates in this order,
    #: which decides the caller output's row order.
    visible_roots: dict[AbsLoc, None] = field(default_factory=dict)

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


class _Mapper:
    def __init__(
        self,
        caller_env: FuncEnv,
        callee_env: FuncEnv,
        input_set: PointsToSet,
    ):
        self.caller_env = caller_env
        self.callee_env = callee_env
        self.input_set = input_set
        self.info = MapInfo()
        self.result = PointsToSet()
        self.queue: deque[AbsLoc] = deque()
        self.processed: set[AbsLoc] = set()
        #: Target ids whose enqueue is known to be a no-op: their root
        #: is already a visible root, or is not a GLOBAL/HEAP one.
        self.settled = 0
        # Index the caller's rows by source root for the reachability
        # walk (row order within a root).
        self.by_root: dict[AbsLoc, list[int]] = {}
        table = input_set.table
        loc_of = table.loc_of
        roots = table.roots
        by_root = self.by_root
        for sid in input_set.rows:
            by_root.setdefault(loc_of(roots[sid]), []).append(sid)

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
            self.info.visible_roots[root] = None
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
        via ``y``'s symbolic name, keeping ``y``'s pair definite.
        """
        pending: list[tuple[AbsLoc, AbsLoc, Definiteness]] = []
        formals = callee_fn.params
        for index, (name, ctype) in enumerate(formals):
            if not ctype.involves_pointers():
                continue
            formal_loc = self.callee_env.var_loc(name)
            if index >= len(args):
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
                continue
            arg = args[index]
            if isinstance(ctype, StructType):
                pending.extend(self._struct_formal_entries(formal_loc, ctype, arg))
            else:
                for target, definiteness in r_locations(
                    arg, self.input_set, self.caller_env
                ):
                    pending.append((formal_loc, target, definiteness))
        prov = provenance.CURRENT
        if prov.enabled:
            call_extra = prov.call_extra()
        for formal_loc, target, definiteness in _definite_first(
            [(f, t, d) for f, t, d in pending]
        ):
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

    def _struct_formal_entries(
        self, formal_loc: AbsLoc, ctype: StructType, arg: Operand
    ) -> list[tuple[AbsLoc, AbsLoc, Definiteness]]:
        if isinstance(arg, Const):
            return []
        assert isinstance(arg, Ref) and arg.is_plain_var
        obj = self.caller_env.var_loc(arg.base)
        entries = []
        prov = provenance.CURRENT
        for path in self.callee_env.pointer_paths(ctype):
            src = obj.extend(path)
            targets = self.input_set.targets_of(src)
            if prov.enabled:
                prov.add_support(src, targets)
            for target, definiteness in targets:
                entries.append((formal_loc.extend(path), target, definiteness))
        return entries

    def map_visible_roots(self) -> None:
        for root in list(self.by_root):
            if root.kind in _GLOBAL_OR_HEAP:
                self.enqueue(root, visible=True)

    def drain(self) -> None:
        prov = provenance.CURRENT
        if prov.enabled:
            latest = prov.latest
            call_extra = prov.call_extra()
            prov_record = prov.record
            rule_reach = provenance.RULE_MAP_REACH
        rows = self.input_set.rows
        table = self.input_set.table
        outside = ~table.vis
        while self.queue:
            root = self.queue.popleft()
            if root in self.processed:
                continue
            self.processed.add(root)
            sids = self.by_root.get(root)
            if not sids:
                continue
            if root.kind is GLOBAL_KIND and not prov.enabled:
                targets = 0
                for sid in sids:
                    row = rows[sid]
                    targets |= row[0] | row[1]
                if not targets & outside:
                    self._copy_rows(sids, targets)
                    continue
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
                    prov_record(
                        mapped_src,
                        mapped_tgt,
                        definiteness is D,
                        rule_reach,
                        (parent,) if parent is not None else (),
                        call_extra,
                    )

    def _copy_rows(self, sids: list[int], targets: int) -> None:
        """Carry a GLOBAL root whose targets (``targets``, the union of
        its rows) are all visible everywhere: every pair maps to
        itself, so its rows are copied whole — in the order
        :func:`_definite_first` would first add each source (definite
        rows, then possible ones, each by name).  The only other effect
        of mapping those pairs is enqueueing the target roots the walk
        has not met yet, in the same sorted pair order."""
        rows = self.input_set.rows
        table = self.input_set.table
        loc_of = table.loc_of
        if len(sids) > 1:
            sids = sorted(
                sids, key=lambda sid: (not rows[sid][0], loc_of(sid).text)
            )
        for sid in sids:
            self.result.add_row(sid, *rows[sid])
        pending = targets & ~self.settled
        if not pending:
            return
        roots = table.roots
        visible_roots = self.info.visible_roots
        fresh: dict[AbsLoc, int] = {}
        for tid in iter_bits(pending):
            troot = loc_of(roots[tid])
            if (
                troot.kind in _GLOBAL_OR_HEAP
                and troot not in visible_roots
            ):
                fresh[troot] = fresh.get(troot, 0) | 1 << tid
            else:
                self.settled |= 1 << tid
        order = list(fresh)
        if len(order) > 1:
            mask = 0
            for bits in fresh.values():
                mask |= bits
            picked = [
                (sid, (rows[sid][0] & mask, rows[sid][1] & mask))
                for sid in sids
                if (rows[sid][0] | rows[sid][1]) & mask
            ]
            order = [
                tgt.root()
                for _, tgt, _ in _definite_first(row_triples(picked, table))
            ]
        for troot in order:
            self.enqueue(troot, visible=True)

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
) -> tuple[PointsToSet, MapInfo]:
    """Compute the callee's input points-to set and the map information
    for one call (the *map* box of Figure 3)."""
    mapper = _Mapper(caller_env, callee_env, input_set)
    mapper.map_formals(callee_fn, args)
    mapper.map_visible_roots()
    mapper.drain()
    mapper.degrade_multi_represented()
    from repro import obs

    if obs.active():
        obs.count("analysis.map_calls")
        obs.count("analysis.mapped_relationships", len(mapper.result))
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

    # Group the callee's pairs by the caller root they describe.  Each
    # entry carries the provenance parents of the callee fact behind it
    # (the empty tuple when recording is off).  A GLOBAL row whose
    # targets are all visible everywhere names the same pairs on both
    # sides, so it is carried whole as a ``(source id, row)`` entry; a
    # GLOBAL root is never heap nor represented by a symbolic name, so
    # such entries only ever meet the strong update.
    new_rels: dict[AbsLoc, list] = {}
    returns: list[tuple[tuple[str, ...], AbsLoc, Definiteness]] = []
    ret_root = retval_loc(callee_fn.name)
    prov = provenance.CURRENT
    recording = prov.enabled
    return_support: list[tuple[AbsLoc, int]] = []
    table = callee_output.table
    assert caller_input.table is table
    loc_of = table.loc_of
    roots = table.roots
    outside = ~table.vis

    for sid, row in callee_output.rows.items():
        src_root = loc_of(roots[sid])
        if src_root.kind in _FRAME_KINDS and src_root != ret_root:
            continue  # the callee's frame dies with the call
        if (
            src_root.kind is GLOBAL_KIND
            and not recording
            and not (row[0] | row[1]) & outside
        ):
            new_rels.setdefault(src_root, []).append((sid, row))
            continue
        for src, tgt, definiteness in row_triples(((sid, row),), table):
            if src_root == ret_root:
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
                for caller_tgt, t_unique in targets:
                    out_def = definiteness if (s_unique and t_unique) else P
                    new_rels.setdefault(caller_src.root(), []).append(
                        (caller_src, caller_tgt, out_def, parents)
                    )

    # Decide, per represented caller root, between strong and weak update.
    result = caller_input.copy()
    # Snapshot the caller's rows grouped by root id once: the update
    # loop below only ever kills/weakens sources the caller already
    # had (its own additions are grouped under the root being updated),
    # so one pass replaces a per-root scan over all sources.
    sources_by_root: dict[int, list[int]] = {}
    for sid in result.rows:
        sources_by_root.setdefault(roots[sid], []).append(sid)
    updates: dict[AbsLoc, bool] = {}  # caller root -> strong?
    for sym_root, caller_roots in map_info.to_caller.items():
        strong = len(caller_roots) == 1
        for root in caller_roots:
            updates[root] = updates.get(root, True) and strong
    for root in map_info.visible_roots:
        updates[root] = not root.is_heap and updates.get(root, True)
    for root in new_rels:
        # Roots the callee created relationships for without inheriting
        # any (e.g. the heap on its first allocation, or a global the
        # caller never initialized): nothing to kill, everything to add.
        if root not in updates:
            updates[root] = not root.is_heap

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
    for root, strong in updates.items():
        if root.represents_multiple():
            strong = False
        root_sources = sources_by_root.get(table.get_id(root), ())
        if strong:
            for sid in root_sources:
                result.kill_row(sid)
            for entry in new_rels.get(root, ()):
                if len(entry) == 2:
                    # Killed above if the caller had it: re-inserted at
                    # the end, exactly where kill + add would put it.
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
        else:
            for sid in root_sources:
                result.weaken_row(sid)
            for caller_src, caller_tgt, _, parents in new_rels.get(root, ()):
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
    if recording:
        prov.weaken_rule = saved_weaken_rule

    from repro import obs

    if obs.active():
        obs.count("analysis.unmap_calls")
        obs.count("analysis.unmapped_relationships", len(callee_output))
        obs.count("analysis.dangling_locations", len(dangling))
    return UnmapResult(result, returns, dangling, return_support)
