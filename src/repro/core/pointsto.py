"""The points-to set abstraction (Definitions 3.1-3.3 of the paper).

A :class:`PointsToSet` holds triples ``(x, y, D|P)`` over abstract
stack locations.  It provides the operations the flow rules of Figure 1
and the interprocedural rules of Figure 4 need: gen, kill,
definite-to-possible weakening, merge (the paper's ``Merge``), subset
testing, and queries for L-/R-location computation.

Representation notes (see DESIGN.md, "Performance architecture"):

* relations are per-source integer bitsets over the dense ids of a
  :class:`~repro.core.locations.LocTable`;
* sets are *copy-on-write*: ``copy()`` is O(1) and shares the
  underlying rows; the first mutation of either sharer detaches;
* ``fingerprint()`` returns a cached canonical, hashable key of the
  whole set (used by the interprocedural memo tables); it is
  invalidated only by mutations that actually change the set.
"""

from __future__ import annotations

import enum
import zlib
from typing import Iterable, Iterator, Sequence

from repro.core import provenance
from repro.core.locations import (
    GLOBAL_KIND,
    HEAP_KIND,
    AbsLoc,
    LocTable,
    active_table,
)


class Definiteness(enum.Enum):
    """Whether a relationship holds on all paths (D) or some (P)."""

    D = "D"
    P = "P"

    def __str__(self) -> str:
        return self.value

    # Identity hashes (Enum's default) vary with address-space layout,
    # which makes sets of (src, tgt, definiteness) triples iterate in
    # a run-dependent order; a content hash keeps anything derived
    # from that order (slice-memo keys, stats) reproducible.
    def __hash__(self) -> int:
        return zlib.crc32(self.value.encode())

    def both(self, other: "Definiteness") -> "Definiteness":
        """``d1 ∧ d2`` of Table 1: definite only if both are."""
        if self is Definiteness.D and other is Definiteness.D:
            return Definiteness.D
        return Definiteness.P


D = Definiteness.D
P = Definiteness.P


def iter_bits(mask: int):
    """Yield the set bit indexes of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class RowCensus:
    """A set's rows grouped by source root, as the call boundary reads
    them (map, the slice split and unmap; see ``core/mapping.py``).

    ``groups`` maps each root id to its source ids in row order, and is
    itself ordered by each root's first row; ``reach`` maps a root id
    to the union of its rows' target masks.  ``visible`` lists the
    GLOBAL and HEAP roots in ``groups`` order: map carries them into
    every callee.  ``inert`` holds the GLOBAL roots whose targets all
    lie in ``LocTable.vis``: every name they hold survives a call
    boundary, so map and unmap move their rows whole, and the slice
    split draws a call's passthrough roots from them.  ``split``
    keeps the last split taken on the census (``core/slices.py``)
    with its seeds.  A census is read-only but for that memo;
    :meth:`PointsToSet.census` caches one per set, and unmap hands the
    caller's on to its output when no row had to move (see
    ``core/mapping.py``)."""

    __slots__ = ("groups", "reach", "visible", "inert", "split")

    def __init__(
        self,
        groups: dict[int, list[int]],
        reach: dict[int, int],
        visible: list[int],
        inert: set[int],
    ) -> None:
        self.groups = groups
        self.reach = reach
        self.visible = visible
        self.inert = inert
        self.split: tuple | None = None

    @classmethod
    def of_rows(
        cls, rows: dict[int, tuple[int, int]], table: LocTable
    ) -> "RowCensus":
        """The census of ``rows`` (ids of ``table``), in one pass."""
        roots = table.roots
        groups: dict[int, list[int]] = {}
        reach: dict[int, int] = {}
        for sid, (defs, poss) in rows.items():
            rid = roots[sid]
            sids = groups.get(rid)
            if sids is None:
                groups[rid] = [sid]
                reach[rid] = defs | poss
            else:
                sids.append(sid)
                reach[rid] |= defs | poss
        locs = table.locs
        outside = ~table.vis
        visible: list[int] = []
        inert: set[int] = set()
        for rid, mask in reach.items():
            kind = locs[rid].kind
            if kind is GLOBAL_KIND:
                visible.append(rid)
                if not mask & outside:
                    inert.add(rid)
            elif kind is HEAP_KIND:
                visible.append(rid)
        return cls(groups, reach, visible, inert)


class PointsToSet:
    """A mutable set of points-to triples.

    Locations are mapped to dense integer ids by a
    :class:`repro.core.locations.LocTable` (the analysis run's, see
    :func:`~repro.core.locations.install_table`); the relation is
    stored as ``{source id: (definite mask, possible mask)}`` with one
    bit per target id.  The two masks are disjoint and no row is
    empty.  Union is ``|``, subset is a masked-complement test, and
    ``copy()`` shares the row dict copy-on-write — the rows themselves
    are immutable int pairs, so a detach copies only the dict, never
    the masks.

    Row order is source *insertion* order (first pair naming the
    source); within a row, targets iterate in ascending id order.

    The class maintains the invariant that a definite relationship is
    its source's only relationship (a location that definitely points
    to ``y`` on all paths cannot point to anything else), which
    :meth:`check_invariants` verifies for the test suite.
    """

    __slots__ = ("_table", "_src", "_shared", "_fingerprint", "_census")

    def __init__(self, table: LocTable | None = None) -> None:
        self._table = table if table is not None else active_table()
        #: source id -> (definite mask, possible mask); no empty rows.
        self._src: dict[int, tuple[int, int]] = {}
        #: True while ``_src`` may be shared with another instance.
        self._shared = False
        #: Cached canonical key (sorted rows).
        self._fingerprint: tuple | None = None
        #: Cached :class:`RowCensus` of ``_src``.
        self._census: RowCensus | None = None

    @property
    def table(self) -> LocTable:
        """The location table whose ids this set's bitsets use."""
        return self._table

    @property
    def rows(self) -> dict[int, tuple[int, int]]:
        """The rows ``{source id: (definite mask, possible mask)}`` in
        row order.  Read-only: mutate through the methods below."""
        return self._src

    # -- construction / copy-on-write ----------------------------------

    @classmethod
    def from_triples(
        cls, triples: Iterable[tuple[AbsLoc, AbsLoc, Definiteness]]
    ) -> "PointsToSet":
        result = cls()
        for src, tgt, definiteness in triples:
            result.add(src, tgt, definiteness)
        return result

    @classmethod
    def from_indexed_rows(
        cls,
        table: LocTable,
        locs: Sequence[AbsLoc],
        rows: Sequence[tuple[int, list[int], list[int]]],
        members: Iterable[int],
        ids: list[int],
        decoded: list,
    ) -> "PointsToSet":
        """The set of rows ``rows[r]`` for ``r`` in ``members``, each
        ``(si, [D targets], [P targets])`` of indexes into ``locs``:
        what :meth:`from_triples` over ``table`` makes of their sorted
        triples (the same rows, row order and table ids).  ``ids[i]``
        caches the table id of ``locs[i]`` (-1 until needed) and
        ``decoded[r]`` row ``r`` (None until needed), so the sets built
        with one pair of lists look each location up once and share
        their rows."""
        result = cls(table)
        for r in members:
            row = decoded[r]
            if row is None:
                si, defs_at, poss_at = rows[r]
                # Ids in the sorted triples' order: source, targets.
                for i in (si, *sorted(defs_at + poss_at)):
                    if ids[i] < 0:
                        ids[i] = table.id_of(locs[i])
                row = decoded[r] = ids[si], (
                    sum(1 << ids[i] for i in defs_at),
                    sum(1 << ids[i] for i in poss_at),
                )
            result._src[row[0]] = row[1]
        return result

    def copy(self) -> "PointsToSet":
        result = object.__new__(PointsToSet)
        result._table = self._table
        result._src = self._src
        result._shared = True
        result._fingerprint = self._fingerprint
        result._census = None
        self._shared = True
        return result

    def _own(self) -> None:
        """Prepare for a mutation that will change the set."""
        if self._shared:
            self._src = dict(self._src)
            self._shared = False
        self._fingerprint = None
        self._census = None

    def own_rows(self) -> dict[int, tuple[int, int]]:
        """The row dict, detached from any sharer, for a builder that
        writes whole rows in place: each row non-empty, with disjoint
        masks, and a definite row holding one target.  The cached
        fingerprint and census are dropped.  The dict stays this set's
        until the set is next copied; :meth:`add` and the other
        mutators keep writing to it."""
        self._own()
        return self._src

    def census(self) -> RowCensus:
        """The rows grouped by source root, cached on this set (not on
        its copies) until the next mutation or :meth:`forget_census`."""
        census = self._census
        if census is None:
            census = self._census = RowCensus.of_rows(self._src, self._table)
        return census

    def adopt_census(self, census: RowCensus) -> None:
        """Cache ``census`` as this set's: the caller vouches that it
        equals the census of this set's rows."""
        self._census = census

    def forget_census(self) -> None:
        """Drop the cached census: the call boundary does once it is
        done with a set, so sets that outlive the call (recorded
        program-point sets, stored inputs) do not keep one alive."""
        self._census = None

    def _rows_of(self, other: "PointsToSet") -> dict[int, tuple[int, int]]:
        """``other``'s rows with ids of *this* set's table.

        Sets built under different tables (an incremental update splices
        fresh rows beside old ones) hold incomparable ids; rebinding the
        other operand's triples into this table makes ``==``,
        :meth:`is_subset_of` and :meth:`merge` exact across tables.
        Callers take ``other._src`` directly when the tables agree."""
        id_of = self._table.id_of
        loc_of = other._table.loc_of
        rows: dict[int, tuple[int, int]] = {}
        for sid, (defs, poss) in other._src.items():
            new_defs = new_poss = 0
            for tid in iter_bits(defs):
                new_defs |= 1 << id_of(loc_of(tid))
            for tid in iter_bits(poss):
                new_poss |= 1 << id_of(loc_of(tid))
            rows[id_of(loc_of(sid))] = (new_defs, new_poss)
        return rows

    def fingerprint(self) -> tuple:
        """A canonical, hashable key of the full set (cached): sorted
        ``(source id, masks)`` rows.

        Two sets bound to the same table have equal fingerprints iff
        they are equal (same pairs, same definiteness) — the key is
        exact, not a hash, so memo tables keyed on it can never collide
        unsoundly.  Ids are per table, so fingerprints are only
        comparable between sets of one table.
        """
        fingerprint = self._fingerprint
        if fingerprint is None:
            fingerprint = tuple(sorted(self._src.items()))
            self._fingerprint = fingerprint
        return fingerprint

    # -- mutation -------------------------------------------------------

    def add(self, src: AbsLoc, tgt: AbsLoc, definiteness: Definiteness) -> None:
        """Insert a triple; an existing P never upgrades silently to D
        unless added as D explicitly."""
        table = self._table
        sid = table.id_of(src)
        bit = 1 << table.id_of(tgt)
        row = self._src.get(sid)
        if row is not None:
            defs, poss = row
            if bit & defs or (bit & poss and definiteness is not D):
                return  # already present, at least as strong
        else:
            defs = poss = 0
        self._own()
        if definiteness is D:
            self._src[sid] = (defs | bit, poss & ~bit)
        else:
            self._src[sid] = (defs, poss | bit)

    def add_row(self, sid: int, defs: int, poss: int) -> None:
        """Add every pair of one row at once: exactly :meth:`add` of
        each pair in turn (a D pair upgrades a P one, a P pair never
        weakens a D one), and a new source goes to the end."""
        self._own()
        row = self._src.get(sid)
        if row is None:
            self._src[sid] = (defs, poss)
        else:
            defs |= row[0]
            self._src[sid] = (defs, (row[1] | poss) & ~defs)

    def with_rows(
        self, new_rows: Sequence[tuple[int, tuple[int, int]]]
    ) -> "PointsToSet":
        """A copy with ``new_rows`` added as by :meth:`add_row`, in
        order: a new source goes to the end."""
        result = self.copy()
        result._own()
        rows = result._src
        for sid, (defs, poss) in new_rows:
            row = rows.get(sid)
            if row is None:
                rows[sid] = (defs, poss)
            else:
                defs |= row[0]
                rows[sid] = (defs, (row[1] | poss) & ~defs)
        return result

    def discard(self, src: AbsLoc, tgt: AbsLoc) -> None:
        table = self._table
        sid = table.id_of(src)
        row = self._src.get(sid)
        if row is None:
            return
        bit = 1 << table.id_of(tgt)
        defs, poss = row
        if not (bit & (defs | poss)):
            return
        self._own()
        defs &= ~bit
        poss &= ~bit
        if defs or poss:
            self._src[sid] = (defs, poss)
        else:
            del self._src[sid]

    def kill_source(self, src: AbsLoc) -> None:
        """Remove every relationship whose source is ``src``."""
        self.kill_row(self._table.id_of(src))

    def kill_row(self, sid: int) -> None:
        """:meth:`kill_source` by source id."""
        row = self._src.get(sid)
        if row is None:
            return
        self._own()
        del self._src[sid]
        prov = provenance.CURRENT
        if prov.enabled:
            prov.kill_count += (row[0] | row[1]).bit_count()

    def weaken_source(self, src: AbsLoc) -> None:
        """Turn every definite relationship from ``src`` into possible."""
        self.weaken_row(self._table.id_of(src))

    def weaken_row(self, sid: int) -> None:
        """:meth:`weaken_source` by source id."""
        row = self._src.get(sid)
        if row is None or not row[0]:
            return
        self._own()
        defs, poss = row
        self._src[sid] = (0, defs | poss)
        if provenance.CURRENT.enabled:
            loc_of = self._table.loc_of
            src = loc_of(sid)
            for tid in iter_bits(defs):
                provenance.CURRENT.record_weaken(src, loc_of(tid))

    # -- queries --------------------------------------------------------

    def targets_of(self, src: AbsLoc) -> list[tuple[AbsLoc, Definiteness]]:
        row = self._src.get(self._table.id_of(src))
        if row is None:
            return []
        loc_of = self._table.loc_of
        result = [(loc_of(tid), D) for tid in iter_bits(row[0])]
        result.extend((loc_of(tid), P) for tid in iter_bits(row[1]))
        return result

    def sources_of(self, tgt: AbsLoc) -> list[tuple[AbsLoc, Definiteness]]:
        bit = 1 << self._table.id_of(tgt)
        loc_of = self._table.loc_of
        result = []
        for sid, (defs, poss) in self._src.items():
            if bit & defs:
                result.append((loc_of(sid), D))
            elif bit & poss:
                result.append((loc_of(sid), P))
        return result

    def has(self, src: AbsLoc, tgt: AbsLoc) -> bool:
        row = self._src.get(self._table.id_of(src))
        if row is None:
            return False
        return bool((1 << self._table.id_of(tgt)) & (row[0] | row[1]))

    def definiteness(self, src: AbsLoc, tgt: AbsLoc) -> Definiteness | None:
        row = self._src.get(self._table.id_of(src))
        if row is None:
            return None
        bit = 1 << self._table.id_of(tgt)
        if bit & row[0]:
            return D
        if bit & row[1]:
            return P
        return None

    def sources(self) -> Iterator[AbsLoc]:
        loc_of = self._table.loc_of
        return (loc_of(sid) for sid in self._src)

    def triples(self) -> Iterator[tuple[AbsLoc, AbsLoc, Definiteness]]:
        return row_triples(self._src.items(), self._table)

    def locations(self) -> set[AbsLoc]:
        return locations_of((self,))

    def __len__(self) -> int:
        return sum(
            (defs | poss).bit_count() for defs, poss in self._src.values()
        )

    def __bool__(self) -> bool:
        return bool(self._src)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PointsToSet):
            return NotImplemented
        self_src = self._src
        other_src = other._src
        if self_src is other_src:
            return True
        if other._table is not self._table:
            other_src = self._rows_of(other)
        return self_src == other_src

    def __hash__(self):  # mutable; identity hashing would mislead
        raise TypeError("PointsToSet is unhashable")

    def __str__(self) -> str:
        items = sorted(
            f"({src},{tgt},{d})" for src, tgt, d in self.triples()
        )
        return "{" + " ".join(items) + "}"

    __repr__ = __str__

    def is_subset_of(self, other: "PointsToSet") -> bool:
        """Containment in the precision order (D below P): every triple
        of ``self`` must be covered by a triple of ``other`` that is at
        most as precise.  ``(x,y,P)`` is *not* covered by ``(x,y,D)`` —
        an analysis result computed under a definite assumption may not
        be reused for a merely-possible input."""
        other_src = other._src
        if self._src is other_src:
            return True
        if other._table is not self._table:
            other_src = self._rows_of(other)
        if len(self._src) > len(other_src):
            return False
        for sid, (defs, poss) in self._src.items():
            row = other_src.get(sid)
            if row is None:
                return False
            # A D pair is covered by D or P; a P pair only by P.
            if defs & ~(row[0] | row[1]) or poss & ~row[1]:
                return False
        return True

    # -- the Merge operation ------------------------------------------------

    def merge(self, other: "PointsToSet") -> "PointsToSet":
        """The paper's ``Merge``: union of relationships; a pair is
        definite only when definite in *both* inputs (a relationship
        present in only one branch holds on some paths only)."""
        self_src = self._src
        other_src = other._src
        if other._table is not self._table:
            other_src = self._rows_of(other)
        if self_src is other_src or self_src == other_src:
            # Merge of equal sets is the set itself (d ∧ d = d).
            return self.copy()
        result = object.__new__(PointsToSet)
        result._table = self._table
        result._shared = False
        result._fingerprint = None
        result._census = None
        rows = result._src = {}
        # Pairs demoted from definite to possible are the d1 ∧ d2
        # weakening of Table 1; provenance records each one.
        recording = provenance.CURRENT.enabled
        other_get = other_src.get
        for sid, mine in self_src.items():
            row = other_get(sid)
            if row == mine:
                rows[sid] = mine  # d ∧ d = d: nothing to weaken
                continue
            defs, poss = mine
            if row is None:
                union_defs = 0
                union_poss = defs | poss
            else:
                union_defs = defs & row[0]
                union_poss = (defs | poss | row[0] | row[1]) & ~union_defs
            rows[sid] = (union_defs, union_poss)
            if recording and defs & ~union_defs:
                self._record_merge_weakens(sid, defs & ~union_defs)
        for sid, (defs, poss) in other_src.items():
            if sid not in self_src:
                rows[sid] = (0, defs | poss)
                if recording and defs:
                    self._record_merge_weakens(sid, defs)
            elif recording and defs & ~rows[sid][0]:
                self._record_merge_weakens(sid, defs & ~rows[sid][0])
        return result

    def _record_merge_weakens(self, sid: int, mask: int) -> None:
        loc_of = self._table.loc_of
        src = loc_of(sid)
        weaken = provenance.CURRENT.record_weaken
        for tid in iter_bits(mask):
            weaken(src, loc_of(tid), rule=provenance.RULE_MERGE_WEAKEN)

    # -- invariants (used by property tests) ---------------------------------

    def check_invariants(self) -> list[str]:
        """Return a list of violated-invariant descriptions (empty = ok)."""
        problems = []
        loc_of = self._table.loc_of
        for sid, (defs, poss) in self._src.items():
            src = loc_of(sid)
            definite = [loc_of(tid) for tid in iter_bits(defs)]
            if len(definite) > 1:
                problems.append(
                    f"{src} definitely points to both "
                    f"{definite[0]} and {definite[1]}"
                )
            if definite:
                for tid in iter_bits(poss):
                    problems.append(
                        f"{src} definitely points to {definite[0]} but "
                        f"also possibly to {loc_of(tid)}"
                    )
            for tgt in definite:
                if src.represents_multiple() or tgt.represents_multiple():
                    problems.append(
                        f"definite relationship on multi-location "
                        f"abstract location: ({src},{tgt},D)"
                    )
            if src.is_null:
                for tid in iter_bits(defs | poss):
                    problems.append(
                        f"NULL used as a points-to source: "
                        f"{src}->{loc_of(tid)}"
                    )
        return problems


def row_triples(
    rows: Iterable[tuple[int, tuple[int, int]]], table: LocTable
) -> Iterator[tuple[AbsLoc, AbsLoc, Definiteness]]:
    """The triples of ``rows`` (ids of ``table``) in row order; within
    a row, definite targets then possible ones, each by ascending id."""
    loc_of = table.loc_of
    for sid, (defs, poss) in rows:
        src = loc_of(sid)
        for tid in iter_bits(defs):
            yield src, loc_of(tid), D
        for tid in iter_bits(poss):
            yield src, loc_of(tid), P


def pair_count(rows: Iterable[tuple[int, tuple[int, int]]]) -> int:
    """How many pairs ``rows`` hold."""
    return sum((defs | poss).bit_count() for _, (defs, poss) in rows)


def merge_rows(left: tuple, right: tuple) -> tuple:
    """:meth:`PointsToSet.merge` on two tuples of ``(source id,
    (definite mask, possible mask))`` rows of one table: a pair is
    definite only when definite in both (a row missing from one side
    counts as absent there).  ``left``'s rows come first."""
    if left == right:
        return left
    other = dict(right)
    rows = []
    for sid, (defs, poss) in left:
        row = other.pop(sid, None)
        if row is None:
            rows.append((sid, (0, defs | poss)))
        else:
            union_defs = defs & row[0]
            union_poss = (defs | poss | row[0] | row[1]) & ~union_defs
            rows.append((sid, (union_defs, union_poss)))
    rows.extend((sid, (0, defs | poss)) for sid, (defs, poss) in other.items())
    return tuple(rows)


def locations_of(sets: Iterable[PointsToSet]) -> set[AbsLoc]:
    """Every location any of ``sets`` names, as source or target: the
    union of their bitsets, materialized once per table.  Sets that
    share one row dict (copy-on-write) are read once."""
    masks: dict[LocTable, int] = {}
    seen: set[int] = set()
    for pts in sets:
        rows = pts._src
        if id(rows) in seen:
            continue
        seen.add(id(rows))
        mask = masks.get(pts._table, 0)
        for sid, (defs, poss) in rows.items():
            mask |= defs | poss | 1 << sid
        masks[pts._table] = mask
    return {
        table.loc_of(i)
        for table, mask in masks.items()
        for i in iter_bits(mask)
    }


def merge_all(sets: Iterable[PointsToSet | None]) -> PointsToSet | None:
    """Merge a collection of sets; None (bottom) elements are ignored.
    Returns None if every input is None."""
    result: PointsToSet | None = None
    for item in sets:
        if item is None:
            continue
        result = item if result is None else result.merge(item)
    return result
