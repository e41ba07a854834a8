"""Differential test of the row-level call boundary.

``split_input``, ``map_call``, ``unmap_call`` and the slice memo's
passthrough swap move whole bitset rows where they can.  This file
keeps triple-at-a-time reference versions of all four and checks,
on every call of every golden-digest program (the 76 of
``tests/interp/test_golden_digests.py``, ``relay`` and ``fanout``
among them) and of a few wide and deep shapes the golden corpus lacks,
that the row-level result is the reference's exactly:

* the same pairs *and* the same row order (``list(pts.rows)``);
* the same :class:`MapInfo` (``to_caller``, ``from_caller`` and the
  ``visible_roots`` order);
* the same slice key and passthrough, once converted back to triples;
* the same location ids, allocated in the same order.

For the last point each reference runs against a copy of the location
table taken before the row-level call, so an allocation in a
different order shows up as a different table.  Every
:class:`RowCensus` a set carries into those calls, including the ones
``map_call`` vouches for its result without a pass over the rows, must
equal a census taken afresh.
"""

from __future__ import annotations

from collections import Counter, deque

import pytest

from repro.core import interproc, mapping, provenance
from repro.core.analysis import analyze_source
from repro.core.locations import (
    HEAP,
    AbsLoc,
    LocKind,
    LocTable,
    global_loc,
    install_table,
    retval_loc,
)
from repro.core.mapping import MapInfo, UnmapResult, _definite_first, _Mapper
from repro.core.pointsto import D, P, PointsToSet, RowCensus, row_triples

from ..integration.test_deep_inputs import chain_program, nested_program
from ..interp.test_golden_digests import corpus
from .test_sharing import WIDE_SEED5

# ---------------------------------------------------------------------------
# Triple-at-a-time references
# ---------------------------------------------------------------------------


def ref_split_input(func_input, callee_fn, callee_env, referenced_globals):
    """Key and passthrough as triples in the input's iteration order."""
    triples = list(func_input.triples())
    adjacency: dict[AbsLoc, set[AbsLoc]] = {}
    tainted_roots: set[AbsLoc] = set()
    for src, tgt, _ in triples:
        sroot = src.root()
        adjacency.setdefault(sroot, set()).add(tgt.root())
        if not tgt.is_visible_everywhere:
            tainted_roots.add(sroot)
    seeds = [callee_env.var_loc(pname) for pname, _ in callee_fn.params]
    seeds += [global_loc(gname) for gname in referenced_globals]
    seeds.append(HEAP)
    slice_roots: set[AbsLoc] = set()
    stack = seeds
    while stack:
        root = stack.pop()
        if root in slice_roots:
            continue
        slice_roots.add(root)
        for tgt_root in adjacency.get(root, ()):
            if tgt_root not in slice_roots and not (
                tgt_root.is_null or tgt_root.is_function
            ):
                stack.append(tgt_root)
    key, passthrough = [], []
    for triple in triples:
        sroot = triple[0].root()
        if (
            sroot.kind is LocKind.GLOBAL
            and sroot not in slice_roots
            and sroot not in tainted_roots
        ):
            passthrough.append(triple)
        else:
            key.append(triple)
    return tuple(key), tuple(passthrough), len(slice_roots)


class RefMapper(_Mapper):
    """Maps every pair on its own; shares only the formal and target
    mapping, which never worked on rows."""

    def __init__(self, caller_env, callee_env, input_set):
        self.caller_env = caller_env
        self.callee_env = callee_env
        self.input_set = input_set
        self.info = MapInfo()
        self.result = PointsToSet()
        self.queue = deque()
        self.processed = set()
        self.by_root = {}
        for src, tgt, definiteness in input_set.triples():
            self.by_root.setdefault(src.root(), []).append(
                (src, tgt, definiteness)
            )

    def map_visible_roots(self):
        for root in list(self.by_root):
            if root.kind in (LocKind.GLOBAL, LocKind.HEAP):
                self.enqueue(root, visible=True)

    def drain(self):
        while self.queue:
            root = self.queue.popleft()
            if root in self.processed:
                continue
            self.processed.add(root)
            for src, tgt, definiteness in _definite_first(
                self.by_root.get(root, ())
            ):
                if root.is_visible_everywhere:
                    mapped_src = src
                else:
                    rep = self.info.from_caller.get(root)
                    if rep is None:
                        continue
                    mapped_src = rep.extend(src.path)
                mapped_tgt = self.map_target(tgt, via=mapped_src)
                self.result.add(mapped_src, mapped_tgt, definiteness)

    def degrade_multi_represented(self):
        for src, tgt, definiteness in list(self.result.triples()):
            if definiteness is not D:
                continue
            if (
                self.info.representative_count(src.root()) > 1
                or self.info.representative_count(tgt.root()) > 1
            ):
                self.result.discard(src, tgt)
                self.result.add(src, tgt, P)


def ref_map_call(caller_env, callee_env, input_set, args, callee_fn):
    mapper = RefMapper(caller_env, callee_env, input_set)
    mapper.map_formals(callee_fn, args)
    mapper.map_visible_roots()
    mapper.drain()
    mapper.degrade_multi_represented()
    return mapper.result, mapper.info


def ref_unmap_call(caller_input, callee_output, map_info, callee_fn, table):
    """Unmap pair by pair; the caller's copy is bound to ``table``."""
    dangling: list[AbsLoc] = []

    def unrewrite(loc):
        if loc.is_visible_everywhere:
            return [(loc, True)]
        root = loc.root()
        caller_roots = map_info.to_caller.get(root)
        if caller_roots is None:
            if root.kind in (LocKind.LOCAL, LocKind.PARAM):
                dangling.append(loc)
            return []
        unique = len(caller_roots) == 1
        return [(r.extend(loc.path), unique) for r in caller_roots]

    new_rels: dict = {}
    returns = []
    ret_root = retval_loc(callee_fn.name)
    for src, tgt, definiteness in callee_output.triples():
        src_root = src.root()
        if src_root == ret_root:
            for caller_tgt, unique in unrewrite(tgt):
                returns.append(
                    (src.path, caller_tgt, definiteness if unique else P)
                )
            continue
        if src_root.kind in (
            LocKind.LOCAL,
            LocKind.PARAM,
            LocKind.RETVAL,
            LocKind.FUNCTION,
        ):
            continue
        sources = unrewrite(src)
        if not sources:
            continue
        targets = unrewrite(tgt)
        if not targets:
            continue
        for caller_src, s_unique in sources:
            for caller_tgt, t_unique in targets:
                out_def = definiteness if (s_unique and t_unique) else P
                new_rels.setdefault(caller_src.root(), []).append(
                    (caller_src, caller_tgt, out_def)
                )

    result = PointsToSet(table)
    result._src = dict(caller_input.rows)
    sources_by_root: dict = {}
    for src in result.sources():
        sources_by_root.setdefault(src.root(), []).append(src)
    updates: dict = {}
    for caller_roots in map_info.to_caller.values():
        strong = len(caller_roots) == 1
        for root in caller_roots:
            updates[root] = updates.get(root, True) and strong
    for root in map_info.visible_roots:
        updates[root] = not root.is_heap and updates.get(root, True)
    for root in new_rels:
        if root not in updates:
            updates[root] = not root.is_heap
    for root, strong in updates.items():
        if root.represents_multiple():
            strong = False
        if strong:
            for src in sources_by_root.get(root, ()):
                result.kill_source(src)
            for caller_src, caller_tgt, definiteness in new_rels.get(root, ()):
                result.add(caller_src, caller_tgt, definiteness)
        else:
            for src in sources_by_root.get(root, ()):
                result.weaken_source(src)
            for caller_src, caller_tgt, _ in new_rels.get(root, ()):
                result.add(caller_src, caller_tgt, P)
    return UnmapResult(result, returns, dangling)


def ref_swap(pts, old_triples, new_triples):
    result = pts.copy()
    for src, tgt, _ in old_triples:
        result.discard(src, tgt)
    for src, tgt, definiteness in new_triples:
        result.add(src, tgt, definiteness)
    return result


# ---------------------------------------------------------------------------
# The comparison harness
# ---------------------------------------------------------------------------


def clone_table(table: LocTable) -> LocTable:
    copy = LocTable()
    copy._ids = dict(table._ids)
    copy._locs = list(table._locs)
    copy._roots = list(table._roots)
    copy.vis = table.vis
    return copy


def assert_same_set(got: PointsToSet, want: PointsToSet) -> None:
    assert set(got.triples()) == set(want.triples())
    assert list(got.rows.items()) == list(want.rows.items())


def assert_same_table(got: LocTable, want: LocTable) -> None:
    assert got._locs == want._locs
    assert got._roots == want._roots
    assert got.vis == want.vis


def assert_census_fresh(pts: PointsToSet) -> None:
    """A census the set carries equals one taken now, orders included."""
    cached = pts._census
    if cached is None:
        return
    fresh = RowCensus.of_rows(pts.rows, pts.table)
    assert list(cached.groups.items()) == list(fresh.groups.items())
    assert list(cached.reach.items()) == list(fresh.reach.items())
    assert cached.visible == fresh.visible
    assert cached.inert == fresh.inert


def install_differential(monkeypatch) -> Counter:
    """Wrap the four row-level operations so every call also runs the
    reference and compares.  Returns per-operation call counts, plus
    how often the row-level paths could move whole rows."""
    calls: Counter = Counter()
    row_split = interproc.split_input
    row_map = interproc.map_call
    row_unmap = interproc.unmap_call
    row_swap = PointsToSet.swapped
    row_copy = mapping._Mapper._copy_rows

    def split_input(func_input, callee_fn, callee_env, referenced_globals):
        assert_census_fresh(func_input)
        key, passthrough, count = row_split(
            func_input, callee_fn, callee_env, referenced_globals
        )
        ref = ref_split_input(
            func_input, callee_fn, callee_env, referenced_globals
        )
        table = func_input.table
        assert tuple(row_triples(key, table)) == ref[0]
        assert tuple(row_triples(passthrough, table)) == ref[1]
        assert count == ref[2]
        calls["split"] += 1
        calls["passthrough_rows"] += len(passthrough)
        return key, passthrough, count

    def map_call(caller_env, callee_env, input_set, args, callee_fn):
        table = input_set.table
        before = clone_table(table)
        assert_census_fresh(input_set)
        result, info = row_map(
            caller_env, callee_env, input_set, args, callee_fn
        )
        assert_census_fresh(input_set)
        assert_census_fresh(result)
        previous = install_table(before)
        try:
            ref_result, ref_info = ref_map_call(
                caller_env, callee_env, input_set, args, callee_fn
            )
        finally:
            install_table(previous)
        assert_same_table(before, table)
        assert_same_set(result, ref_result)
        assert list(info.to_caller.items()) == list(ref_info.to_caller.items())
        assert list(info.from_caller.items()) == list(
            ref_info.from_caller.items()
        )
        assert list(info.visible_roots) == list(ref_info.visible_roots)
        calls["map"] += 1
        return result, info

    def unmap_call(caller_input, callee_output, map_info, callee_fn):
        table = caller_input.table
        before = clone_table(table)
        assert_census_fresh(caller_input)
        got = row_unmap(caller_input, callee_output, map_info, callee_fn)
        assert_census_fresh(got.output)
        ref = ref_unmap_call(
            caller_input, callee_output, map_info, callee_fn, before
        )
        assert_same_table(before, table)
        assert_same_set(got.output, ref.output)
        assert got.returns == ref.returns
        assert got.dangling == ref.dangling
        calls["unmap"] += 1
        return got

    def swapped(self, old_rows, new_rows):
        got = row_swap(self, old_rows, new_rows)
        table = self.table
        ref = ref_swap(
            self,
            tuple(row_triples(old_rows, table)),
            tuple(row_triples(new_rows, table)),
        )
        assert_same_set(got, ref)
        calls["swap"] += 1
        return got

    def copy_rows(self, *args):
        calls["whole_row_maps"] += 1
        return row_copy(self, *args)

    monkeypatch.setattr(interproc, "split_input", split_input)
    monkeypatch.setattr(interproc, "map_call", map_call)
    monkeypatch.setattr(interproc, "unmap_call", unmap_call)
    monkeypatch.setattr(PointsToSet, "swapped", swapped)
    monkeypatch.setattr(mapping._Mapper, "_copy_rows", copy_rows)
    return calls


PROGRAMS = corpus()

#: Shapes the golden corpus lacks: a wide generated program (32
#: functions, 596 slice lookups) and ``cold-deep``'s deep shapes.
WIDE_AND_DEEP = {
    "wide-s5": WIDE_SEED5,
    "chain48": chain_program(48),
    "nested88": nested_program(88),
}

#: Shapes the corpus leaves out or barely touches.
EDGE_PROGRAMS = {
    # ``gp``'s row meets two target roots the callee has not seen;
    # ``zeta`` has the lower id but ``alpha`` sorts first by name.
    "fresh-roots-by-name": """
        int zeta; int alpha; int *gp; int c;
        void f(void) { IN: ; }
        int main() {
            gp = &zeta;
            if (c) gp = &alpha;
            f();
            OUT: return 0;
        }
    """,
    # One global root with a carried row (``gs.a``) and a translated
    # one (``gs.b`` targets a caller local), both rewritten by the
    # callee, plus definite and possible array rows.
    "mixed-root": """
        struct S { int *a; int *b; };
        struct S gs; int g; int h; int *arr[4]; int c;
        void f(int *p) {
            gs.b = p;
            gs.a = &h;
            arr[0] = &g;
            if (c) arr[1] = &h;
        }
        int main() {
            int local;
            gs.a = &g;
            gs.b = &local;
            f(&local);
            f(&g);
            OUT: return 0;
        }
    """,
}


def test_corpus_is_the_golden_one():
    assert len(PROGRAMS) == 76
    assert {"relay", "fanout"} <= set(PROGRAMS)


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_row_boundary_matches_triple_reference(monkeypatch, name):
    assert not provenance.CURRENT.enabled
    install_differential(monkeypatch)
    analyze_source(PROGRAMS[name])


@pytest.mark.parametrize("name", sorted(WIDE_AND_DEEP))
def test_row_boundary_wide_and_deep_shapes(monkeypatch, name):
    calls = install_differential(monkeypatch)
    analyze_source(WIDE_AND_DEEP[name])
    if name != "nested88":  # one body, no call
        assert calls["map"] > 0 and calls["unmap"] > 0


@pytest.mark.parametrize("name", ["relay", "fanout"])
def test_perf_programs_take_the_row_paths(monkeypatch, name):
    """The deep programs exercise every row-level path: splits with
    passthrough, swaps on slice hits, whole-row maps."""
    calls = install_differential(monkeypatch)
    analyze_source(PROGRAMS[name])
    assert calls["split"] > 100
    assert calls["passthrough_rows"] > 0
    assert calls["swap"] > 0
    assert calls["whole_row_maps"] > 0


@pytest.mark.parametrize("name", sorted(EDGE_PROGRAMS))
def test_row_boundary_edge_shapes(monkeypatch, name):
    calls = install_differential(monkeypatch)
    analyze_source(EDGE_PROGRAMS[name])
    assert calls["map"] > 0 and calls["unmap"] > 0
    assert calls["whole_row_maps"] > 0


class TestBoundaryWork:
    """Each call's boundary work scales with the rows it translates,
    not with every global root: map and unmap carry inert rows in one
    dict write each, and a root with nothing to kill, weaken or add
    costs a membership test.  Routing every root through
    ``add_row``/``kill_row`` and ``LocTable.get_id`` made 12,444 row
    calls and 8,320 lookups on fanout, 6,863 and 3,864 on relay."""

    #: program -> (most ``add_row`` + ``kill_row`` calls, most
    #: ``get_id`` lookups) over one analysis.  The runs make 102/1,164
    #: (fanout) and 167/888 (relay); the bounds leave about 3x and
    #: 1.3x of room.
    BOUNDS = {
        "fanout": (300, 1_500),
        "relay": (500, 1_200),
    }

    @pytest.mark.parametrize("name", sorted(BOUNDS))
    def test_row_calls_and_lookups_are_bounded(self, name, monkeypatch):
        counts: Counter = Counter()

        def counted(cls, attr):
            inner = getattr(cls, attr)

            def wrapper(*args):
                counts[attr] += 1
                return inner(*args)

            monkeypatch.setattr(cls, attr, wrapper)

        counted(PointsToSet, "add_row")
        counted(PointsToSet, "kill_row")
        counted(LocTable, "get_id")
        analyze_source(PROGRAMS[name])
        max_rows, max_lookups = self.BOUNDS[name]
        assert counts["add_row"] + counts["kill_row"] <= max_rows
        assert counts["get_id"] <= max_lookups
