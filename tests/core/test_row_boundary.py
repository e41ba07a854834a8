"""Differential test of the row-level, split-first call boundary.

A sliceable call splits the caller's set into key and passthrough
rows before map (``split_input``), maps the key rows only
(``map_call``), and unmaps the key-only callee output while the
caller's passthrough rows stay in its set (``unmap_call``); the slice
memo's replays write passthrough rows into the key-only recorded sets
(``PointsToSet.with_rows``).  This file keeps triple-at-a-time reference
versions of a *whole-input* boundary (map every row, split the mapped
input, unmap every row) and checks, on every call of every
golden-digest program (the 76 of ``tests/interp/test_golden_digests.py``,
``relay`` and ``fanout`` among them) and of a few wide and deep shapes
the golden corpus lacks, that the row-level result is the reference's
exactly:

* the same pairs *and* the same row order (``list(pts.rows)``) of the
  caller's output, unmapped from the key-only output against the
  whole-input reference unmap of the output with the passthrough rows
  put back;
* the same slice key (the mapped input) and passthrough, as triples in
  order, as the reference split of the whole mapped input, and the
  same slice size as a closure over the caller's triples;
* the same :class:`MapInfo` as a reference mapped from the same key
  rows (``to_caller``, ``from_caller`` and the ``visible_roots``
  order), and, with the passthrough roots put back at the positions
  ``MapInfo.passthrough`` names, the whole-input reference's
  ``visible_roots`` order;
* the same location ids, allocated in the same order.

For the last point each reference runs against a copy of the location
table taken before the row-level call, so an allocation in a
different order shows up as a different table.  Every
:class:`RowCensus` a set carries into those calls must equal a census
taken afresh.
"""

from __future__ import annotations

from collections import Counter, deque

import pytest

from repro import obs
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
from repro.core.pointsto import (
    D,
    P,
    PointsToSet,
    RowCensus,
    iter_bits,
    pair_count,
    row_triples,
)

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
    return tuple(key), tuple(passthrough)


def ref_slice_roots(
    caller_input,
    mapped_input,
    map_info,
    callee_fn,
    callee_env,
    referenced_globals,
):
    """The size of a call's slice on the caller's set: the closure over
    its triples, by root, of the roots of the actuals' targets (read
    back from the formals of the whole mapped input), the globals the
    formals are named after, the referenced globals and the heap.  NULL
    and function roots stay out."""
    adjacency: dict[AbsLoc, set[AbsLoc]] = {}
    for src, tgt, _ in caller_input.triples():
        adjacency.setdefault(src.root(), set()).add(tgt.root())
    formals = {callee_env.var_loc(pname) for pname, _ in callee_fn.params}
    seeds: list[AbsLoc] = []
    for src, tgt, _ in mapped_input.triples():
        if src.root() in formals:
            root = tgt.root()
            seeds.extend(map_info.to_caller.get(root, (root,)))
    global_types = callee_env.program.global_types
    seeds += [
        global_loc(pname)
        for pname, _ in callee_fn.params
        if pname in global_types
    ]
    seeds += [global_loc(gname) for gname in referenced_globals]
    seeds.append(HEAP)
    slice_roots: set[AbsLoc] = set()
    stack = [root for root in seeds if not (root.is_null or root.is_function)]
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
    return len(slice_roots)


class RefMapper(_Mapper):
    """Maps every pair on its own; shares only the formal and target
    mapping, which never worked on rows.  The actuals are read from
    ``input_set``; the walk maps the rows of ``walked`` (by default the
    same set)."""

    def __init__(self, caller_env, callee_env, input_set, walked=None):
        self.caller_env = caller_env
        self.callee_env = callee_env
        self.input_set = input_set
        self.info = MapInfo()
        self.result = PointsToSet()
        self.queue = deque()
        self.processed = set()
        self.passing = {}  # every root crosses
        self.bindings = None  # the formals bind from the actuals
        self.by_root = {}
        walked = input_set if walked is None else walked
        for src, tgt, definiteness in walked.triples():
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


def ref_map_call(
    caller_env, callee_env, input_set, args, callee_fn, walked=None
):
    mapper = RefMapper(caller_env, callee_env, input_set, walked)
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


def ref_with(pts, new_triples):
    result = pts.copy()
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


def without_rows(pts: PointsToSet, sids) -> PointsToSet:
    """``pts`` without the rows of ``sids``, in the same table."""
    result = PointsToSet(pts.table)
    result.own_rows().update(
        row for row in pts.rows.items() if row[0] not in sids
    )
    return result


def install_differential(monkeypatch) -> Counter:
    """Wrap the row-level operations so every call also runs the
    reference and compares.  Returns per-operation call counts, plus
    how often the row-level paths could move whole rows."""
    calls: Counter = Counter()
    row_split = interproc.split_input
    row_map = interproc.map_call
    row_unmap = interproc.unmap_call
    row_with = PointsToSet.with_rows
    row_copy = mapping._Mapper._copy_rows
    #: id(split) -> (split, referenced globals); id(MapInfo) -> (the
    #: whole-input reference MapInfo, split).
    splits: dict = {}
    whole_infos: dict = {}

    def split_input(pts, seeds, referenced_globals):
        assert_census_fresh(pts)
        got = row_split(pts, seeds, referenced_globals)
        rows = pts.rows
        locs = pts.table.locs
        assert got.rows == tuple(
            (sid, rows[sid]) for sids in got.roots.values() for sid in sids
        )
        for rid, sids in got.roots.items():
            assert sorted(sids) == sorted(pts.census().groups[rid])
            assert sids == sorted(
                sids, key=lambda sid: (not rows[sid][0], locs[sid].text)
            )
        assert got.pairs == pair_count(got.rows)
        splits[id(got)] = (got, referenced_globals)
        calls["split"] += 1
        calls["passthrough_rows"] += len(got.rows)
        return got

    def map_call(
        caller_env, callee_env, input_set, args, callee_fn, split=None
    ):
        table = input_set.table
        before = clone_table(table)
        assert_census_fresh(input_set)
        result, info = row_map(
            caller_env, callee_env, input_set, args, callee_fn, split
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
        assert list(info.to_caller.items()) == list(ref_info.to_caller.items())
        assert list(info.from_caller.items()) == list(
            ref_info.from_caller.items()
        )
        whole_infos[id(info)] = (ref_info, split)
        calls["map"] += 1
        if split is None:
            assert_same_set(result, ref_result)
            assert list(info.visible_roots) == list(ref_info.visible_roots)
            assert not info.passthrough
            return result, info
        split_, referenced_globals = splits.pop(id(split))
        assert split_ is split
        # The key is the whole mapped input's, and so is the passthrough.
        ref_key, ref_passthrough = ref_split_input(
            ref_result, callee_fn, callee_env, referenced_globals
        )
        assert tuple(result.triples()) == ref_key
        assert tuple(row_triples(split.rows, table)) == ref_passthrough
        # The slice is counted on the caller's set.
        assert split.slice_roots == ref_slice_roots(
            input_set,
            ref_result,
            ref_info,
            callee_fn,
            callee_env,
            referenced_globals,
        )
        passing = {sid for sid, _ in split.rows}
        assert_same_set(result, without_rows(ref_result, passing))
        # A reference mapped from the same key rows (the actuals still
        # read from the whole set: a passthrough global can be one's
        # value) gives the same input and MapInfo.
        key_before = clone_table(table)
        previous = install_table(key_before)
        try:
            key_result, key_info = ref_map_call(
                caller_env,
                callee_env,
                input_set,
                args,
                callee_fn,
                walked=without_rows(input_set, passing),
            )
        finally:
            install_table(previous)
        assert_same_table(key_before, table)
        assert_same_set(result, key_result)
        assert list(info.to_caller.items()) == list(key_info.to_caller.items())
        assert list(info.from_caller.items()) == list(
            key_info.from_caller.items()
        )
        # Its visible roots are ours, but for two kinds.  It lacks the
        # roots without rows that only passthrough rows point to: map
        # still meets them in the whole-input map's order (they take
        # the callee's first rows for them in that order).  And it has
        # the passthrough roots key rows point to, rows stripped: map
        # keeps those out.
        locs, roots = table.locs, table.roots
        met = set()
        for _, (defs, poss) in split.rows:
            met.update(locs[roots[tid]] for tid in iter_bits(defs | poss))
        groups = input_set.census().groups
        extra = []
        for root in info.visible_roots:
            if root not in key_info.visible_roots:
                assert root in met and table.get_id(root) not in groups
                extra.append(root)
        passing_roots = {locs[rid] for rid in split.roots}
        assert [
            root for root in info.visible_roots if root not in extra
        ] == [
            root
            for root in key_info.visible_roots
            if root not in passing_roots
        ]
        calls["passthrough_met_roots"] += len(extra)
        # With the passthrough roots put back where MapInfo.passthrough
        # says, the order is the whole-input map's, and the moved rows
        # come in the order it carried them.
        order = list(info.visible_roots)
        moved: list = []
        for position in sorted(info.passthrough, reverse=True):
            sids = info.passthrough[position]
            moved[:0] = sids
            order[position:position] = list(
                dict.fromkeys(locs[roots[sid]] for sid in sids)
            )
        assert order == list(ref_info.visible_roots)
        assert moved == [sid for sid in ref_result.rows if sid in passing]
        assert moved == [sid for sid, _ in split.rows]
        return result, info

    def unmap_call(caller_input, callee_output, map_info, callee_fn):
        table = caller_input.table
        before = clone_table(table)
        assert_census_fresh(caller_input)
        got = row_unmap(caller_input, callee_output, map_info, callee_fn)
        assert_census_fresh(got.output)
        ref_info, split = whole_infos.pop(id(map_info))
        whole_output = callee_output
        if split is not None:
            # The key-only output carries no passthrough root; the
            # whole-input run's carries the passthrough rows unchanged.
            assert not any(
                table.roots[sid] in split.roots for sid in callee_output.rows
            )
            whole_output = ref_with(
                callee_output, tuple(row_triples(split.rows, table))
            )
        ref = ref_unmap_call(
            caller_input, whole_output, ref_info, callee_fn, before
        )
        assert_same_table(before, table)
        assert_same_set(got.output, ref.output)
        assert got.returns == ref.returns
        assert got.dangling == ref.dangling
        calls["unmap"] += 1
        return got

    def with_rows(self, new_rows):
        got = row_with(self, new_rows)
        ref = ref_with(self, tuple(row_triples(new_rows, self.table)))
        assert_same_set(got, ref)
        calls["replay_rows"] += 1
        return got

    def copy_rows(self, *args):
        calls["whole_row_maps"] += 1
        return row_copy(self, *args)

    monkeypatch.setattr(interproc, "split_input", split_input)
    monkeypatch.setattr(interproc, "map_call", map_call)
    monkeypatch.setattr(interproc, "unmap_call", unmap_call)
    monkeypatch.setattr(PointsToSet, "with_rows", with_rows)
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
    # The formal ``g`` shares its symbolic name ``1_g`` with the global
    # ``g``, so ``1_g`` stands for ``b`` and ``a`` and reaches ``w``:
    # the whole-input split keeps ``w`` in the key, and the callee's
    # weak update through ``1_g`` keeps ``w -> z``.  Sliced from the
    # actual's target ``b`` alone, ``w`` would pass through.
    "formal-shadows-global": """
        int z; int z2; int q;
        int *w; int *w2;
        int ***g;
        void f(int ***g) { **g = &q; }
        int main() {
            int **a; int **b;
            w = &z; w2 = &z2;
            a = &w; b = &w2;
            g = &a;
            f(&b);
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
    passthrough, passthrough written into replayed records, whole-row
    maps."""
    calls = install_differential(monkeypatch)
    analyze_source(PROGRAMS[name])
    assert calls["split"] > 100
    assert calls["passthrough_rows"] > 0
    assert calls["replay_rows"] > 0
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
    #: ``get_id`` lookups) over one analysis.  The runs make 102/1,122
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

    #: program -> most rows map and unmap move over one analysis
    #: (``analysis.boundary_rows``: the rows map writes into callee
    #: inputs plus the rows of the callee outputs unmap reads).  Split
    #: first, a call moves its key rows only and a hit's stored output
    #: crosses as it is: the runs move 904 (fanout, 211 hits of 242
    #: calls) and 496 (relay, 231 of 248).  Carrying every global root
    #: into every callee and back moved 8,252 and 4,464.
    BOUNDARY_ROWS = {"fanout": 1_200, "relay": 700}

    @pytest.mark.parametrize("name", sorted(BOUNDARY_ROWS))
    def test_calls_move_only_their_key_rows(self, name):
        tracer = obs.Tracer()
        with obs.tracing(tracer):
            result = analyze_source(PROGRAMS[name])
        counters = tracer.snapshot()["counters"]
        assert result.stats.slice_hits > 200
        assert counters["analysis.boundary_rows"] <= self.BOUNDARY_ROWS[name]
