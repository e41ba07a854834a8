"""Copy-on-write and cross-table properties of PointsToSet.

These tests pin the performance architecture (DESIGN.md, "Performance
architecture") to the observable semantics of a brute-force reference
model: a ``copy()`` must never alias its source through any later
mutation, every query must match the model, and ``==``,
``is_subset_of`` and ``merge`` must stay exact between sets bound to
different location tables.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.locations import AbsLoc, LocKind, LocTable
from repro.core.pointsto import D, P, PointsToSet


def loc(name):
    return AbsLoc(name, LocKind.LOCAL, "f")


A, B, C, X, Y = (loc(n) for n in "abcxy")
LOCS = [A, B, C, X, Y]

locs = st.sampled_from(LOCS)
defs = st.sampled_from([D, P])
triples = st.lists(st.tuples(locs, locs, defs), max_size=12)

#: One mutation step: (op-name, args...).
ops = st.lists(
    st.one_of(
        st.tuples(st.just("add"), locs, locs, defs),
        st.tuples(st.just("discard"), locs, locs),
        st.tuples(st.just("kill"), locs),
        st.tuples(st.just("weaken"), locs),
    ),
    max_size=10,
)


def apply_ops(pts, steps):
    for step in steps:
        if step[0] == "add":
            pts.add(step[1], step[2], step[3])
        elif step[0] == "discard":
            pts.discard(step[1], step[2])
        elif step[0] == "kill":
            pts.kill_source(step[1])
        else:
            pts.weaken_source(step[1])


# -- a brute-force reference model (the seed's semantics) -------------------


class Model:
    def __init__(self):
        self.rel = {}

    @classmethod
    def from_triples(cls, ts):
        model = cls()
        for src, tgt, d in ts:
            model.add(src, tgt, d)
        return model

    def add(self, src, tgt, d):
        if d is D:
            self.rel[(src, tgt)] = True
        else:
            self.rel.setdefault((src, tgt), False)

    def discard(self, src, tgt):
        self.rel.pop((src, tgt), None)

    def kill_source(self, src):
        for key in [k for k in self.rel if k[0] == src]:
            del self.rel[key]

    def weaken_source(self, src):
        for key in self.rel:
            if key[0] == src:
                self.rel[key] = False

    def merge(self, other):
        result = Model()
        for key, d in self.rel.items():
            result.rel[key] = d and bool(other.rel.get(key))
        for key in other.rel:
            result.rel.setdefault(key, False)
        return result

    def is_subset_of(self, other):
        return all(
            key in other.rel and (d or not other.rel[key])
            for key, d in self.rel.items()
        )

    def targets_of(self, src):
        return {t: d for (s, t), d in self.rel.items() if s == src}

    def sources_of(self, tgt):
        return {s: d for (s, t), d in self.rel.items() if t == tgt}

    def triples(self):
        return {(s, t, D if d else P) for (s, t), d in self.rel.items()}


def both(ts):
    return PointsToSet.from_triples(ts), Model.from_triples(ts)


def assert_matches(pts, model):
    assert set(pts.triples()) == model.triples()
    for l in LOCS:
        assert dict(pts.targets_of(l)) == {
            t: (D if d else P) for t, d in model.targets_of(l).items()
        }
        assert dict(pts.sources_of(l)) == {
            s: (D if d else P) for s, d in model.sources_of(l).items()
        }


# -- copy-on-write aliasing -------------------------------------------------


@given(triples, ops)
@settings(max_examples=300, deadline=None)
def test_mutating_the_copy_never_changes_the_original(ts, steps):
    original = PointsToSet.from_triples(ts)
    before = set(original.triples())
    clone = original.copy()
    apply_ops(clone, steps)
    assert set(original.triples()) == before


@given(triples, ops)
@settings(max_examples=300, deadline=None)
def test_mutating_the_original_never_changes_the_copy(ts, steps):
    original = PointsToSet.from_triples(ts)
    clone = original.copy()
    snapshot = set(clone.triples())
    apply_ops(original, steps)
    assert set(clone.triples()) == snapshot


@given(triples, ops, ops)
@settings(max_examples=200, deadline=None)
def test_chained_copies_stay_independent(ts, steps1, steps2):
    first = PointsToSet.from_triples(ts)
    second = first.copy()
    third = second.copy()
    apply_ops(second, steps1)
    apply_ops(third, steps2)
    model_second, model_third = Model.from_triples(ts), Model.from_triples(ts)
    apply_ops(model_second, steps1)
    apply_ops(model_third, steps2)
    assert set(first.triples()) == Model.from_triples(ts).triples()
    assert_matches(second, model_second)
    assert_matches(third, model_third)


def test_copy_is_shared_until_first_mutation():
    pts = PointsToSet.from_triples([(A, B, D), (X, Y, P)])
    clone = pts.copy()
    assert clone._src is pts._src  # O(1) structural sharing
    clone.add(C, Y, P)
    assert clone._src is not pts._src


# -- semantics vs the reference model ---------------------------------------


@given(triples, ops)
@settings(max_examples=300, deadline=None)
def test_mutation_sequences_match_reference_model(ts, steps):
    pts, model = both(ts)
    apply_ops(pts, steps)
    apply_ops(model, steps)
    assert_matches(pts, model)


@given(triples, triples)
@settings(max_examples=300, deadline=None)
def test_merge_matches_reference_model(t1, t2):
    pts1, model1 = both(t1)
    pts2, model2 = both(t2)
    assert_matches(pts1.merge(pts2), model1.merge(model2))


@given(triples, triples)
@settings(max_examples=300, deadline=None)
def test_subset_matches_reference_model(t1, t2):
    pts1, model1 = both(t1)
    pts2, model2 = both(t2)
    assert pts1.is_subset_of(pts2) == model1.is_subset_of(model2)
    assert pts2.is_subset_of(pts1) == model2.is_subset_of(model1)


# -- sets bound to different location tables ---------------------------------


def in_fresh_table(ts):
    """A set over its own :class:`LocTable`, whose ids (assigned in
    reverse) disagree with the process-wide fallback table's."""
    table = LocTable()
    for location in reversed(LOCS):
        table.id_of(location)
    pts = PointsToSet(table)
    for src, tgt, d in ts:
        pts.add(src, tgt, d)
    return pts


@given(triples, triples)
@settings(max_examples=300, deadline=None)
def test_cross_table_operations_match_reference_model(t1, t2):
    pts1, model1 = both(t1)
    pts2, model2 = in_fresh_table(t2), Model.from_triples(t2)
    assert pts1._table is not pts2._table
    assert_matches(pts1.merge(pts2), model1.merge(model2))
    assert_matches(pts2.merge(pts1), model2.merge(model1))
    assert pts1.is_subset_of(pts2) == model1.is_subset_of(model2)
    assert pts2.is_subset_of(pts1) == model2.is_subset_of(model1)
    assert (pts1 == pts2) == (model1.rel == model2.rel)
    assert (pts2 == pts1) == (model1.rel == model2.rel)
    assert pts1 == in_fresh_table(t1)


# -- fingerprints -----------------------------------------------------------


@given(triples, triples)
@settings(max_examples=300, deadline=None)
def test_fingerprints_equal_iff_sets_equal(t1, t2):
    pts1 = PointsToSet.from_triples(t1)
    pts2 = PointsToSet.from_triples(t2)
    assert (pts1.fingerprint() == pts2.fingerprint()) == (pts1 == pts2)


@given(triples, ops)
@settings(max_examples=200, deadline=None)
def test_fingerprint_tracks_mutations(ts, steps):
    pts = PointsToSet.from_triples(ts)
    pts.fingerprint()  # populate the cache
    apply_ops(pts, steps)
    # The cached fingerprint must be invalidated by every mutation: an
    # independently-built equal set computes the same canonical key.
    rebuilt = PointsToSet.from_triples(list(pts.triples()))
    assert pts.fingerprint() == rebuilt.fingerprint()


def test_copy_shares_the_cached_fingerprint():
    pts = PointsToSet.from_triples([(A, B, D), (B, C, P)])
    fingerprint = pts.fingerprint()
    assert pts.copy().fingerprint() is fingerprint


# -- interning --------------------------------------------------------------


def test_locations_are_interned():
    first = AbsLoc("v", LocKind.LOCAL, "g", ("f1",))
    second = AbsLoc("v", LocKind.LOCAL, "g", ("f1",))
    assert first is second
    assert first.root() is AbsLoc("v", LocKind.LOCAL, "g")


def test_abslocs_are_immutable():
    location = AbsLoc("v", LocKind.LOCAL, "g")
    with pytest.raises(AttributeError):
        location.base = "w"
