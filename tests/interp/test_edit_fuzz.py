"""The edit-fuzz campaign: incremental updates under random edits.

A fixed-seed mutator (:mod:`repro.benchsuite.edits`) sweeps the
benchmark suite and the soundness-fuzz corpus, producing well over 200
(program, edit) pairs across five mutation families — rename a local,
add an assignment, remove an assignment, retarget a function-pointer
store, delete a function.  For every pair the incremental update must

* be byte-identical (semantic payload) to a cold analysis of the
  edited text, whatever tier it took;
* keep the soundness oracle green: the *updated* analysis (not a
  fresh one) is differentially checked against concrete execution;
* never re-analyze a function the chunk differ did not name as
  changed when it spliced — the untouched-subtree guarantee,
  ``reanalyzed ⊆ changed``.

Tier-1 runs one pair per idiom family; the full campaign is nightly
(``slow``).
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.benchsuite import BENCHMARKS
from repro.benchsuite.edits import EDIT_KINDS, propose_edits
from repro.benchsuite.generator import generate_program
from repro.core.analysis import analyze_source
from repro.core.incremental import update_analysis
from repro.interp.soundness import check_soundness
from repro.service.serialize import semantic_payload_bytes

from .test_soundness_fuzz import CONFIGS, CORPUS, TIER1

MAX_STEPS = 100_000

#: (pair id, old source getter args) for the whole campaign: every
#: benchmark plus every fuzz-corpus program.
PROGRAMS = [
    (f"bench-{name}", ("bench", name, 0)) for name in sorted(BENCHMARKS)
] + [
    (test_id, ("fuzz", config, seed)) for test_id, config, seed in CORPUS
]

TIER1_PROGRAMS = [
    (test_id, ("fuzz", config, seed)) for test_id, config, seed in TIER1
] + [
    (f"bench-{name}", ("bench", name, 0))
    for name in ("hash", "misr", "fixoutput")
]


def _source_for(kind: str, name: str, seed: int) -> str:
    if kind == "bench":
        return BENCHMARKS[name].source
    return generate_program(seed, CONFIGS[name])


def _check_pair(old_source: str, edit, pair_id: str) -> None:
    old = analyze_source(old_source)
    tracer = obs.Tracer()
    with obs.tracing(tracer):
        updated, report = update_analysis(old, old_source, edit.source)
    cold = analyze_source(edit.source)

    # 1. Byte-level equivalence, whichever tier the ladder took.
    assert semantic_payload_bytes(updated, pair_id) == (
        semantic_payload_bytes(cold, pair_id)
    ), (
        f"update (mode={report.mode}, fallback={report.fallback}) "
        f"diverges from cold for {pair_id}: {edit.description}"
    )

    # 2. The soundness oracle holds for the *updated* result.
    sound = check_soundness(
        edit.source, max_steps=MAX_STEPS, analysis=updated
    )
    assert sound.ok, (
        f"soundness violations after update for {pair_id} "
        f"({edit.description}):\n"
        + "\n".join(f"  {v}" for v in sound.violations)
    )

    # 3. Untouched subtrees stayed memoized: a splice re-flows only
    # the bodies the chunk differ named as changed, and the counters
    # must agree with the report.
    counters = tracer.snapshot()["counters"]
    assert counters.get("incremental.updates") == 1
    assert counters.get("incremental.reused_summaries", 0) == (
        report.reused_summaries
    )
    if report.mode == "splice":
        stray = set(report.reanalyzed) - set(report.changed)
        assert not stray, (
            f"unchanged functions re-analyzed by a splice for "
            f"{pair_id}: {sorted(stray)}"
        )


def _check_program(kind: str, name: str, seed: int, per_kind: int) -> int:
    old_source = _source_for(kind, name, seed)
    edits = propose_edits(old_source, seed=seed, per_kind=per_kind)
    for edit in edits:
        _check_pair(old_source, edit, f"{kind}-{name}-s{seed}-{edit.kind}")
    return len(edits)


def test_campaign_is_real():
    """The sweep really is a >= 200-pair campaign over all families."""
    total = 0
    kinds = set()
    for _, (kind, name, seed) in PROGRAMS:
        edits = propose_edits(_source_for(kind, name, seed), seed=seed)
        total += len(edits)
        kinds.update(e.kind for e in edits)
    assert total >= 200, f"only {total} valid (program, edit) pairs"
    assert kinds == set(EDIT_KINDS), f"families missing: {set(EDIT_KINDS) - kinds}"


def test_edits_are_deterministic():
    source = BENCHMARKS["hash"].source
    a = propose_edits(source, seed=3)
    b = propose_edits(source, seed=3)
    assert [(e.kind, e.source) for e in a] == [
        (e.kind, e.source) for e in b
    ]


@pytest.mark.parametrize(
    "kind,name,seed",
    [args for _, args in TIER1_PROGRAMS],
    ids=[test_id for test_id, _ in TIER1_PROGRAMS],
)
def test_edit_fuzz_subset(kind, name, seed):
    """Tier-1: every valid edit on one program per family."""
    assert _check_program(kind, name, seed, per_kind=1) > 0


@pytest.mark.slow
@pytest.mark.parametrize(
    "kind,name,seed",
    [args for test_id, args in PROGRAMS
     if (test_id, args) not in TIER1_PROGRAMS],
    ids=[test_id for test_id, args in PROGRAMS
         if (test_id, args) not in TIER1_PROGRAMS],
)
def test_edit_fuzz_sweep(kind, name, seed):
    """Nightly: the full campaign over every remaining program."""
    _check_program(kind, name, seed, per_kind=1)
