"""Incremental update vs. cold re-analysis: byte-level equivalence.

For every program in the soundness-fuzz corpus, apply a deterministic
edit (:func:`repro.benchsuite.edits.propose_edits`), run the
incremental update against the old result, and run a cold analysis of
the edited text.  The two must be indistinguishable: the semantic
payload (the encoded artifact minus ``stats``) byte-identical, both
raw and as the golden digests' v3 view with the Tables 2-6 derived
from each, and a :class:`~repro.service.queries.QuerySession`
over each giving the same answers.  This is the correctness proof for
the whole update ladder — whichever tier the update takes (splice or
cold fallback), the result may not differ.

Like the soundness-fuzz campaign, the first seed of every generator
configuration stays in tier-1 and the full sweep is marked ``slow``
(nightly CI).  Tier-1 also carries edit *chains* — updates applied to
an already-updated analysis, including splices on top of splices.
"""

from __future__ import annotations

import functools
import re

import pytest

from repro.benchsuite import BENCHMARKS
from repro.benchsuite.edits import propose_edits
from repro.benchsuite.generator import generate_program
from repro.benchsuite.perfsuite import PERF_BENCHMARKS
from repro.core.analysis import analyze_source
from repro.core.incremental import update_analysis
from repro.service.queries import QuerySession
from repro.service.serialize import semantic_payload_bytes

from .test_golden_digests import v3_view
from .test_soundness_fuzz import CONFIGS, CORPUS, TIER1


def _answers(analysis):
    session = QuerySession(analysis)
    return (session.list_labels(), session.call_sites(), session.summary())


def _fuzz_chains(config_name: str, seed: int) -> list:
    """(name, [old text, edited text]) for every edit of one program."""
    old_source = generate_program(seed, CONFIGS[config_name])
    edits = propose_edits(old_source, seed=seed)
    assert edits, f"no valid edits for {config_name}-s{seed}"
    return [
        (f"{config_name}-s{seed}-{edit.kind}", [old_source, edit.source])
        for edit in edits
    ]


def _stanford_chain() -> list:
    """Drop ``j = hi;``, then rename ``swap_ints``' local ``t``.  When
    the first step still had a seeded tier, the second splice trusted a
    capture that tier left short and lost ``sortlist[head]`` and
    ``sortlist[tail]`` from ``permute``'s may-write sets."""
    original = BENCHMARKS["stanford"].source
    without_j = original.replace("    j = hi;\n", "", 1)
    start = without_j.index("void swap_ints(")
    end = without_j.index("\n}\n", start)
    renamed = (
        without_j[:start]
        + re.sub(r"\bt\b", "t_renamed", without_j[start:end])
        + without_j[end:]
    )
    return [("stanford-chain", [original, without_j, renamed])]


def _fanout_chain() -> list:
    """Edit ``work0``, then make the same edit to ``work1``: the second
    splice starts from a spliced analysis."""
    work0 = (
        "void work0(int n) { int i; int *p; p = &d0; "
        "for (i = 0; i < n; i = i + 1) { w0 = p; *p = i; } }\n",
        "void work0(int n) { int i; int j; int *p; p = &d0; "
        "for (i = 0; i < n; i = i + 1) "
        "{ j = i; w0 = p; *p = j; } }\n",
    )
    work1 = tuple(
        text.replace("work0", "work1").replace("d0", "d1").replace(
            "w0", "w1"
        )
        for text in work0
    )
    original = PERF_BENCHMARKS["fanout"].source
    first = original.replace(*work0)
    second = first.replace(*work1)
    assert original != first != second
    return [("fanout-chain", [original, first, second])]


def _relay_chain() -> list:
    """Add a local to ``ping``, then one more assignment to it."""
    original = PERF_BENCHMARKS["relay"].source
    first = original.replace(
        "void ping(void) {\n    int v;\n    v = *cursor;",
        "void ping(void) {\n    int v;\n    int extra;\n"
        "    extra = 0;\n    v = *cursor;\n    v = v + extra;\n"
        "    extra = v;",
    )
    second = first.replace(
        "    extra = v;\n", "    extra = v;\n    extra = extra + 1;\n", 1
    )
    assert original != first != second
    return [("relay-chain", [original, first, second])]


def _check(chains: list) -> list[str]:
    """Every update along every chain must equal a cold analysis.
    Returns the tier of each update, in order."""
    modes = []
    for name, texts in chains:
        analysis = analyze_source(texts[0])
        for old_source, new_source in zip(texts, texts[1:]):
            analysis, report = update_analysis(
                analysis, old_source, new_source
            )
            modes.append(report.mode)
            cold = analyze_source(new_source)
            assert v3_view(analysis, name) == v3_view(cold, name), (
                f"update (mode={report.mode}, fallback={report.fallback}) "
                f"diverges from cold for {name}"
            )
            # The v3 view expands the v5 row and set dictionary, so it
            # would hide numbering that follows a spliced result's
            # tables; the raw bytes must match too.
            assert semantic_payload_bytes(
                analysis, name
            ) == semantic_payload_bytes(cold, name), (
                f"row or set numbering of the update differs for {name}"
            )
            assert _answers(analysis) == _answers(cold), (
                f"query answers diverge for {name}"
            )
    return modes


@pytest.mark.parametrize(
    "chains,modes",
    [
        pytest.param(
            functools.partial(_fuzz_chains, config, seed), None, id=test_id
        )
        for test_id, config, seed in TIER1
    ]
    + [
        pytest.param(_stanford_chain, None, id="stanford-chain"),
        pytest.param(_fanout_chain, ["splice", "splice"], id="fanout-chain"),
        pytest.param(_relay_chain, ["splice", "splice"], id="relay-chain"),
    ],
)
def test_update_equals_cold(chains, modes):
    """Tier-1: every edit kind on one seed per idiom family, plus edit
    chains; where ``modes`` is given, the tier of each step."""
    taken = _check(chains())
    if modes is not None:
        assert taken == modes


@pytest.mark.slow
@pytest.mark.parametrize(
    "config_name,seed",
    [(config, seed) for _, config, seed in CORPUS if seed != 0],
    ids=[test_id for test_id, _, seed in CORPUS if seed != 0],
)
def test_update_equals_cold_full(config_name, seed):
    """Nightly: the remaining seeds of the full 56-program corpus."""
    _check(_fuzz_chains(config_name, seed))
