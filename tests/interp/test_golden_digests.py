"""Frozen golden digests of the points-to core's output.

For every program in the identity corpus — the 17 suite programs,
``livc``, the perfsuite ``relay``/``fanout`` programs and the
56-program soundness-fuzz corpus — ``golden_digests.json`` pins two
sha256 digests:

* ``payload``: the *v3 view* of
  :func:`repro.service.serialize.semantic_payload_bytes` — the encoded
  artifact minus the run-shape counters, stamped ``format_version: 3``
  and carrying the Tables 2-6 ``summaries`` section that v3 artifacts
  shipped, now derived from the live analysis on demand.  The digests
  were frozen from v3 artifacts; the view pins every byte of the v4
  artifact *and* the on-demand tables against them;
* ``answers``: the query answers ``list_labels`` (statement ids
  renumbered canonically, as the artifact does), ``call_sites`` and
  ``summary`` of a :class:`~repro.service.queries.QuerySession`.

The digests were generated while the bitset, dict and legacy cores
still coexisted, in the same run that asserted all three produced
identical payloads and answers; they now stand in for that live
three-core comparison.  Any change to the core must keep them.

Regenerate (and justify the regeneration in CHANGES.md) with::

    PYTHONPATH=src python -m tests.interp.test_golden_digests --regenerate
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.benchsuite import BENCHMARKS, PERF_BENCHMARKS, livc_source
from repro.benchsuite.generator import generate_program
from repro.core.analysis import analyze_source
from repro.core.statistics import (
    collect_table2,
    collect_table3,
    collect_table4,
    collect_table5,
    collect_table6,
)
from repro.service.queries import QuerySession
from repro.service.serialize import (
    _canonical_stmt_ids,
    canonical_json,
    semantic_payload_bytes,
)

from .test_soundness_fuzz import CONFIGS, CORPUS

GOLDEN_PATH = Path(__file__).with_name("golden_digests.json")


@functools.lru_cache(maxsize=None)
def corpus() -> dict[str, str]:
    """Program name -> source for every program the digests pin."""
    programs = {name: BENCHMARKS[name].source for name in sorted(BENCHMARKS)}
    programs["livc"] = livc_source()
    for name in sorted(PERF_BENCHMARKS):
        programs[name] = PERF_BENCHMARKS[name].source
    for test_id, config_name, seed in CORPUS:
        programs[test_id] = generate_program(seed, CONFIGS[config_name])
    return programs


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


TABLES = {
    "table2": collect_table2,
    "table3": collect_table3,
    "table4": collect_table4,
    "table5": collect_table5,
    "table6": collect_table6,
}


def v3_view(analysis, name: str) -> bytes:
    """The semantic payload as a v3 artifact encoded it: the v4 bytes
    plus the Tables 2-6 ``summaries`` section, under version 3."""
    payload = json.loads(semantic_payload_bytes(analysis, name))
    payload["format_version"] = 3
    payload["summaries"] = {
        key: asdict(collect(analysis, name)) for key, collect in TABLES.items()
    }
    return canonical_json(payload)


def digests(name: str, source: str) -> dict[str, str]:
    """The ``payload`` and ``answers`` digests of one program."""
    analysis = analyze_source(source)
    session = QuerySession(analysis)
    stmt_ids = _canonical_stmt_ids(analysis.program)
    labels = {
        label: [func, stmt_ids[stmt_id]]
        for label, (func, stmt_id) in session.list_labels().items()
    }
    answers = [labels, session.call_sites(), session.summary()]
    return {
        "payload": _sha256(v3_view(analysis, name)),
        "answers": _sha256(
            json.dumps(answers, sort_keys=True, separators=(",", ":")).encode()
        ),
    }


def _golden() -> dict[str, dict[str, str]]:
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_the_corpus():
    assert sorted(_golden()) == sorted(corpus())
    assert len(_golden()) == 76


@pytest.mark.parametrize("name", sorted(corpus()))
def test_golden_digest(name):
    assert digests(name, corpus()[name]) == _golden()[name], (
        f"{name}: analysis output no longer matches its golden digest"
    )


def regenerate() -> None:
    golden = {name: digests(name, src) for name, src in corpus().items()}
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit(f"usage: {sys.argv[0]} --regenerate")
    regenerate()
