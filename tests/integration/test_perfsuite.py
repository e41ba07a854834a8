"""The call-memo stress programs of the perfsuite are analyzed correctly.

The two programs in :mod:`repro.benchsuite.perfsuite` exist to stress
the points-to core: deep call trees re-dispatched under global
churn ("relay") and a wide fan-out of loop workers interleaved with
stable-slice probe calls ("fanout").  Tier-1 checks that they are
analyzed soundly and that the slice-keyed call memo actually fires on
them (they are the programs the memo is designed for); their semantic
payloads are pinned by ``tests/interp/test_golden_digests.py``.
"""

from __future__ import annotations

import pytest

from repro.benchsuite.perfsuite import PERF_BENCHMARKS
from repro.core import perf
from repro.core.analysis import analyze_source
from repro.core.statistics import collect_perf
from repro.interp.soundness import check_soundness

NAMES = sorted(PERF_BENCHMARKS)


@pytest.fixture(autouse=True)
def _default_config():
    perf.reset()
    yield
    perf.reset()


@pytest.mark.parametrize("name", NAMES)
class TestPerfSuite:
    def test_sound(self, name):
        report = check_soundness(
            PERF_BENCHMARKS[name].source, max_steps=500_000
        )
        assert report.ok, report.violations[:3]
        assert report.statements_checked > 0

    def test_slice_memo_fires(self, name):
        analysis = analyze_source(PERF_BENCHMARKS[name].source)
        row = collect_perf(analysis, name)
        assert row.slice_lookups > 0
        # The stable-slice call batteries (ping/probe) make repeated
        # calls whose reachable slice never changes — most lookups
        # must hit even while unrelated globals churn.
        assert row.slice_hits > 0
        assert row.slice_hit_rate > 0.5
