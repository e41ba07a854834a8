"""Tests of the benchmark itself: calibration scaling, the percentile
rule, workload determinism per seed, the correctness gate's diff rule,
and layer coverage of the traced run."""

import json
from collections import Counter
from pathlib import Path

import pytest
from repro.service.queries import QuerySession

from pbench import calib, gate, workloads
from pbench.drivers import InProcess
from pbench.layers import BINDINGS, SpanRecorder, _resolve
from pbench.runners import Timeline
from pbench.stats import (
    TooFewSamples,
    min_samples,
    nearest_rank,
    reported_percentile,
)

ROOT = Path(__file__).resolve().parents[2]


# -- calibration -------------------------------------------------------------


class FixedCalibrator(calib.Calibrator):
    """Readings from a script instead of the kernel."""

    def __init__(self, readings):
        super().__init__()
        self._script = list(readings)

    def mark(self) -> int:
        self.readings.append(self._script.pop(0))
        self.taken_at.append(0.0)
        return len(self.readings) - 1


def test_factor_scales_to_the_nominal_kernel_duration():
    cal = FixedCalibrator([calib.KERNEL_NOMINAL_MS * 2, calib.KERNEL_NOMINAL_MS * 2])
    before = cal.mark()
    cal.mark()
    # A host running at half speed doubles both the kernel and the
    # request; the calibrated duration is the reference-speed one.
    assert 0.2 * cal.factor(before) == pytest.approx(0.1)


def test_factor_is_a_centered_median_of_readings():
    nominal = calib.KERNEL_NOMINAL_MS
    # A one-reading outlier does not move the factor; a speed step
    # that persists does.
    cal = FixedCalibrator([1.0] * 5 + [9.0] + [1.0] * 5 + [2.0] * 12)
    for _ in range(23):
        cal.mark()
    assert cal.factor(5) == pytest.approx(nominal / 1.0)
    assert cal.factor(4) == pytest.approx(nominal / 1.0)
    assert cal.factor(18) == pytest.approx(nominal / 2.0)


def test_timeline_scales_each_segment_by_its_own_readings():
    nominal = calib.KERNEL_NOMINAL_MS
    timeline = Timeline(FixedCalibrator([nominal] * 2 + [2 * nominal] * 8))
    timeline.add(0.010)
    timeline.close()
    timeline.close()  # empty segment: no reading taken
    for _ in range(3):
        timeline.add(0.030)
        timeline.close()
    assert len(timeline.cal.readings) == 5
    assert timeline.opened_by == [0, 1, 2, 3]
    assert timeline.raw == [0.010, 0.030, 0.030, 0.030]
    calibrated = timeline.calibrated()
    # The first segments sit where the host turned slow; the later
    # ones are scaled by the slow readings around them.
    assert calibrated[-1] == pytest.approx(0.015)
    assert all(value <= raw for value, raw in zip(calibrated, timeline.raw))


def test_kernel_is_deterministic_work():
    assert calib.calibration_kernel() == calib.calibration_kernel()
    assert calib.kernel_reading() > 0


# -- percentile rule -----------------------------------------------------------


def test_nearest_rank_and_samples_beyond():
    values = list(range(1, 101))
    assert nearest_rank(values, 50) == (50, 50)
    assert nearest_rank(values, 95) == (95, 5)


def test_p95_needs_ten_samples_beyond_it():
    assert min_samples(95) == 200
    with pytest.raises(TooFewSamples):
        reported_percentile([1.0] * 199, 95)
    values = [float(i) for i in range(200)]
    assert reported_percentile(values, 95) == 189.0
    assert sum(v > 189.0 for v in values) == 10


# -- workload determinism -------------------------------------------------------


def test_program_sets():
    cold = workloads.cold_suite_programs()
    assert len(cold) == 17 + 1 + 56
    assert len({source for _, source in cold}) == len(cold)
    deep = workloads.cold_deep_programs()
    assert len({source for _, source in deep}) == len(deep) == 8
    assert len(workloads.edit_watch_programs()) == 19
    warm = workloads.warm_query_programs(3)
    assert len(warm) == workloads.WORKING_SET
    assert len({source for _, source in warm}) == workloads.WORKING_SET
    assert warm == workloads.warm_query_programs(3)
    assert warm != workloads.warm_query_programs(4)


def _pools(names):
    return {name: [f"q{i}:{name}" for i in range(3)] for name in names}


@pytest.mark.parametrize("seed", [0, 1, 17])
def test_cold_pass_repeats_for_a_seed(seed):
    names = [f"p{i}" for i in range(30)]
    pools = _pools(names)
    first = workloads.cold_pass(seed, 2, names, pools)
    assert first == workloads.cold_pass(seed, 2, names, pools)
    assert sorted(name for name, _ in first) == sorted(names)
    assert first != workloads.cold_pass(seed + 1, 2, names, pools)


@pytest.mark.parametrize("seed", [0, 1, 17])
def test_zipf_stream_repeats_for_a_seed(seed):
    names = [f"p{i}" for i in range(90)]
    pools = _pools(names)

    def draw(s):
        stream = workloads.ZipfStream(s, [names[:20], names[20:]], pools, "timed")
        return [stream.next() for _ in range(300)]

    assert draw(seed) == draw(seed)
    assert draw(seed) != draw(seed + 1)
    counts = Counter(name for name, _ in draw(seed))
    assert counts.most_common(1)[0][1] > 300 / 90 * 3  # skewed


@pytest.mark.parametrize("seed", [0, 5])
def test_edit_chain_repeats_for_a_seed(seed):
    programs = workloads.edit_watch_programs()[:4]

    def walk(s):
        chain = workloads.EditChain(s, programs)
        return [chain.next() for _ in range(6)]

    steps = walk(seed)
    assert steps == walk(seed)
    for name, old, new, kind, probe in steps:
        assert old != new
        assert kind in workloads.EDIT_KINDS + ("undo",)


def test_query_pool_is_seed_independent_and_answerable(tmp_path):
    name, source = workloads.suite_programs()[0]
    server = InProcess(tmp_path / "store")
    server.call({"source": source, "query": "labels"})
    session = QuerySession(server.analysis_for(source), source)
    pool = workloads.query_pool(session, name)
    assert 0 < len(pool) <= workloads.POOL_SIZE
    assert pool == workloads.query_pool(session, name)
    for query in pool:
        response, _ = server.call({"source": source, "query": query})
        assert response["ok"], (query, response)


# -- gate ---------------------------------------------------------------------------


def test_normalize_drops_volatile_fields():
    assert gate.normalize("labels", {"A": ["main", 12]}) == {"A": "main"}
    summary = {"cached": True, "queries": {"x": 1}, "labels": 2}
    assert gate.normalize("summary", summary) == {"labels": 2}


def test_diff_agrees_with_cold_checks(monkeypatch):
    monkeypatch.setattr(gate, "finding_fingerprint", lambda record: record["id"])
    old = Counter({"a": 1, "b": 2})
    new = Counter({"b": 2, "c": 1})
    result = {"new": [{"id": "c"}], "fixed": [{"id": "a"}], "unchanged": 2}
    assert gate.diff_agrees(result, old, new)
    assert not gate.diff_agrees(dict(result, unchanged=1), old, new)
    assert not gate.diff_agrees(dict(result, new=[]), old, new)
    assert not gate.diff_agrees(dict(result, fixed=[{"id": "z"}]), old, new)


# -- layer coverage of the traced run ---------------------------------------------------


def _traced(recorder, request_id, server, request):
    (response, _), counters = recorder.traced_call(request_id, server.call, request)
    assert response["ok"], response
    return recorder.per_request()[request_id], counters


def test_traced_cold_request_covers_its_layers(tmp_path):
    _, source = workloads.suite_programs()[0]
    recorder = SpanRecorder()
    layers, counters = _traced(
        recorder, 0, InProcess(tmp_path / "s"), {"source": source, "query": "summary"}
    )
    for layer in ("frontend.parse", "simple.simplify", "core.analyze", "serialize.encode",
                  "store.key", "store.put", "store.get", "queries.eval"):
        assert layers.get(layer, 0.0) > 0.0, layer
    covered = 1.0 - layers["request"] / recorder.root_time(0)
    assert covered > 0.9
    assert counters.get("analysis.worklist_visits", 0) > 0
    # The originals are back in place after the request.
    for _, module, path in BINDINGS:
        owner, name, current = _resolve(module, path)
        current = getattr(current, "__func__", current)
        assert not hasattr(current, "__wrapped__"), (module, path)


def test_traced_warm_and_edit_requests_cover_their_layers(tmp_path):
    name, source = workloads.edit_watch_programs()[0]
    recorder = SpanRecorder()
    server = InProcess(tmp_path / "s", capacity=1)
    server.call({"cmd": "watch", "source": source})
    # Evict the session so the next query re-decodes from the store.
    server.call({"source": workloads.suite_programs()[1][1], "query": "summary"})
    layers, _ = _traced(recorder, 1, server, {"source": source, "query": "labels"})
    assert layers.get("serialize.decode", 0.0) > 0.0
    assert layers.get("queries.eval.labels", 0.0) > 0.0
    server = InProcess(tmp_path / "e")
    server.call({"cmd": "watch", "source": source})
    _, _, new, _, _ = workloads.EditChain(0, [(name, source)]).next()
    layers, _ = _traced(
        recorder, 2, server, {"cmd": "watch", "source": new, "from": source}
    )
    for layer in ("incremental.update", "checkers.diff", "store.put"):
        assert layers.get(layer, 0.0) > 0.0, layer


def test_benchmark_json_matches_the_runners():
    from pbench.runners import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = [w["name"] for w in spec["workloads"]]
    manifest = json.loads((ROOT / "perfbench" / "manifest.json").read_text())
    assert listed == list(manifest["workloads"])
    assert set(WORKLOADS) == set(listed) | set(manifest["held_back"])
