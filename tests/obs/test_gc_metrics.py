"""Cyclic-collector activity in the telemetry plane.

While a tracer is installed, :mod:`repro.obs`'s ``gc.callbacks`` hook
records every collection into it: count, pause seconds and objects
freed, per generation.  The figures live in the snapshot's ``"gc"``
section (not among the counters, which count work), merge and fold
like counters, and reach the metrics verb and the Prometheus export.
"""

from __future__ import annotations

import gc

from repro import obs
from repro.obs.merge import fold_snapshot, merge_snapshots
from repro.obs.prometheus import parse_exposition, render_prometheus
from repro.obs.tracer import MetricsTracer, Tracer
from repro.service.commands import SessionCache, handle_request
from repro.service.store import ResultStore


def _recorded() -> Tracer:
    tracer = Tracer()
    tracer.record_gc(0, 0.001, 5)
    tracer.record_gc(0, 0.002, 0)
    tracer.record_gc(2, 0.010, 40)
    return tracer


def test_record_gc_sums_per_generation():
    snapshot = _recorded().snapshot()
    assert snapshot["gc"] == {
        "gen0": {"collections": 2, "pause_s": 0.003, "collected": 5},
        "gen2": {"collections": 1, "pause_s": 0.01, "collected": 40},
    }
    assert snapshot["counters"] == {}


def test_no_section_without_collections():
    assert "gc" not in Tracer().snapshot()
    obs.NULL_TRACER.record_gc(0, 0.001, 5)
    assert obs.NULL_TRACER.snapshot() == {}


def test_collections_are_recorded_only_while_tracing():
    with obs.tracing(MetricsTracer()) as tracer:
        gc.collect()
    gen2 = tracer.snapshot()["gc"]["gen2"]
    assert gen2["collections"] >= 1 and gen2["pause_s"] >= 0.0
    quiet = Tracer()
    gc.collect()  # no tracer installed: nothing reaches ``quiet``
    assert quiet.gc == {}
    assert tracer.counters == {}


def test_merge_and_fold_sum_the_section():
    one, two = _recorded().snapshot(), _recorded().snapshot()
    merged = merge_snapshots([("worker-0", one), ("worker-1", two), ("server", {})])
    assert merged["gc"]["gen0"] == {
        "collections": 4, "pause_s": 0.006, "collected": 10,
    }
    assert "gc" not in merge_snapshots([("server", {})])
    folded = MetricsTracer()
    fold_snapshot(folded, one)
    fold_snapshot(folded, two)
    assert folded.snapshot()["gc"] == merged["gc"]


def test_prometheus_families_are_labelled_by_generation():
    families = parse_exposition(render_prometheus(_recorded().snapshot()))
    samples = families["repro_gc_collections_total"]["samples"]
    assert families["repro_gc_collections_total"]["type"] == "counter"
    assert [(labels, value) for _, labels, value in samples] == [
        ({"generation": "0"}, 2.0),
        ({"generation": "2"}, 1.0),
    ]
    assert families["repro_gc_pause_seconds_total"]["samples"][1][2] == 0.01
    assert families["repro_gc_collected_objects_total"]["samples"][0][2] == 5.0


def test_metrics_verb_reports_collections(tmp_path):
    store, sessions = ResultStore(tmp_path / "store"), SessionCache()
    with obs.tracing(MetricsTracer()):
        gc.collect()
        json_result = handle_request({"cmd": "metrics"}, store, sessions)
        text_result = handle_request(
            {"cmd": "metrics", "format": "prometheus"}, store, sessions
        )
    assert json_result["result"]["metrics"]["gc"]["gen2"]["collections"] >= 1
    families = parse_exposition(text_result["result"]["prometheus"])
    assert "repro_gc_pause_seconds_total" in families
