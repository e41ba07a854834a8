"""The daemon's telemetry plane, end to end over real TCP.

Covers the tentpole surfaces: distributed traces merged across the
front-end/worker process boundary, the fanned-out-and-merged metrics
registry, the event journal (including worker-event ingestion and the
slow-request log), Prometheus exposition over both the protocol verb
and the ``--metrics-port`` HTTP listener, worker-death robustness, and
transport identity of the worker-side span tree (stdin vs TCP).
"""

from __future__ import annotations

import io
import json
import time
import urllib.error
import urllib.request

import pytest

from repro.daemon import DaemonClient
from repro.obs.prometheus import parse_exposition

from tests.daemon.conftest import FAST_SOURCE, connect, heavy_source

UPDATED_SOURCE = FAST_SOURCE.replace("return 0", "return 1")


def _span_names(span: dict) -> list:
    """The span tree as nested name lists (durations masked)."""
    return [
        span["name"],
        [_span_names(child) for child in span.get("children", ())],
    ]


# -- distributed traces -----------------------------------------------------


def test_traced_request_merges_server_and_worker_spans(daemon_factory):
    host, port, _ = daemon_factory(workers=2)
    with connect(host, port) as client:
        response = client.traced({"source": FAST_SOURCE, "query": "labels"})
        assert response["ok"]
        trace_id = response["trace_id"]
        fetched = client.trace(trace_id)
    assert fetched["ok"]
    document = fetched["result"]
    assert document["trace_version"] == 1
    assert document["trace_id"] == trace_id
    assert document["transport"] == "tcp"
    (root,) = document["spans"]
    assert root["name"] == "daemon.request"
    assert root["attrs"]["cmd"] == "query"
    child_names = [child["name"] for child in root["children"]]
    assert child_names == [
        "daemon.admission",
        "daemon.queue",
        "daemon.worker",
    ]
    worker_span = root["children"][2]
    (handle,) = worker_span["children"]
    assert handle["name"] == "handle"
    phases = [child["name"] for child in handle["children"]]
    assert "frontend.parse" in phases
    assert "core.analysis" in phases
    # The request's own metrics ride along with the document.
    assert document["metrics"]["counters"]["frontend.parses"] == 1


def test_client_supplied_trace_id_is_honored(daemon_factory):
    host, port, _ = daemon_factory()
    with connect(host, port) as client:
        response = client.traced(
            {"source": FAST_SOURCE, "query": "labels"}, trace_id="my-trace-1"
        )
        assert response["trace_id"] == "my-trace-1"
        assert client.trace("my-trace-1")["ok"]


def test_unknown_trace_id_is_a_structured_error(daemon_factory):
    host, port, _ = daemon_factory()
    with connect(host, port) as client:
        client.traced({"source": FAST_SOURCE, "query": "labels"})
        answer = client.trace("does-not-exist")
    assert not answer["ok"]
    assert "unknown trace id" in answer["error"]
    assert len(answer["known_ids"]) == 1
    assert "hint" in answer


def test_trace_verb_accepts_id_shorthand(daemon_factory):
    host, port, _ = daemon_factory()
    with connect(host, port) as client:
        response = client.traced({"source": FAST_SOURCE, "query": "labels"})
        answer = client.request(
            {"cmd": "trace", "id": response["trace_id"]}
        )
    assert answer["ok"]


def test_traced_and_untraced_twins_still_coalesce(daemon_factory):
    # "trace" leaves the body before the coalesce key is computed, so
    # a traced request and its untraced twin share one analysis; both
    # get answers and the traced one gets its trace.
    host, port, handle = daemon_factory(workers=1)
    source = heavy_source(100)
    with connect(host, port) as one, connect(host, port) as two:
        one.send({"source": source, "query": "labels", "trace": True})
        two.send({"source": source, "query": "labels"})
        first, second = one.recv(), two.recv()
    assert first["ok"] and second["ok"]
    assert "trace_id" in first
    counters = handle.daemon.tracer.counters
    assert counters.get("daemon.coalesced", 0) >= 1


# -- merged metrics ---------------------------------------------------------


def test_metrics_fan_out_and_merge(daemon_factory):
    host, port, _ = daemon_factory(workers=2)
    with connect(host, port) as client:
        for source in (FAST_SOURCE, UPDATED_SOURCE):
            assert client.request({"source": source, "query": "labels"})[
                "ok"
            ]
        answer = client.metrics(per_worker=True)
    assert answer["ok"]
    result = answer["result"]
    merged = result["metrics"]
    # Both parses happened in workers; the merged registry must count
    # them regardless of which shard they landed on.
    assert merged["counters"]["frontend.parses"] == 2
    assert merged["counters"]["daemon.requests"] >= 2
    per_worker = result["per_worker"]
    assert set(per_worker) == {"server", "worker-0", "worker-1"}
    split = sum(
        snap.get("counters", {}).get("frontend.parses", 0)
        for name, snap in per_worker.items()
        if name != "server"
    )
    assert split == 2
    assert "gauge_sources" in merged
    assert result["workers"] == 2
    assert result["backend"].get("backend") == "file"


def test_metrics_rejects_unknown_format(daemon_factory):
    host, port, _ = daemon_factory()
    with connect(host, port) as client:
        answer = client.metrics(format="xml")
    assert not answer["ok"]
    assert answer["known_formats"] == ["json", "prometheus"]


def test_prometheus_verb_renders_valid_exposition(daemon_factory):
    host, port, _ = daemon_factory()
    with connect(host, port) as client:
        assert client.request({"source": FAST_SOURCE, "query": "labels"})[
            "ok"
        ]
        answer = client.metrics(format="prometheus")
    assert answer["ok"]
    families = parse_exposition(answer["result"]["prometheus"])
    assert "repro_daemon_requests_total" in families
    assert "repro_frontend_parses_total" in families
    assert families["repro_daemon_request_seconds"]["type"] == "histogram"


def test_metrics_http_endpoint(daemon_factory):
    host, port, handle = daemon_factory(metrics_port=0)
    scrape_port = handle.daemon.metrics_port
    assert scrape_port not in (None, 0, port)
    with connect(host, port) as client:
        assert client.request({"source": FAST_SOURCE, "query": "labels"})[
            "ok"
        ]
    with urllib.request.urlopen(
        f"http://{host}:{scrape_port}/metrics", timeout=30
    ) as reply:
        assert reply.status == 200
        assert reply.headers["Content-Type"].startswith("text/plain")
        text = reply.read().decode()
    families = parse_exposition(text)
    assert "repro_daemon_requests_total" in families
    assert "repro_daemon_uptime_seconds" in families
    with pytest.raises(urllib.error.HTTPError) as not_found:
        urllib.request.urlopen(
            f"http://{host}:{scrape_port}/bogus", timeout=30
        )
    assert not_found.value.code == 404


# -- the journal ------------------------------------------------------------


def test_journal_records_lifecycle_and_worker_events(daemon_factory):
    host, port, _ = daemon_factory(workers=1)
    with connect(host, port) as client:
        assert client.request({"source": FAST_SOURCE, "query": "labels"})[
            "ok"
        ]
        assert client.request(
            {
                "cmd": "update",
                "from": FAST_SOURCE,
                "source": UPDATED_SOURCE,
            }
        )["ok"]
        answer = client.events()
    assert answer["ok"]
    events = answer["result"]["events"]
    kinds = [event["kind"] for event in events]
    assert kinds[0] == "daemon_start"
    # The update tier chosen inside the worker shipped up through the
    # result queue and was re-sequenced into the daemon's journal.
    tier_events = [e for e in events if e["kind"] == "update_tier"]
    assert tier_events
    assert tier_events[0]["source"] == "worker-0"
    assert tier_events[0]["tier"] in ("splice", "cold", "unchanged")
    seqs = [event["seq"] for event in events]
    assert seqs == sorted(seqs)


def test_events_since_future_is_structured_error(daemon_factory):
    host, port, _ = daemon_factory()
    with connect(host, port) as client:
        answer = client.events(since=10_000)
    assert not answer["ok"]
    assert "future" in answer["error"]
    assert "next_seq" in answer


def test_update_tier_counters_reach_merged_metrics(daemon_factory):
    host, port, _ = daemon_factory(workers=1)
    with connect(host, port) as client:
        assert client.request({"source": FAST_SOURCE, "query": "labels"})[
            "ok"
        ]
        update = client.request(
            {"cmd": "update", "from": FAST_SOURCE, "source": UPDATED_SOURCE}
        )
        assert update["ok"]
        mode = update["result"]["mode"]
        merged = client.metrics()["result"]["metrics"]
    assert merged["counters"][f"incremental.tier.{mode}"] == 1


# -- slow-request log -------------------------------------------------------


def test_slow_requests_are_journaled_with_a_trace(daemon_factory):
    host, port, _ = daemon_factory(slow_ms=0.0001)  # everything is slow
    with connect(host, port) as client:
        response = client.request({"source": FAST_SOURCE, "query": "labels"})
        assert response["ok"]
        # Even untraced, a slow request gets a trace id stamped and a
        # document captured.
        trace_id = response["trace_id"]
        events = client.events()["result"]["events"]
        document = client.trace(trace_id)["result"]
    slow_events = [e for e in events if e["kind"] == "slow_request"]
    assert slow_events
    assert slow_events[0]["trace_id"] == trace_id
    assert slow_events[0]["wall_ms"] > 0
    assert document["slow"] is True
    (root,) = document["spans"]
    assert root["name"] == "daemon.request"


# -- telemetry off ----------------------------------------------------------


def test_telemetry_off_serves_identically_but_dark(daemon_factory):
    host, port, _ = daemon_factory(telemetry=False)
    with connect(host, port) as client:
        response = client.traced({"source": FAST_SOURCE, "query": "labels"})
        assert response["ok"]
        assert "trace_id" not in response
        metrics = client.metrics()
        events = client.events()
    result = metrics["result"]
    assert result["telemetry"] is False
    assert result["tracing"] is False
    assert result["metrics"]["counters"] == {}
    assert events["result"]["events"] == []


# -- worker death -----------------------------------------------------------


def test_worker_death_gives_structured_error_and_restart(daemon_factory):
    import threading

    host, port, handle = daemon_factory(workers=1)
    source = heavy_source(200)
    outcome: dict = {}

    def ask() -> None:
        with connect(host, port) as client:
            outcome["response"] = client.request(
                {"source": source, "query": "labels"}
            )

    asker = threading.Thread(target=ask)
    asker.start()
    # Kill the worker as soon as the daemon has queued the job on it.
    # Wherever the kill lands (before the worker takes the job, inside
    # the queue read, or mid-analysis), the job is failed and the
    # respawned worker gets a fresh queue.  A fixed delay from the send
    # is not safe: the whole request can finish in under half a second.
    deadline = time.time() + 30
    while not handle.daemon._jobs:
        assert time.time() < deadline
        time.sleep(0.002)
    handle.daemon._workers[0].kill()
    asker.join(60)
    response = outcome.get("response")
    assert response is not None, "client must never hang on worker death"
    assert response["ok"] is False
    assert response["reason"] == "worker_died"
    assert response["retryable"] is True
    assert "restarted" in response["error"]
    # The daemon recovered: the same connection pattern works again.
    deadline = time.time() + 30
    while not handle.daemon._workers[0].is_alive():
        assert time.time() < deadline
        time.sleep(0.05)
    with connect(host, port) as client:
        retry = client.request({"source": FAST_SOURCE, "query": "labels"})
        assert retry["ok"]
        events = client.events()["result"]["events"]
    restarts = [e for e in events if e["kind"] == "worker_restart"]
    assert restarts
    assert restarts[0]["worker"] == 0


# -- transport identity -----------------------------------------------------


def test_worker_trace_subtree_matches_stdin_trace(daemon_factory, tmp_path):
    """The worker-side span tree under ``daemon.worker`` must be
    structurally identical to the stdin serve loop's trace of the same
    request — same handler, same spans, different transport."""
    from repro.service.batch import serve
    from repro.service.store import ResultStore

    host, port, _ = daemon_factory(workers=1)

    with connect(host, port) as client:
        response = client.traced({"source": FAST_SOURCE, "query": "labels"})
        over_tcp = client.trace(response["trace_id"])["result"]

    stdout = io.StringIO()
    lines = [
        json.dumps({"source": FAST_SOURCE, "query": "labels", "trace": True}),
        json.dumps({"cmd": "trace", "trace_id": "ignored"}),
    ]
    store = ResultStore(f"file:{tmp_path}/stdin-store")
    serve(
        io.StringIO("".join(line + "\n" for line in lines)), stdout, store
    )
    responses = [
        json.loads(line) for line in stdout.getvalue().splitlines()
    ]
    stdin_trace_id = responses[0]["trace_id"]
    stdout = io.StringIO()
    serve(
        io.StringIO(
            json.dumps({"cmd": "trace", "trace_id": stdin_trace_id}) + "\n"
        ),
        stdout,
        store,
    )
    over_stdin = json.loads(stdout.getvalue())["result"]

    tcp_worker_span = over_tcp["spans"][0]["children"][2]
    assert tcp_worker_span["name"] == "daemon.worker"
    (tcp_handle,) = tcp_worker_span["children"]
    (stdin_handle,) = over_stdin["spans"]
    assert _span_names(tcp_handle) == _span_names(stdin_handle)


# -- CLI --------------------------------------------------------------------


class TestCli:
    def test_daemon_trace_renders_a_tree(
        self, daemon_factory, tmp_path, capsys
    ):
        from repro.cli import main

        host, port, _ = daemon_factory()
        program = tmp_path / "prog.c"
        program.write_text(FAST_SOURCE)
        rc = main(
            [
                "daemon-trace",
                "--host",
                host,
                "--port",
                str(port),
                str(program),
                "--query",
                "labels",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert out.startswith("trace ")
        assert "daemon.request" in out
        assert "daemon.worker" in out
        assert "frontend.parse" in out

    def test_daemon_trace_unknown_id_fails_with_hint(
        self, daemon_factory, capsys
    ):
        from repro.cli import main

        host, port, _ = daemon_factory()
        rc = main(
            [
                "daemon-trace",
                "--host",
                host,
                "--port",
                str(port),
                "--id",
                "nope",
            ]
        )
        captured = capsys.readouterr()
        assert rc == 1
        assert "unknown trace id" in captured.err

    def test_daemon_trace_connect_failure_is_rc_2(self, capsys):
        from repro.cli import main

        rc = main(
            ["daemon-trace", "--port", "1", "--id", "x", "--timeout", "2"]
        )
        assert rc == 2
        assert "cannot connect" in capsys.readouterr().err

    def test_top_once_renders_a_frame(self, daemon_factory, capsys):
        from repro.cli import main

        host, port, _ = daemon_factory()
        with connect(host, port) as client:
            assert client.request(
                {"source": FAST_SOURCE, "query": "labels"}
            )["ok"]
        rc = main(
            ["top", "--host", host, "--port", str(port), "--once"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "workers" in out
        assert "requests" in out
        assert "p50" in out
        assert "parse" in out  # the phase split line
