"""The concurrent daemon: serving, coalescing, quotas, shedding, drain."""

from __future__ import annotations

import json
import threading

import pytest

from repro.service.store import ResultStore

from tests.daemon.conftest import FAST_SOURCE, connect, heavy_source


def metrics_counters(client) -> dict:
    response = client.request({"cmd": "metrics"})
    assert response["ok"]
    return response["result"]["metrics"].get("counters", {})


class TestServing:
    def test_query_roundtrip(self, daemon_factory):
        host, port, _ = daemon_factory()
        with connect(host, port) as client:
            response = client.request(
                {"id": 7, "source": FAST_SOURCE, "query": "points_to:p@L"}
            )
            assert response["ok"] and response["id"] == 7
            assert response["result"] == [["g", "D"]]
            assert "wall_ms" in response["metrics"]

    def test_warm_second_client_hits_store(self, daemon_factory):
        host, port, _ = daemon_factory()
        with connect(host, port) as client:
            first = client.request({"source": FAST_SOURCE, "query": "labels"})
        with connect(host, port) as client:
            second = client.request(
                {"source": FAST_SOURCE, "query": "labels"}
            )
        assert first["ok"] and second["ok"]
        assert second["result"] == first["result"]
        assert second["result"]["L"][0] == "main"

    def test_errors_match_protocol(self, daemon_factory):
        host, port, _ = daemon_factory()
        with connect(host, port) as client:
            missing = client.request({"source": FAST_SOURCE})
            assert not missing["ok"] and "query" in missing["error"]
            unknown = client.request({"cmd": "frobnicate"})
            assert not unknown["ok"]
            assert unknown["known_cmds"] == sorted(unknown["known_cmds"])
            bad_query = client.request(
                {"source": FAST_SOURCE, "query": "nonsense"}
            )
            assert not bad_query["ok"]

    def test_bad_json_line(self, daemon_factory):
        host, port, _ = daemon_factory()
        with connect(host, port) as client:
            client._file.write(b"{nope\n")
            client._file.flush()
            response = client.recv()
            assert not response["ok"] and "bad JSON" in response["error"]

    def test_sixteen_concurrent_clients(self, daemon_factory):
        host, port, _ = daemon_factory(workers=2, client_inflight=32)
        sources = [
            FAST_SOURCE,
            "int h; int main() { int *q; q = &h; L: return 0; }\n",
        ]
        results: list[dict] = [None] * 16
        errors: list[BaseException] = []

        def client_body(index: int) -> None:
            try:
                with connect(host, port) as client:
                    response = client.request(
                        {
                            "id": index,
                            "source": sources[index % 2],
                            "query": "labels",
                        }
                    )
                    results[index] = response
            except BaseException as exc:
                errors.append(exc)

        threads = [
            threading.Thread(target=client_body, args=(i,))
            for i in range(16)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120)
        assert not errors
        assert all(r is not None and r["ok"] for r in results)
        assert all(r["id"] == i for i, r in enumerate(results))


class TestCoalescing:
    def test_duplicates_run_one_analysis_per_key(self, daemon_factory):
        host, port, _ = daemon_factory(client_inflight=32, queue_limit=64)
        source = heavy_source(100)
        request = {"source": source, "query": "points_to:q@LM"}
        responses: list[dict] = [None] * 8
        errors: list[BaseException] = []

        def client_body(index: int) -> None:
            try:
                with connect(host, port) as client:
                    responses[index] = client.request(dict(request))
            except BaseException as exc:
                errors.append(exc)

        threads = [
            threading.Thread(target=client_body, args=(i,)) for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120)
        assert not errors
        assert all(r is not None and r["ok"] for r in responses)
        answers = {json.dumps(r["result"], sort_keys=True) for r in responses}
        assert len(answers) == 1, "coalesced fan-out must agree"
        with connect(host, port) as client:
            counters = metrics_counters(client)
        # The acceptance bar: a duplicate-heavy workload performs at
        # most one analysis per unique key, verified by counter.
        assert counters.get("daemon.analyses", 0) == 1
        assert counters.get("daemon.coalesced", 0) >= 1

    def test_distinct_keys_not_coalesced(self, daemon_factory):
        host, port, _ = daemon_factory()
        with connect(host, port) as client:
            for i in range(3):
                source = f"int g{i}; int main() {{ int *p; p = &g{i}; L: return 0; }}\n"
                assert client.request({"source": source, "query": "labels"})[
                    "ok"
                ]
            counters = metrics_counters(client)
        assert counters.get("daemon.analyses", 0) == 3


class TestBackpressure:
    def test_queue_full_sheds_with_retry_hint(self, daemon_factory):
        host, port, _ = daemon_factory(queue_limit=1, client_inflight=32)
        slow = heavy_source(200)
        with connect(host, port) as busy:
            busy.send({"id": 1, "source": slow, "query": "labels"})
            # While the only worker chews on the slow analysis, a
            # different-key request must be shed, not queued forever.
            shed = None
            with connect(host, port) as second:
                for attempt in range(50):
                    response = second.request(
                        {"id": 2, "source": FAST_SOURCE, "query": "labels"}
                    )
                    if not response["ok"]:
                        shed = response
                        break
            assert shed is not None, "expected an overload response"
            assert shed["error"] == "overloaded"
            assert shed["reason"] == "queue_full"
            assert isinstance(shed["retry_after_ms"], int)
            assert shed["retry_after_ms"] >= 50
            # The slow request itself still completes fine.
            assert busy.recv()["ok"]

    def test_client_quota_enforced(self, daemon_factory):
        host, port, _ = daemon_factory(client_inflight=1, queue_limit=64)
        slow = heavy_source(200)
        with connect(host, port) as client:
            client.send({"id": 1, "source": slow, "query": "labels"})
            client.send({"id": 2, "source": FAST_SOURCE, "query": "labels"})
            by_id = {}
            for _ in range(2):
                response = client.recv()
                by_id[response["id"]] = response
            assert by_id[1]["ok"]
            assert not by_id[2]["ok"]
            assert by_id[2]["error"] == "overloaded"
            assert by_id[2]["reason"] == "client_quota"

    def test_shed_counter_surfaces_in_metrics(self, daemon_factory):
        host, port, _ = daemon_factory(client_inflight=1, queue_limit=64)
        slow = heavy_source(200)
        with connect(host, port) as client:
            client.send({"id": 1, "source": slow, "query": "labels"})
            client.send({"id": 2, "source": FAST_SOURCE, "query": "labels"})
            client.recv()
            client.recv()
        with connect(host, port) as client:
            counters = metrics_counters(client)
        assert counters.get("daemon.shed", 0) >= 1


class TestQuitAndDrain:
    def test_quit_drains_inflight_requests(self, daemon_factory, tmp_path):
        store_url = f"file:{tmp_path}/drain-store"
        host, port, handle = daemon_factory(store_url=store_url)
        slow = heavy_source(200)
        with connect(host, port) as busy:
            busy.send({"id": 1, "source": slow, "query": "labels"})
            with connect(host, port) as controller:
                bye = controller.request({"cmd": "quit"})
                assert bye["ok"] and bye["result"] == "bye"
            # The in-flight analysis must complete and be delivered.
            response = busy.recv()
            assert response["ok"]
        handle._done.wait(60)
        assert handle._done.is_set(), "daemon must exit after quit"
        # Flushed store: the drained analysis is durable and valid.
        store = ResultStore(store_url)
        keys = store.keys()
        assert len(keys) == 1
        assert store.get(keys[0]) is not None

    def test_requests_after_quit_are_refused(self, daemon_factory):
        host, port, handle = daemon_factory()
        with connect(host, port) as client:
            assert client.request({"cmd": "quit"})["ok"]
        handle._done.wait(60)
        with pytest.raises((ConnectionError, OSError)):
            with connect(host, port) as client:
                client.request({"source": FAST_SOURCE, "query": "labels"})


class TestSessionSharding:
    def test_warm_sessions_reported_in_metrics(self, daemon_factory):
        host, port, _ = daemon_factory()
        other = "int h; int main() { int *q; q = &h; L: return 0; }\n"
        with connect(host, port) as client:
            client.request({"source": FAST_SOURCE, "query": "labels"})
            client.request({"source": other, "query": "labels"})
            client.request({"source": FAST_SOURCE, "query": "labels"})
            metrics = client.request({"cmd": "metrics"})["result"]
            stats = client.request({"cmd": "stats"})["result"]
        assert metrics["sessions"] == 2
        assert stats["sessions"] == 2
        assert len(stats["queries"]) == 2

    def test_session_lru_bound_respected(self, daemon_factory):
        host, port, _ = daemon_factory(max_sessions=2)
        with connect(host, port) as client:
            for i in range(4):
                source = (
                    f"int g{i}; int main() "
                    f"{{ int *p; p = &g{i}; L: return 0; }}\n"
                )
                assert client.request(
                    {"source": source, "query": "labels"}
                )["ok"]
            stats = client.request({"cmd": "stats"})["result"]
        assert stats["sessions"] == 2
