"""The ``update`` verb over both transports, and its coalescing.

``update`` rides the same ``handle_request`` dispatcher as every other
verb, so the stdin serve loop and the TCP daemon must answer identical
update sequences identically (wall times masked).  On top of transport
identity, concurrent updates targeting the same content key must
coalesce: exactly one computes, the rest reuse its re-keyed session.
"""

from __future__ import annotations

import io
import json
import threading

import pytest

from repro.service.batch import serve
from repro.service.commands import handle_request
from repro.service.store import ResultStore

from tests.daemon.conftest import FAST_SOURCE, connect

#: One-function edit of FAST_SOURCE: same skeleton, main retargeted.
EDITED_SOURCE = "int g; int h; int main() { int *p; p = &h; L: return 0; }\n"

NEVER_SEEN = "int z; int main() { int *r; r = &z; L: return 0; }\n"

CASES = {
    "warm-update": [
        {"id": 1, "source": FAST_SOURCE, "query": "labels"},
        {"id": 2, "cmd": "update", "from": FAST_SOURCE,
         "source": EDITED_SOURCE},
        {"id": 3, "source": EDITED_SOURCE, "query": "labels"},
    ],
    "cold-fallback": [
        {"cmd": "update", "source": EDITED_SOURCE},
        {"source": EDITED_SOURCE, "query": "labels"},
    ],
    "unknown-base": [
        {"cmd": "update", "from": NEVER_SEEN, "source": EDITED_SOURCE},
    ],
    "unchanged": [
        {"source": FAST_SOURCE, "query": "labels"},
        {"cmd": "update", "from": FAST_SOURCE, "source": FAST_SOURCE},
    ],
    "errors": [
        {"cmd": "update"},
        {"cmd": "update", "source": FAST_SOURCE, "options": {"bogus": 1}},
    ],
}


def _lines(case: str) -> list[str]:
    return [json.dumps(line) for line in CASES[case]]


def _mask(response: dict) -> dict:
    masked = dict(response)
    masked.pop("metrics", None)  # per-request wall time
    return masked


def _via_serve(lines: list[str], tmp_path) -> list[dict]:
    stdout = io.StringIO()
    store = ResultStore(f"file:{tmp_path}/serve-store")
    serve(io.StringIO("".join(line + "\n" for line in lines)), stdout, store)
    return [json.loads(line) for line in stdout.getvalue().splitlines()]


def _send_all(host: str, port: int, lines: list[str]) -> list[dict]:
    responses = []
    with connect(host, port) as client:
        for line in lines:
            client._file.write(line.encode() + b"\n")
            client._file.flush()
            responses.append(client.recv())
    return responses


@pytest.mark.parametrize("case", sorted(CASES))
def test_update_answers_identically(case, daemon_factory, tmp_path):
    lines = _lines(case)
    over_stdin = _via_serve(lines, tmp_path)
    host, port, _ = daemon_factory(workers=1)
    over_tcp = _send_all(host, port, lines)
    assert len(over_stdin) == len(over_tcp) == len(lines)
    for stdin_response, tcp_response in zip(over_stdin, over_tcp):
        assert _mask(stdin_response) == _mask(tcp_response)


def test_warm_update_rekeys_session(daemon_factory):
    """After an update the new source answers from the warm session."""
    host, port, _ = daemon_factory(workers=1)
    with connect(host, port) as client:
        client.send({"source": FAST_SOURCE, "query": "labels"})
        first = client.recv()
        assert first["ok"] and first["cached"] is False
        client.send({"cmd": "update", "from": FAST_SOURCE,
                     "source": EDITED_SOURCE})
        update = client.recv()
        assert update["ok"], update
        assert update["result"]["mode"] in ("splice", "cold")
        client.send({"source": EDITED_SOURCE, "query": "points_to:p@L"})
        follow = client.recv()
        assert follow["ok"], follow
        assert follow["result"] == [["h", "D"]]


def test_update_from_a_stored_base_serves_the_stored_target(
    tmp_path, monkeypatch
):
    """With both texts' artifacts in the store and no warm session, an
    update answers the new text from the store and runs no analysis:
    a decoded base has no slice capture, so nothing could splice."""
    from repro.core.analysis import Analyzer

    store = ResultStore(f"file:{tmp_path}/store")
    for text in (FAST_SOURCE, EDITED_SOURCE):
        store.load_or_analyze(text)

    def no_analysis(*args, **kwargs):
        raise AssertionError("the update ran an analysis")

    monkeypatch.setattr(Analyzer, "run", no_analysis)
    sessions: dict = {}
    response = handle_request(
        {"cmd": "update", "from": FAST_SOURCE, "source": EDITED_SOURCE},
        store, sessions,
    )
    assert response["ok"], response
    assert response["cached"] is True
    assert response["result"]["mode"] == "cached"
    follow = handle_request(
        {"source": EDITED_SOURCE, "query": "points_to:p@L"},
        store, sessions,
    )
    assert follow["ok"] and follow["result"] == [("h", "D")]


def test_concurrent_updates_coalesce_in_process(tmp_path):
    """N racing updates to the same target key: one computes, the other
    N-1 report ``coalesced`` and reuse its session."""
    store = ResultStore(f"file:{tmp_path}/store")
    sessions: dict = {}
    warm = handle_request(
        {"source": FAST_SOURCE, "query": "labels"}, store, sessions
    )
    assert warm["ok"]
    request = {"cmd": "update", "from": FAST_SOURCE, "source": EDITED_SOURCE}
    responses: list[dict] = []
    lock = threading.Lock()

    def worker():
        response = handle_request(dict(request), store, sessions)
        with lock:
            responses.append(response)

    threads = [threading.Thread(target=worker) for _ in range(6)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    assert all(r["ok"] for r in responses), responses
    coalesced = [r for r in responses if r.get("coalesced")]
    computed = [r for r in responses if not r.get("coalesced")]
    assert len(computed) == 1, "exactly one update may compute"
    assert len(coalesced) == len(responses) - 1
    assert all(r["result"]["mode"] == "unchanged" for r in coalesced)
    # The racing updates all landed on one warm session for the new
    # key, so the follow-up query finds it without analyzing.
    new_key = store.key_for(EDITED_SOURCE, None)
    assert new_key in sessions
    follow = handle_request(
        {"source": EDITED_SOURCE, "query": "labels"}, store, sessions
    )
    assert follow["ok"], follow


def test_concurrent_updates_over_tcp(daemon_factory):
    """Identical in-flight update bodies over TCP all succeed and
    agree; the daemon's sharding sends them to one worker where the
    per-key lock serializes them."""
    host, port, _ = daemon_factory(workers=2)
    with connect(host, port) as warmup:
        warmup.send({"source": FAST_SOURCE, "query": "labels"})
        assert warmup.recv()["ok"]

    request = {"cmd": "update", "from": FAST_SOURCE, "source": EDITED_SOURCE}
    responses: list[dict] = []
    lock = threading.Lock()

    def worker():
        with connect(host, port) as client:
            client.send(dict(request))
            response = client.recv()
        with lock:
            responses.append(response)

    threads = [threading.Thread(target=worker) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    assert all(r["ok"] for r in responses), responses
    keys = {r["result"]["key"] for r in responses}
    assert len(keys) == 1, "all updates must land on the same target key"
    with connect(host, port) as client:
        client.send({"source": EDITED_SOURCE, "query": "points_to:p@L"})
        follow = client.recv()
    assert follow["ok"] and follow["result"] == [["h", "D"]]
