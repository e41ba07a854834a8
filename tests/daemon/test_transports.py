"""Transport equality: stdin serve loop vs TCP daemon.

The daemon's workers run the exact ``handle_request`` dispatcher the
stdin serve loop uses, so with one worker the two transports must give
byte-equal responses to the same request sequence — success payloads,
cached flags, session-backed stats, and every error path alike.  Only
per-request wall times and the tracer snapshot behind the ``metrics``
verb are volatile, and those are masked.
"""

from __future__ import annotations

import io
import json

import pytest

from repro.service.batch import serve
from repro.service.store import ResultStore

from tests.daemon.conftest import FAST_SOURCE, connect

OTHER_SOURCE = "int h; int main() { int *q; q = &h; L: return 0; }\n"

# Each case is a named sequence of raw request lines (strings so that
# malformed JSON can ride through both transports untouched).
CASES = {
    "query": [
        {"id": 1, "source": FAST_SOURCE, "query": "points_to:p@L"},
        {"source": FAST_SOURCE, "query": "labels"},
        {"id": 2, "source": OTHER_SOURCE, "query": "labels"},
    ],
    "check": [
        {"cmd": "check", "source": FAST_SOURCE},
        {"id": 9, "cmd": "check", "source": OTHER_SOURCE},
    ],
    "stats-and-provenance": [
        {"source": FAST_SOURCE, "query": "labels"},
        {"source": OTHER_SOURCE, "query": "points_to:q@L"},
        {"cmd": "stats"},
        {"cmd": "provenance"},
    ],
    "metrics": [
        {"source": FAST_SOURCE, "query": "labels"},
        {"cmd": "metrics"},
    ],
    "errors": [
        {"cmd": "frobnicate"},
        {"id": 3, "query": "labels"},
        {"source": FAST_SOURCE},
        {"source": FAST_SOURCE, "query": "no such query"},
        {"source": FAST_SOURCE, "query": "labels", "options": {"bogus": 1}},
        "{not json",
        "[1, 2, 3]",
    ],
}


def _lines(case: str) -> list[str]:
    return [
        line if isinstance(line, str) else json.dumps(line)
        for line in CASES[case]
    ]


def _mask(response: dict) -> dict:
    masked = dict(response)
    masked.pop("metrics", None)  # per-request wall time
    result = masked.get("result")
    if isinstance(result, dict) and "tracing" in result:
        # The metrics verb: the tracer snapshot names its counters
        # after the transport (serve.* vs daemon.*) — mask it, keep
        # the store/session view, which must agree.  The daemon adds
        # pool-shape keys (telemetry, workers) the single-process loop
        # has no analogue for, and the two transports open stores at
        # different paths, so the backend url is masked too.
        result = dict(result)
        result["metrics"] = "<snapshot>"
        result["tracing"] = "<bool>"
        for daemon_only in ("telemetry", "workers", "workers_failed"):
            result.pop(daemon_only, None)
        if isinstance(result.get("backend"), dict):
            result["backend"] = {
                **result["backend"], "url": "<url>",
            }
        masked["result"] = result
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
def test_transports_answer_identically(case, daemon_factory, tmp_path):
    lines = _lines(case)
    over_stdin = _via_serve(lines, tmp_path)
    host, port, _ = daemon_factory(workers=1)
    over_tcp = _send_all(host, port, lines)
    assert len(over_stdin) == len(over_tcp) == len(lines)
    for stdin_response, tcp_response in zip(over_stdin, over_tcp):
        assert _mask(stdin_response) == _mask(tcp_response)
