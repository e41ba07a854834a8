"""The ``watch`` verb over both transports, and its diff replies.

``watch`` rides the same ``handle_request`` dispatcher as every other
verb, so the stdin serve loop and the TCP daemon must answer identical
watch sequences identically (wall times masked).  On top of transport
identity: establishing a watch persists a ``base-`` finding baseline
beside the artifact and reports every finding; a follow-up watch with
``from`` reports only ``new``/``fixed`` findings plus an ``unchanged``
count, and a ``"trace": true`` request comes back stamped with a
trace id whose document the ``trace`` verb can fetch.
"""

from __future__ import annotations

import io
import json

import pytest

from repro.service.batch import serve
from repro.service.commands import handle_request
from repro.service.store import ResultStore

from tests.daemon.conftest import connect

#: A program with one definite null dereference (at ``L`` in main).
WATCH_SOURCE = """\
int g;

void set_null(int **pp) {
    *pp = 0;
}

int helper(void) {
    int x;
    x = g;
    return x;
}

int main() {
    int *p;
    int v;
    p = &g;
    set_null(&p);
    v = helper();
    L: *p = 1;
    return v;
}
"""

#: One-function edit: a second null dereference injected into helper.
#: main's text is untouched, so its finding must classify unchanged.
BUG_SOURCE = WATCH_SOURCE.replace(
    "int helper(void) {\n    int x;\n    x = g;\n    return x;\n}",
    "int helper(void) {\n    int x;\n    int *q;\n    q = 0;\n"
    "    x = *q;\n    x = x + g;\n    return x;\n}",
)

#: One-function edit that fixes main's bug: set_null now stores a
#: real location, so ``*p`` at L is no longer null.
FIX_SOURCE = WATCH_SOURCE.replace("*pp = 0;", "*pp = &g;")

NEVER_SEEN = "int z; int main() { int *r; r = &z; L: return 0; }\n"

CASES = {
    "establish": [
        {"id": 1, "cmd": "watch", "source": WATCH_SOURCE},
    ],
    "diff-new": [
        {"cmd": "watch", "source": WATCH_SOURCE},
        {"cmd": "watch", "from": WATCH_SOURCE, "source": BUG_SOURCE},
    ],
    "diff-fixed": [
        {"cmd": "watch", "source": WATCH_SOURCE},
        {"cmd": "watch", "from": WATCH_SOURCE, "source": FIX_SOURCE},
    ],
    "unknown-base": [
        {"cmd": "watch", "from": NEVER_SEEN, "source": WATCH_SOURCE},
    ],
    "unchanged": [
        {"cmd": "watch", "source": WATCH_SOURCE},
        {"cmd": "watch", "from": WATCH_SOURCE, "source": WATCH_SOURCE},
    ],
    "errors": [
        {"cmd": "watch"},
        {"cmd": "watch", "source": WATCH_SOURCE,
         "checkers": ["no-such-checker"]},
        {"cmd": "watch", "source": WATCH_SOURCE, "from": 7},
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
def test_watch_answers_identically(case, daemon_factory, tmp_path):
    lines = _lines(case)
    over_stdin = _via_serve(lines, tmp_path)
    host, port, _ = daemon_factory(workers=1)
    over_tcp = _send_all(host, port, lines)
    assert len(over_stdin) == len(over_tcp) == len(lines)
    for stdin_response, tcp_response in zip(over_stdin, over_tcp):
        assert _mask(stdin_response) == _mask(tcp_response)


class TestEstablish:
    def test_reports_all_findings_and_persists_baseline(self, tmp_path):
        store = ResultStore(f"file:{tmp_path}/store")
        sessions: dict = {}
        response = handle_request(
            {"cmd": "watch", "source": WATCH_SOURCE}, store, sessions
        )
        assert response["ok"], response
        result = response["result"]
        assert result["established"] is True
        checkers = [f["checker"] for f in result["findings"]]
        assert "null-deref" in checkers
        assert result["errors"] + result["warnings"] == len(
            result["findings"]
        )
        # The finding baseline landed beside the artifact.
        baseline_key = store.baseline_key(WATCH_SOURCE, None)
        assert baseline_key.startswith("base-")
        assert store.get_record(baseline_key) is not None
        # The watch left a warm session keyed on the new text.
        assert store.key_for(WATCH_SOURCE, None) in sessions

    def test_checker_subset_respected(self, tmp_path):
        store = ResultStore(f"file:{tmp_path}/store")
        response = handle_request(
            {"cmd": "watch", "source": WATCH_SOURCE,
             "checkers": ["dangling-stack-return"]},
            store, {},
        )
        assert response["ok"], response
        assert response["result"]["findings"] == []


class TestDiff:
    def _establish(self, store, sessions) -> dict:
        response = handle_request(
            {"cmd": "watch", "source": WATCH_SOURCE}, store, sessions
        )
        assert response["ok"], response
        return response

    def test_injected_bug_is_the_only_new_finding(self, tmp_path):
        store = ResultStore(f"file:{tmp_path}/store")
        sessions: dict = {}
        self._establish(store, sessions)
        response = handle_request(
            {"cmd": "watch", "from": WATCH_SOURCE, "source": BUG_SOURCE},
            store, sessions,
        )
        assert response["ok"], response
        result = response["result"]
        assert [f["checker"] for f in result["new"]] == ["null-deref"]
        assert all(f["func"] == "helper" for f in result["new"])
        assert result["fixed"] == []
        # main's untouched null-deref replays as unchanged.
        assert result["unchanged"] >= 1
        assert result["mode"] in ("splice", "cold")
        # The watch re-keyed the warm session onto the new text.
        assert store.key_for(BUG_SOURCE, None) in sessions
        assert store.key_for(WATCH_SOURCE, None) not in sessions

    def test_fixed_bug_is_reported_fixed(self, tmp_path):
        store = ResultStore(f"file:{tmp_path}/store")
        sessions: dict = {}
        self._establish(store, sessions)
        response = handle_request(
            {"cmd": "watch", "from": WATCH_SOURCE, "source": FIX_SOURCE},
            store, sessions,
        )
        assert response["ok"], response
        result = response["result"]
        assert result["new"] == []
        assert [f["checker"] for f in result["fixed"]] == ["null-deref"]
        assert result["mode"] in ("splice", "cold")

    def test_identical_text_is_all_unchanged(self, tmp_path):
        store = ResultStore(f"file:{tmp_path}/store")
        sessions: dict = {}
        established = self._establish(store, sessions)
        response = handle_request(
            {"cmd": "watch", "from": WATCH_SOURCE, "source": WATCH_SOURCE},
            store, sessions,
        )
        assert response["ok"], response
        result = response["result"]
        assert result["mode"] == "unchanged"
        assert result["new"] == [] and result["fixed"] == []
        assert result["unchanged"] == len(
            established["result"]["findings"]
        )

    def test_trace_id_stamped_and_fetchable(self, tmp_path):
        store = ResultStore(f"file:{tmp_path}/store")
        sessions: dict = {}
        self._establish(store, sessions)
        response = handle_request(
            {"cmd": "watch", "from": WATCH_SOURCE, "source": BUG_SOURCE,
             "trace": True},
            store, sessions,
        )
        assert response["ok"], response
        trace_id = response.get("trace_id")
        assert trace_id
        fetched = handle_request(
            {"cmd": "trace", "id": trace_id}, store, sessions
        )
        assert fetched["ok"], fetched
        assert fetched["result"]["trace_id"] == trace_id
        assert fetched["result"]["spans"], "trace must capture spans"


def test_watch_over_tcp_end_to_end(daemon_factory):
    """Establish, break, fix — one TCP session sees only the deltas."""
    host, port, _ = daemon_factory(workers=1)
    with connect(host, port) as client:
        client.send({"cmd": "watch", "source": WATCH_SOURCE})
        established = client.recv()
        assert established["ok"], established
        baseline_findings = established["result"]["findings"]
        assert [f["checker"] for f in baseline_findings] == ["null-deref"]

        client.send(
            {"cmd": "watch", "from": WATCH_SOURCE, "source": BUG_SOURCE}
        )
        broke = client.recv()
        assert broke["ok"], broke
        assert [f["func"] for f in broke["result"]["new"]] == ["helper"]
        assert broke["result"]["fixed"] == []

        client.send(
            {"cmd": "watch", "from": BUG_SOURCE, "source": FIX_SOURCE}
        )
        fixed = client.recv()
        assert fixed["ok"], fixed
        assert fixed["result"]["new"] == []
        assert len(fixed["result"]["fixed"]) == 2
        assert {f["checker"] for f in fixed["result"]["fixed"]} == {
            "null-deref"
        }
