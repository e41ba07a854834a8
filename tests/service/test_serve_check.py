"""The serve loop's ``check`` verb and the derived command list."""

import io
import json

import pytest

from repro.service import batch
from repro.service.batch import SERVE_COMMANDS, serve
from repro.service.store import ResultStore

BUGGY = """
int g;
void set_null(int **pp) { *pp = 0; }
int main() {
    int *p;
    p = &g;
    set_null(&p);
    L: *p = 1;
    return 0;
}
"""

CLEAN = "int g; int main() { int *p; p = &g; L: return 0; }\n"


@pytest.fixture
def store(tmp_path):
    return ResultStore(tmp_path / "store")


def run_serve(requests, store):
    stdin = io.StringIO(
        "".join(json.dumps(request) + "\n" for request in requests)
    )
    stdout = io.StringIO()
    assert serve(stdin, stdout, store) == 0
    return [json.loads(line) for line in stdout.getvalue().splitlines()]


class TestCheckVerb:
    def test_reports_findings(self, store):
        (resp,) = run_serve(
            [{"cmd": "check", "name": "buggy.c", "source": BUGGY}], store
        )
        assert resp["ok"] and not resp["cached"]
        result = resp["result"]
        assert result["errors"] == 1 and result["warnings"] == 0
        (finding,) = result["findings"]
        assert finding["checker"] == "null-deref"
        assert finding["severity"] == "error"
        assert finding["witness"], "serve-loop check defaults provenance on"

    def test_clean_source_empty(self, store):
        (resp,) = run_serve(
            [{"cmd": "check", "name": "clean.c", "source": CLEAN}], store
        )
        assert resp["ok"]
        assert resp["result"] == {
            "errors": 0,
            "warnings": 0,
            "findings": [],
        }

    def test_second_request_hits_store(self, store):
        req = {"cmd": "check", "name": "buggy.c", "source": BUGGY}
        cold, warm = run_serve([req, dict(req)], store)
        assert not cold["cached"] and warm["cached"]
        assert cold["result"] == warm["result"]

    def test_cold_request_extracts_facts_once(self, store, monkeypatch):
        # The checkers reuse the extraction the encoder made for the
        # artifact's "checkfacts" section; a warm request reads that
        # section and extracts nothing.
        from repro.checkers import facts

        calls = []
        real_collect = facts.collect_facts

        def counting_collect(analysis, funcs=None):
            calls.append(funcs)
            return real_collect(analysis, funcs)

        monkeypatch.setattr(facts, "collect_facts", counting_collect)
        req = {"cmd": "check", "name": "buggy.c", "source": BUGGY}
        cold, warm = run_serve([req, dict(req)], store)
        assert not cold["cached"] and warm["cached"]
        assert cold["result"] == warm["result"]
        assert calls == [None]

    def test_sarif_format(self, store):
        (resp,) = run_serve(
            [
                {
                    "cmd": "check",
                    "name": "buggy.c",
                    "source": BUGGY,
                    "format": "sarif",
                }
            ],
            store,
        )
        doc = json.loads(resp["result"]["sarif"])
        assert doc["version"] == "2.1.0"
        assert doc["runs"][0]["results"][0]["level"] == "error"
        assert "findings" not in resp["result"]

    def test_checker_selection_and_errors(self, store):
        responses = run_serve(
            [
                {
                    "cmd": "check",
                    "name": "buggy.c",
                    "source": BUGGY,
                    "checkers": ["heap-leak"],
                },
                {
                    "cmd": "check",
                    "name": "buggy.c",
                    "source": BUGGY,
                    "checkers": ["bogus"],
                },
                {"cmd": "check"},
            ],
            store,
        )
        selected, unknown, missing = responses
        assert selected["ok"] and selected["result"]["findings"] == []
        assert not unknown["ok"] and "bogus" in unknown["error"]
        assert not missing["ok"]


class TestCommandList:
    def test_unknown_cmd_advertises_check(self, store):
        (resp,) = run_serve([{"cmd": "frobnicate"}], store)
        assert not resp["ok"]
        assert "check" in resp["known_cmds"]
        assert resp["known_cmds"] == sorted(resp["known_cmds"])

    def test_derived_from_dispatch_table(self):
        # SERVE_COMMANDS must be *derived*, not hand-maintained: adding
        # a handler to the dispatch table is the single point of change.
        assert SERVE_COMMANDS == tuple(sorted(batch._CMD_HANDLERS))
        for name, handler in batch._CMD_HANDLERS.items():
            assert callable(handler), name
