"""The parallel batch driver and the JSON-lines serve loop."""

import io
import json

import pytest

from repro.benchsuite import BENCHMARKS, materialize_suite
from repro.service.batch import collect_items, run_batch, serve
from repro.service.store import ResultStore
from repro.reporting.tables import render_batch_report

GOOD = "int g; int main() { int *p; p = &g; L: return 0; }\n"
BAD = "int main( { this is not C\n"


@pytest.fixture()
def store(tmp_path):
    return ResultStore(tmp_path / "store")


class TestCollectItems:
    def test_files_dirs_and_suite(self, tmp_path):
        (tmp_path / "one.c").write_text(GOOD)
        sub = tmp_path / "sub"
        sub.mkdir()
        (sub / "two.c").write_text(GOOD)
        (sub / "ignored.h").write_text("")
        items = collect_items([str(tmp_path / "one.c"), str(sub)])
        assert [name.rsplit("/", 1)[-1] for name, _ in items] == [
            "one.c",
            "two.c",
        ]
        suite_items = collect_items([], suite=True)
        assert len(suite_items) == len(BENCHMARKS)
        assert all(name.startswith("suite:") for name, _ in suite_items)

    def test_materialize_suite(self, tmp_path):
        paths = materialize_suite(tmp_path / "suite")
        assert len(paths) == len(BENCHMARKS)
        items = collect_items([str(tmp_path / "suite")])
        assert len(items) == len(BENCHMARKS)


class TestRunBatch:
    def test_cold_then_warm(self, store, tmp_path):
        paths = materialize_suite(tmp_path / "suite")
        items = collect_items([str(tmp_path / "suite")])
        cold = run_batch(items, store=store, jobs=1)
        assert cold.hit_rate == 0.0 and not cold.errors
        assert len(cold.rows) == len(paths)
        warm = run_batch(items, store=store, jobs=1)
        assert warm.hit_rate == 1.0 and not warm.errors
        # The acceptance bar: store hits skip parsing and analysis, so
        # a warm batch over the suite is at least 5x faster cold.
        assert cold.total_file_s / warm.total_file_s >= 5.0
        # Warm rows carry the same headline numbers as cold ones.
        for cold_row, warm_row in zip(cold.rows, warm.rows):
            for field in ("name", "statements", "labels", "ig_nodes",
                          "warnings"):
                assert cold_row[field] == warm_row[field]

    def test_parallel_workers(self, store, tmp_path):
        items = collect_items([], suite=True)[:4]
        report = run_batch(items, store=store, jobs=2)
        assert report.jobs == 2
        assert len(report.rows) == 4 and not report.errors
        warm = run_batch(items, store=store, jobs=2)
        assert warm.hit_rate == 1.0

    def test_error_rows_reported(self, store, tmp_path):
        (tmp_path / "bad.c").write_text(BAD)
        (tmp_path / "good.c").write_text(GOOD)
        report = run_batch(
            collect_items([str(tmp_path)]), store=store, jobs=1
        )
        assert len(report.errors) == 1
        assert "bad.c" in report.errors[0]["name"]
        rendered = render_batch_report(report)
        assert "ERROR" in rendered and "good.c" in rendered

    def test_refresh_forces_misses(self, store):
        items = [("x", GOOD)]
        run_batch(items, store=store, jobs=1)
        again = run_batch(items, store=store, jobs=1, refresh=True)
        assert again.hit_rate == 0.0

    def test_report_rendering_and_dict(self, store):
        report = run_batch([("x", GOOD)], store=store, jobs=1)
        rendered = render_batch_report(report)
        assert "hit rate" in rendered and "x" in rendered
        as_dict = report.as_dict()
        assert as_dict["files"] == 1 and as_dict["rows"][0]["name"] == "x"
        json.dumps(as_dict)  # JSON-safe


def run_serve(requests, store):
    stdin = io.StringIO(
        "".join(json.dumps(request) + "\n" for request in requests)
    )
    stdout = io.StringIO()
    assert serve(stdin, stdout, store) == 0
    return [json.loads(line) for line in stdout.getvalue().splitlines()]


class TestServe:
    def test_query_file_and_inline(self, store, tmp_path):
        path = tmp_path / "prog.c"
        path.write_text(GOOD)
        responses = run_serve(
            [
                {"id": 1, "file": str(path), "query": "points_to:p@L"},
                {"id": 2, "source": GOOD, "query": "points_to:p@L"},
                {"id": 3, "file": str(path), "query": "labels"},
            ],
            store,
        )
        assert [r["id"] for r in responses] == [1, 2, 3]
        assert all(r["ok"] for r in responses)
        assert responses[0]["result"] == responses[1]["result"] == [
            ["g", "D"]
        ]
        # Same key twice -> the second answer came from the warm session.
        labels = responses[2]["result"]
        assert list(labels) == ["L"] and labels["L"][0] == "main"

    def test_sessions_stay_warm(self, store, tmp_path):
        path = tmp_path / "prog.c"
        path.write_text(GOOD)
        responses = run_serve(
            [
                {"id": 1, "file": str(path), "query": "points_to:p@L"},
                {"id": 2, "file": str(path), "query": "points_to:p@L"},
                {"cmd": "stats"},
            ],
            store,
        )
        stats = responses[2]["result"]
        assert stats["sessions"] == 1
        (session_stats,) = stats["queries"].values()
        assert session_stats["counts"]["points_to"] == 2

    def test_bad_requests_answered_not_fatal(self, store):
        responses = run_serve(
            [
                {"id": 1, "query": "labels"},  # no source
                {"id": 2, "source": GOOD, "query": "points_to:zz@L"},
                {"id": 3, "source": GOOD},  # no query
                {"cmd": "nope"},
                {"id": 5, "source": GOOD, "query": "points_to:p@L"},
            ],
            store,
        )
        assert [r["ok"] for r in responses] == [
            False,
            False,
            False,
            False,
            True,
        ]

    def test_indirect_call_to_external(self, store):
        source = (
            "void *malloc(int n);\n"
            "int main() { void *(*fp)(int); int *p;\n"
            "    fp = malloc; p = fp(4); L: return 0; }\n"
        )
        (response,) = run_serve(
            [{"id": 1, "source": source, "query": "points_to:p@L"}], store
        )
        assert response["ok"] is True, response
        assert response["result"] == [["heap", "P"]]

    def test_malformed_json_line(self, store):
        stdin = io.StringIO("this is not json\n")
        stdout = io.StringIO()
        serve(stdin, stdout, store)
        (response,) = [
            json.loads(line) for line in stdout.getvalue().splitlines()
        ]
        assert response["ok"] is False and "bad JSON" in response["error"]

    def test_quit(self, store):
        responses = run_serve(
            [{"cmd": "quit"}, {"source": GOOD, "query": "labels"}], store
        )
        assert len(responses) == 1  # loop stopped at quit
