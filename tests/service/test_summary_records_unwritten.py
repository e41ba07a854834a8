"""No request path writes per-function summary records.

The update ladder is splice or cold, and the splice seeds its mini run
from the live capture, so nothing reads the store's ``fn-`` summary
records or their ``skel-`` skeleton records.  A daemon watch, a
``repro-pta update`` with a store and a persisted ``check --diff`` must
therefore leave both key spaces empty.  (The record layer itself is
still exercised by ``tests/service/test_backends.py``.)
"""

from __future__ import annotations

from repro.checkers import check_diff
from repro.cli import main
from repro.service.commands import handle_request
from repro.service.store import ResultStore

#: Calls with reusable summaries: a live run of this text captures
#: slice entries for ``set_null`` and ``helper``.
OLD = """\
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

NEW = OLD.replace("    x = g;\n", "    x = g;\n    x = x + 1;\n")


def _assert_no_records(store: ResultStore) -> None:
    assert store.keys("fn-") == []
    assert store.keys("skel-") == []


def test_watch_writes_no_summary_records(tmp_path):
    store = ResultStore(f"file:{tmp_path}/store")
    sessions: dict = {}
    for request in (
        {"cmd": "watch", "source": OLD},
        {"cmd": "watch", "from": OLD, "source": NEW},
    ):
        response = handle_request(request, store, sessions)
        assert response["ok"], response
    assert store.keys("base-"), "the watch persisted no baseline"
    _assert_no_records(store)


def test_cli_update_writes_no_summary_records(tmp_path, capsys):
    url = f"file:{tmp_path}/store"
    old = tmp_path / "old.c"
    new = tmp_path / "new.c"
    old.write_text(OLD)
    new.write_text(NEW)
    assert main(["update", str(old), str(new), "--store", url]) == 0
    assert '"mode"' in capsys.readouterr().out
    store = ResultStore(url)
    assert store.keys(), "the update stored no artifact"
    _assert_no_records(store)


def test_cli_check_diff_writes_no_summary_records(tmp_path, capsys):
    url = f"file:{tmp_path}/store"
    old = tmp_path / "old.c"
    new = tmp_path / "new.c"
    old.write_text(OLD)
    new.write_text(NEW)
    assert main(
        ["check", str(new), "--diff", str(old), "--store", url]
    ) == 0
    capsys.readouterr()
    _assert_no_records(ResultStore(url))


def test_persisted_check_diff_writes_no_summary_records():
    store = ResultStore("memory://")
    report = check_diff(NEW, old_source=OLD, store=store, persist=True)
    assert report.new_baseline_key in store.keys("base-")
    _assert_no_records(store)
