"""The ``repro-pta store`` subcommand: ls, stats, clear, gc."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.service.store import ResultStore

SOURCE = "int g; int main() { int *p; p = &g; L: return 0; }\n"
OTHER = "int h; int main() { int *q; q = &h; L: return 0; }\n"


def _populate(url: str, *sources: str) -> ResultStore:
    store = ResultStore(url)
    for source in sources:
        store.load_or_analyze(source)
    return store


def test_ls_lists_objects_and_summary(tmp_path, capsys):
    url = f"file:{tmp_path}/s"
    store = _populate(url, SOURCE, OTHER)
    assert main(["store", "ls", "--store", url]) == 0
    out = capsys.readouterr().out.splitlines()
    keys = sorted(store.keys())
    assert [line.split()[0] for line in out[:-1]] == keys
    assert out[-1].startswith("(2 objects, ")
    assert url in out[-1]


def test_stats_reports_backend_json(tmp_path, capsys):
    url = f"file:{tmp_path}/s"
    _populate(url, SOURCE)
    assert main(["store", "stats", "--store", url]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["objects"] == 1
    assert stats["url"] == url
    assert stats["bytes"] > 0


def test_clear_empties_store(tmp_path, capsys):
    url = f"file:{tmp_path}/s"
    _populate(url, SOURCE, OTHER)
    assert main(["store", "clear", "--store", url]) == 0
    assert "removed 2 objects" in capsys.readouterr().out
    assert ResultStore(url).keys() == []


def test_gc_respects_byte_budget(tmp_path, capsys):
    url = f"file:{tmp_path}/s"
    store = _populate(url, SOURCE, OTHER)
    sizes = {size for _, size, _ in store.backend.entries()}
    budget = max(sizes)  # room for one object, not two
    assert main(["store", "gc", "--store", url, "--max-bytes",
                 str(budget)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["removed"] == 1
    assert report["kept"] == 1
    assert report["kept_bytes"] <= budget
    assert len(ResultStore(url).keys()) == 1


def test_gc_requires_max_bytes(tmp_path, capsys):
    assert main(["store", "gc", "--store", f"file:{tmp_path}/s"]) == 2
    assert "--max-bytes is required" in capsys.readouterr().err


def test_bad_store_url_is_a_clean_error(capsys):
    assert main(["store", "ls", "--store", "memory://?bogus=1"]) == 2
    assert "store: error:" in capsys.readouterr().err


def test_removed_backend_url_is_a_clean_error(tmp_path, capsys,
                                             monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["store", "stats", "--store", "sqlite:/x"]) == 2
    err = capsys.readouterr().err
    assert "store: error:" in err and "sqlite:" in err
    assert "was removed" in err
    assert list(tmp_path.iterdir()) == [], "no directory may be created"


def _commands(tmp_path):
    """One invocation of each store-opening command, minus ``--store``."""
    old = tmp_path / "old.c"
    new = tmp_path / "new.c"
    old.write_text(SOURCE)
    new.write_text(OTHER)
    return {
        "query": ["query", str(old), "points_to:p@L"],
        "batch": ["batch", str(old)],
        "check": ["check", str(old)],
        "update": ["update", str(old), str(new)],
    }


@pytest.mark.parametrize("url", ["sqlite:/x", "memory://?bogus=1"])
@pytest.mark.parametrize("command", ["query", "batch", "check", "update"])
def test_bad_store_url_is_a_clean_error_for_every_command(
    tmp_path, capsys, monkeypatch, command, url
):
    argv = _commands(tmp_path)[command]
    monkeypatch.chdir(tmp_path)
    before = sorted(tmp_path.iterdir())
    assert main(argv + ["--store", url]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("store: error:")
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert sorted(tmp_path.iterdir()) == before, "no store may be created"


@pytest.mark.parametrize("command", ["query", "batch", "check", "update"])
def test_bad_store_environment_is_a_clean_error(
    tmp_path, capsys, monkeypatch, command
):
    argv = _commands(tmp_path)[command]
    monkeypatch.setenv("REPRO_PTA_STORE", "memory://?bogus=1")
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("store: error:")
