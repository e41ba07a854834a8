"""``BENCH_perf.json`` keeps every bench's section, in any run order.

Each bench script merges its own section through
``benchmarks/report.py``; none may drop another's measurements.
"""

from __future__ import annotations

import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import pytest

BENCH_DIR = pathlib.Path(__file__).resolve().parents[2] / "benchmarks"

#: Two smoke benches and the top-level keys each one owns.
BENCHES = {
    "bench_perf.py": {"optimized_s", "tracing", "provenance", "memo"},
    "bench_diffcheck.py": {"diffcheck"},
}


def _load_report():
    spec = importlib.util.spec_from_file_location(
        "bench_report", BENCH_DIR / "report.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(script: str, out: pathlib.Path) -> None:
    env = dict(os.environ)
    src = str(BENCH_DIR.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    subprocess.run(
        [sys.executable, str(BENCH_DIR / script), "--smoke", "--out", str(out)],
        check=True,
        env=env,
        stdout=subprocess.DEVNULL,
    )


@pytest.mark.parametrize("order", [list(BENCHES), list(reversed(BENCHES))])
def test_benches_keep_each_others_sections(order, tmp_path):
    out = tmp_path / "BENCH_perf.json"
    out.write_text(json.dumps({"elsewhere": {"kept": True}}))
    for script in order:
        _run(script, out)
    report = json.loads(out.read_text())
    assert report["elsewhere"] == {"kept": True}
    for script, keys in BENCHES.items():
        assert keys <= set(report), f"{script} section missing"


def test_merge_section_refuses_a_malformed_report(tmp_path):
    merge_section = _load_report().merge_section
    out = tmp_path / "BENCH_perf.json"
    merge_section(out, "first", {"n": 1})
    merge_section(out, "second", {"n": 2})
    assert json.loads(out.read_text()) == {
        "first": {"n": 1}, "second": {"n": 2}
    }
    out.write_text("{not json")
    with pytest.raises(ValueError):
        merge_section(out, "third", {})
    assert out.read_text() == "{not json"
