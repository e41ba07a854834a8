"""The analysis must be deterministic run to run: downstream passes
and the regenerated tables depend on it.  So must the findings
payload: ``repro check`` SARIF output is byte-identical across hash
seeds and repeated runs — CI gates on it."""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

from repro.benchsuite import BENCHMARKS
from repro.core.analysis import analyze_source
from repro.core.statistics import collect_table3, collect_table6


class TestDeterminism:
    def test_triples_stable_across_runs(self):
        source = BENCHMARKS["dry"].source
        first = analyze_source(source)
        second = analyze_source(source)
        for label in first.program.labels:
            assert first.triples_at(label) == second.triples_at(label)

    def test_statistics_stable_across_runs(self):
        source = BENCHMARKS["toplev"].source
        rows = []
        for _ in range(2):
            result = analyze_source(source)
            t3 = collect_table3(result, "toplev")
            t6 = collect_table6(result, "toplev")
            rows.append(
                (
                    t3.indirect_refs,
                    t3.pairs_total,
                    t3.scalar_replaceable,
                    t6.ig_nodes,
                    t6.recursive_nodes,
                    t6.approximate_nodes,
                )
            )
        assert rows[0] == rows[1]

    def test_warnings_stable(self):
        source = """
        int main() { int a; int *p; p = &a; mystery(p); return 0; }
        """
        assert (
            analyze_source(source).warnings
            == analyze_source(source).warnings
        )


SRC = str(Path(__file__).resolve().parents[2] / "src")

#: Renders the check pipeline's SARIF for finding-bearing programs —
#: a cold full check per program, one differential check, and the
#: CLI's ``check --no-cache --format sarif`` with provenance on, whose
#: witnesses carry derivation record ids — and digests the bytes.  Run
#: under different hash seeds by the test.
SARIF_SCRIPT = """
import hashlib, json, sys
from repro.benchsuite import BENCHMARKS
from repro.checkers import build_baseline, check_diff, render_sarif, run_checkers
from repro.core.analysis import analyze_source

BUGGY = (
    "int g;\\n"
    "void set_null(int **pp) { *pp = 0; }\\n"
    "int main() {\\n"
    "    int *p;\\n"
    "    p = &g;\\n"
    "    set_null(&p);\\n"
    "    L: *p = 1;\\n"
    "    return 0;\\n"
    "}\\n"
)
EDITED = BUGGY.replace(
    "    L: *p = 1;",
    "    L: *p = 1;\\n    int *q;\\n    q = 0;\\n    *q = 2;",
)

digests = {}
for name in ("hash", "misr", "toplev"):
    source = BENCHMARKS[name].source
    findings = run_checkers(analyze_source(source), source=source)
    digests[name] = hashlib.sha256(
        render_sarif(findings, name).encode()
    ).hexdigest()
findings = run_checkers(analyze_source(BUGGY), source=BUGGY)
digests["buggy"] = hashlib.sha256(
    render_sarif(findings, "buggy").encode()
).hexdigest()
old = analyze_source(BUGGY)
report = check_diff(
    EDITED, old_source=BUGGY, old_analysis=old,
    baseline=build_baseline(old, BUGGY),
)
digests["diff"] = hashlib.sha256(
    render_sarif(report.findings, "diff").encode()
).hexdigest()

# The CLI path, provenance on: witnesses carry derivation record ids.
import contextlib, io, os, tempfile
from repro.cli import main

os.chdir(tempfile.mkdtemp())
for name in ("hash", "misr", "sim", "toplev"):
    path = name + ".c"
    with open(path, "w") as handle:
        handle.write(BENCHMARKS[name].source)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(["check", path, "--no-cache", "--format", "sarif"])
    text = out.getvalue()
    digests["cli-" + name] = hashlib.sha256(text.encode()).hexdigest()
json.dump(digests, sys.stdout)
"""


#: Prints ``fanout``'s memo counters.
MEMO_SCRIPT = """
import json, sys
from repro.benchsuite import PERF_BENCHMARKS
from repro.core.analysis import analyze_source

stats = analyze_source(PERF_BENCHMARKS["fanout"].source).stats
json.dump({"hits": stats.hits, "lookups": stats.lookups}, sys.stdout)
"""


def _run_script(script: str, hash_seed: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": SRC, "PYTHONHASHSEED": hash_seed, "PATH": ""},
        check=True,
    )
    return json.loads(proc.stdout)


class TestCheckDeterminism:
    """SARIF output byte-identical across hash seeds and runs, with
    and without provenance witnesses."""

    def test_sarif_stable_across_hash_seeds(self):
        first = _run_script(SARIF_SCRIPT, "0")
        second = _run_script(SARIF_SCRIPT, "424242")
        assert first == second
        assert len(first) == 9

    def test_sarif_stable_across_repeated_runs(self):
        from repro.checkers import render_sarif, run_checkers

        source = BENCHMARKS["misr"].source
        digests = {
            hashlib.sha256(
                render_sarif(
                    run_checkers(analyze_source(source), source=source),
                    "misr",
                ).encode()
            ).hexdigest()
            for _ in range(3)
        }
        assert len(digests) == 1


def test_memo_counters_stable_across_hash_seeds():
    """How often the call memo hits depends on row order, so it must
    not depend on the hash seed either."""
    first = _run_script(MEMO_SCRIPT, "0")
    assert first == _run_script(MEMO_SCRIPT, "1")
    assert 0 < first["hits"] < first["lookups"]
