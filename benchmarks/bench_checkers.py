"""Checker benchmark: per-checker timings over the benchmark suite.

Analyzes every suite program (provenance on, so findings carry
witnesses), runs each registered checker over the results, and records
wall time and finding counts per checker — plus the analysis-only
baseline, so the checker pass's relative cost is visible — under the
``"checkers"`` key of ``BENCH_perf.json`` (merging with whatever
``bench_perf.py`` / ``bench_service.py`` wrote).

Run with::

    PYTHONPATH=src python benchmarks/bench_checkers.py [--out PATH]
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time

sys.path.insert(
    0, str(pathlib.Path(__file__).resolve().parent.parent / "src")
)

from repro.benchsuite import BENCHMARKS  # noqa: E402
from repro.checkers import CHECKERS, run_checkers  # noqa: E402
from repro.core import perf  # noqa: E402
from repro.core.analysis import analyze_source  # noqa: E402
from report import merge_section  # noqa: E402

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_OUT = REPO_ROOT / "BENCH_perf.json"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=pathlib.Path, default=DEFAULT_OUT,
                        help=f"output JSON path (default {DEFAULT_OUT})")
    args = parser.parse_args(argv)

    names = sorted(BENCHMARKS)
    print(f"bench_checkers: {len(names)} suite programs, "
          f"{len(CHECKERS)} checkers")

    analyses = []
    t0 = time.perf_counter()
    with perf.configured(track_provenance=True):
        for name in names:
            analyses.append((name, BENCHMARKS[name].source,
                             analyze_source(BENCHMARKS[name].source)))
    analyze_s = time.perf_counter() - t0

    per_checker: dict[str, dict] = {}
    for checker_id in sorted(CHECKERS):
        t0 = time.perf_counter()
        findings = 0
        errors = 0
        for _, source, analysis in analyses:
            result = run_checkers(
                analysis, source=source, checkers=[checker_id]
            )
            findings += len(result)
            errors += sum(1 for f in result if f.severity == "error")
        wall = time.perf_counter() - t0
        per_checker[checker_id] = {
            "wall_s": round(wall, 6),
            "findings": findings,
            "errors": errors,
        }
        print(f"  {checker_id:24s} {wall:7.3f}s  "
              f"{findings:3d} findings ({errors} errors)")

    t0 = time.perf_counter()
    total_findings = 0
    for _, source, analysis in analyses:
        total_findings += len(run_checkers(analysis, source=source))
    all_wall = time.perf_counter() - t0

    section = {
        "programs": len(names),
        "analyze_s": round(analyze_s, 6),
        "all_checkers_s": round(all_wall, 6),
        "total_findings": total_findings,
        "per_checker": per_checker,
    }
    ratio = all_wall / analyze_s if analyze_s else 0.0
    print(f"  all checkers: {all_wall:.3f}s "
          f"({ratio:.2f}x the analysis itself)  ->  {args.out}")

    merge_section(args.out, "checkers", section)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
