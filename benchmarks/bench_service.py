"""Service-layer benchmark: cold vs warm batch runs through the store.

Runs the full benchmark suite through :func:`repro.service.batch.run_batch`
against a throwaway store three ways — cold (empty store), warm
(everything cached), and warm again with two workers — and records the
timings and cache hit rates under the ``"service"`` key of
``BENCH_perf.json`` (merging with whatever ``bench_perf.py`` wrote).

Run with::

    PYTHONPATH=src python benchmarks/bench_service.py [--out PATH]
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import tempfile

sys.path.insert(
    0, str(pathlib.Path(__file__).resolve().parent.parent / "src")
)

from repro.service.batch import collect_items, run_batch  # noqa: E402
from repro.service.store import ResultStore  # noqa: E402
from report import merge_section  # noqa: E402

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_OUT = REPO_ROOT / "BENCH_perf.json"


def report_of(label: str, report) -> dict:
    print(
        f"  {label}: {report.total_file_s:.3f}s over {len(report.rows)} "
        f"programs (hit rate {report.hit_rate:.0%}, jobs {report.jobs})"
    )
    return {
        "wall_s": round(report.wall_s, 6),
        "total_file_s": round(report.total_file_s, 6),
        "hit_rate": round(report.hit_rate, 4),
        "jobs": report.jobs,
        "files": len(report.rows),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=pathlib.Path, default=DEFAULT_OUT,
                        help=f"output JSON path (default {DEFAULT_OUT})")
    args = parser.parse_args(argv)

    items = collect_items([], suite=True)
    print(f"bench_service: {len(items)} suite programs through the store")
    with tempfile.TemporaryDirectory(prefix="bench_service_") as root:
        store = ResultStore(pathlib.Path(root))
        cold = run_batch(items, store=store, jobs=1)
        warm = run_batch(items, store=store, jobs=1)
        warm2 = run_batch(items, store=store, jobs=2)

    speedup = (
        cold.total_file_s / warm.total_file_s if warm.total_file_s else 0.0
    )
    section = {
        "cold": report_of("cold (analyze + store)", cold),
        "warm": report_of("warm (store reads only)", warm),
        "warm_jobs2": report_of("warm, 2 workers", warm2),
        "warm_speedup": round(speedup, 3),
    }
    print(f"  warm speedup: {speedup:.2f}x  ->  {args.out}")

    merge_section(args.out, "service", section)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
