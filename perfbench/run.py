#!/usr/bin/env python3
"""End-to-end benchmark of the points-to analysis service.

Usage, from the repository root::

    python3 perfbench/run.py --workload cold-suite --seed 0 --seconds 25 --trace 0

Workloads (see ``perfbench/manifest.json`` for why each was chosen and
which layers it should move or leave flat):

* ``cold-suite`` — in-process, every request misses the store and the
  sessions: the CI user's batch path over the paper's suite, ``livc``
  and the soundness-fuzz corpus.
* ``cold-deep`` — the same path over the perfsuite pair and deep
  shapes: fixpoint- and simplify-heavy.
* ``warm-query`` — a single-worker daemon over TCP, Zipf-skewed queries
  over a working set larger than its session cache: the editor's read
  path.
* ``edit-watch`` — the same daemon, a seeded chain of source edits sent
  as differential ``watch`` requests: the editor's write path.

``BENCHMARK.json`` lists the first two; the daemon workloads fail their
correctness gate at this commit and are held back (the manifest says
why).

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is the
separate traced run that splits request time by layer.  Every answer
is checked (see ``pbench/gate.py``).  The last line of standard output
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``;
the lines before it carry the context: raw wall-clock twins of every
calibrated timing, every calibration-kernel reading, the environment
stamp and the exact work counts.  The exit code is 0 only when every
answer was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench_state"


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


def check_fingerprint(name: str, seed: int, counts: dict) -> str | None:
    """Compare this traced run's work counts with the last traced run
    of the same workload and seed in this checkout; None when equal
    (or first), else a description of the drift."""
    path = STATE / "fingerprints" / f"{name}-seed{seed}.json"
    if path.exists():
        recorded = json.loads(path.read_text())
        if recorded != counts:
            drift = sorted(
                key for key in set(recorded) | set(counts)
                if recorded.get(key) != counts.get(key)
            )
            return f"work counts differ from an earlier run with seed {seed}: {drift}"
        return None
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(counts, sort_keys=True, indent=1))
    return None


def main() -> int:
    args = parse_args()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # The analysis's work counts (memo hits, worklist visits) depend on
    # set iteration order, so a workload seed also fixes the hash seed
    # of this process and of every process it starts.
    hash_seed = str(args.seed % 2**32)
    if os.environ.get("PYTHONHASHSEED") != hash_seed:
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]], env)
    sys.path[:0] = [str(ROOT / "src")]

    from pbench.calib import environment_stamp, pin_to_one_cpu
    from pbench.runners import WORKLOADS, Run

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(known: {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    allowed = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
    cpu = pin_to_one_cpu()
    run_dir = STATE / f"run-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    run = Run(ROOT, run_dir, args.seed, args.seconds)
    run.context["environment"] = dict(environment_stamp(cpu, allowed), hash_seed=hash_seed)
    try:
        metrics = WORKLOADS[args.workload](run, bool(args.trace))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if args.trace:
        drift = check_fingerprint(args.workload, args.seed, run.context["work_counts"])
        if drift:
            run.fail(drift)
    run.context["calibration"] = run.cal.as_dict()
    correct = run.failed == 0 and not run.problems
    for key, value in run.context.items():
        print(f"# {key}: {json.dumps(value, sort_keys=True)}")
    for problem in run.problems:
        print(f"# problem: {problem}")
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
