"""Incremental re-analysis benchmark: warm one-function edit vs cold.

Measures the update ladder on the perfsuite programs and records an
``"incremental"`` section in ``BENCH_perf.json`` (merging with
whatever the other benchmarks wrote).  For each program, a verified
one-function edit (the exact splice edits the unit tests assert
byte-equivalence for) is applied and timed three ways:

* ``cold_s`` — full re-analysis of the edited text from scratch;
* ``warm_s`` — ``update_analysis`` against the live prior result;
* the tail of every warm run re-checks byte equivalence against cold,
  so a reported speedup is never bought with a wrong answer.

Medians over ``--repeats`` runs; the full mode enforces the >=10x
warm-over-cold floor on every program.  ``--smoke`` runs one repeat
and skips the floor (CI).

Run with::

    PYTHONPATH=src python benchmarks/bench_incremental.py [--smoke] [--out PATH]
"""

from __future__ import annotations

import argparse
import pathlib
import statistics
import sys
import time

sys.path.insert(
    0, str(pathlib.Path(__file__).resolve().parent.parent / "src")
)

from repro.benchsuite.perfsuite import PERF_BENCHMARKS  # noqa: E402
from repro.core.analysis import analyze_source  # noqa: E402
from repro.core.incremental import update_analysis  # noqa: E402
from repro.service.serialize import semantic_payload_bytes  # noqa: E402
from report import merge_section  # noqa: E402

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_OUT = REPO_ROOT / "BENCH_perf.json"

SPEEDUP_FLOOR = 10.0

#: (program, (old fragment, new fragment)) — the verified one-function
#: edits from tests/core/test_incremental.py.
EDITS = {
    "relay": (
        "void ping(void) {\n    int v;\n    v = *cursor;",
        "void ping(void) {\n    int v;\n    int extra;\n"
        "    extra = 0;\n    v = *cursor;\n    v = v + extra;\n"
        "    extra = v;",
    ),
    "fanout": (
        "void work0(int n) { int i; int *p; p = &d0; "
        "for (i = 0; i < n; i = i + 1) { w0 = p; *p = i; } }\n",
        "void work0(int n) { int i; int j; int *p; p = &d0; "
        "for (i = 0; i < n; i = i + 1) "
        "{ j = i; w0 = p; *p = j; } }\n",
    ),
}


def bench_program(name: str, repeats: int) -> dict:
    source = PERF_BENCHMARKS[name].source
    old_fragment, new_fragment = EDITS[name]
    assert old_fragment in source, f"{name}: edit site not found"
    edited = source.replace(old_fragment, new_fragment)

    cold_samples: list[float] = []
    warm_samples: list[float] = []
    modes = set()
    for _ in range(repeats):
        base = analyze_source(source)

        started = time.perf_counter()
        updated, report = update_analysis(base, source, edited)
        warm_samples.append(time.perf_counter() - started)
        modes.add(report.mode)

        started = time.perf_counter()
        cold = analyze_source(edited)
        cold_samples.append(time.perf_counter() - started)

        payload = semantic_payload_bytes(updated, name)
        assert payload == semantic_payload_bytes(cold, name), (
            f"{name}: warm update diverges from cold"
        )

    cold_s = statistics.median(cold_samples)
    warm_s = statistics.median(warm_samples)
    section = {
        "functions": len(PERF_BENCHMARKS[name].source.split("void ")) - 1,
        "mode": sorted(modes),
        "cold_s": round(cold_s, 6),
        "warm_s": round(warm_s, 6),
        "cold_min_s": round(min(cold_samples), 6),
        "warm_min_s": round(min(warm_samples), 6),
        "speedup": round(cold_s / warm_s, 2) if warm_s else 0.0,
    }
    print(
        f"  {name:>8}: cold {cold_s * 1000:7.1f}ms, warm "
        f"{warm_s * 1000:6.1f}ms ({section['mode']}) -> "
        f"{section['speedup']}x"
    )
    return section


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="single repeat, no speedup floor (CI)")
    parser.add_argument("--repeats", type=int, default=5,
                        help="timed repeats per program (default 5)")
    parser.add_argument("--out", type=pathlib.Path, default=DEFAULT_OUT,
                        help=f"output JSON path (default {DEFAULT_OUT})")
    args = parser.parse_args(argv)

    repeats = 1 if args.smoke else args.repeats
    mode = "smoke" if args.smoke else "full"
    print(f"bench_incremental ({mode}): {len(EDITS)} programs, "
          f"{repeats} repeat(s)")

    programs = {
        name: bench_program(name, repeats) for name in sorted(EDITS)
    }
    floor_ok = all(
        entry["speedup"] >= SPEEDUP_FLOOR for entry in programs.values()
    )
    section = {
        "mode": mode,
        "repeats": repeats,
        "speedup_floor": SPEEDUP_FLOOR,
        "programs": programs,
    }

    merge_section(args.out, "incremental", section)
    print(f"  -> {args.out}")

    if not args.smoke and not floor_ok:
        slow = {
            name: entry["speedup"]
            for name, entry in programs.items()
            if entry["speedup"] < SPEEDUP_FLOOR
        }
        print(
            f"bench_incremental: FAIL warm speedup below "
            f"{SPEEDUP_FLOOR}x floor: {slow}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
