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

It then times the whole ladder against cold over the edit-fuzz sweep
(``tests/interp/test_edit_fuzz.py``: every suite benchmark and fuzz
corpus program, one edit per mutation family; ``--smoke`` takes the
tier-1 programs only) and records it as the section's ``sweep``: per
pair the best of ``--repeats`` runs (at most 3), update and cold in
alternating order, summed overall and per tier the ladder took.  Every
update is checked byte-identical to cold on the first repeat.

Run with::

    PYTHONPATH=src python benchmarks/bench_incremental.py [--smoke] [--out PATH]
"""

from __future__ import annotations

import argparse
import pathlib
import statistics
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(1, str(REPO_ROOT))

from repro.benchsuite.edits import propose_edits  # noqa: E402
from repro.benchsuite.perfsuite import PERF_BENCHMARKS  # noqa: E402
from repro.core.analysis import analyze_source  # noqa: E402
from repro.core.incremental import update_analysis  # noqa: E402
from repro.service.serialize import semantic_payload_bytes  # noqa: E402
from report import merge_section  # noqa: E402
from tests.interp.test_edit_fuzz import (  # noqa: E402
    PROGRAMS,
    TIER1_PROGRAMS,
    _source_for,
)

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


def bench_sweep(programs: list, repeats: int) -> dict:
    """Ladder vs cold over every (program, edit) pair of ``programs``."""
    pairs = []
    for test_id, (kind, name, seed) in programs:
        source = _source_for(kind, name, seed)
        for edit in propose_edits(source, seed=seed, per_kind=1):
            pairs.append((f"{test_id}-{edit.kind}", source, edit.source))
    best: dict[str, list[float]] = {}
    tiers: dict[str, str] = {}
    for repeat in range(repeats):
        for pair_id, old_source, new_source in pairs:
            # The splice reuses (and renumbers) the base analysis, so
            # every update gets a fresh one.
            base = analyze_source(old_source)
            samples = [0.0, 0.0]
            for which in ((0, 1) if repeat % 2 == 0 else (1, 0)):
                started = time.perf_counter()
                if which == 0:
                    updated, report = update_analysis(
                        base, old_source, new_source
                    )
                else:
                    cold = analyze_source(new_source)
                samples[which] = time.perf_counter() - started
            if repeat == 0:
                assert semantic_payload_bytes(updated, pair_id) == (
                    semantic_payload_bytes(cold, pair_id)
                ), f"{pair_id}: update diverges from cold"
            tiers[pair_id] = report.mode
            previous = best.setdefault(pair_id, samples)
            best[pair_id] = [min(a, b) for a, b in zip(previous, samples)]

    def totals(ids) -> dict:
        return {
            "pairs": len(ids),
            "ladder_s": round(sum(best[i][0] for i in ids), 4),
            "cold_s": round(sum(best[i][1] for i in ids), 4),
        }

    by_tier = {
        tier: totals([i for i in best if tiers[i] == tier])
        for tier in sorted(set(tiers.values()))
    }
    sweep = dict(totals(list(best)), repeats=repeats, tiers=by_tier)
    print(
        f"  sweep: {sweep['pairs']} pairs, ladder {sweep['ladder_s']:.3f}s"
        f" vs cold {sweep['cold_s']:.3f}s; "
        + ", ".join(
            f"{tier} {entry['pairs']} ({entry['ladder_s']:.3f}s vs "
            f"{entry['cold_s']:.3f}s)"
            for tier, entry in by_tier.items()
        )
    )
    return sweep


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
    sweep = bench_sweep(
        TIER1_PROGRAMS if args.smoke else PROGRAMS, min(repeats, 3)
    )
    section = {
        "mode": mode,
        "repeats": repeats,
        "speedup_floor": SPEEDUP_FLOOR,
        "programs": programs,
        "sweep": sweep,
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
