"""Calibrated timing: a fixed pure-Python kernel, CPU pinning, and the
environment stamp.

On a shared 2-CPU virtual machine the host's speed moves in steps of
up to ~1.8x between and within runs, and process CPU time inflates
with it, so neither CPU time nor longer runs remove the drift.  A
fixed kernel slows by about the same factor, so every timed sample is
scaled by the kernel readings taken around its segment:

    calibrated = raw * KERNEL_NOMINAL_MS / reading

which reports each duration in "reference-host" milliseconds.  The
raw wall time is kept beside every calibrated value, and every kernel
reading is kept, so drift and correction both stay visible.
"""

from __future__ import annotations

import os
import platform
import statistics
import sys
import time

#: The kernel's duration (ms) on the reference host speed.  Fixed in
#: the benchmark's code so that two commits measured with the same
#: benchmark report in the same unit.
KERNEL_NOMINAL_MS = 2.0

#: Kernel executions per reading; a reading is their median, which
#: drops a single interrupted execution.
KERNEL_REPS = 5

#: Cells in the kernel's graph; sets its duration.
_CELLS = 720


class _Cell:
    __slots__ = ("key", "links", "weight")

    def __init__(self, key: int):
        self.key = key
        self.links: list[_Cell] = []
        self.weight = key & 7


def calibration_kernel() -> int:
    """A fixed unit of interpreter work: small objects, attribute
    access, dict/set/tuple traffic, string building and a sort — the
    operation mix of the analyzer itself.  Returns a checksum so the
    work cannot be skipped."""
    cells = [_Cell(i) for i in range(_CELLS)]
    for cell in cells:
        for step in (1, 7, 31):
            cell.links.append(cells[(cell.key * step + 3) % _CELLS])
    seen: dict[tuple[int, int], int] = {}
    reach: set[int] = set()
    for cell in cells:
        for link in cell.links:
            pair = (cell.key, link.key)
            seen[pair] = seen.get(pair, 0) + link.weight
            reach.add(link.key ^ cell.weight)
    names = [f"c{key}:{weight}" for (key, _), weight in seen.items()]
    names.sort()
    return len(reach) + len(",".join(names)) + sum(seen.values())


def kernel_reading() -> float:
    """One reading: the median kernel duration in ms."""
    durations = []
    for _ in range(KERNEL_REPS):
        start = time.perf_counter()
        calibration_kernel()
        durations.append((time.perf_counter() - start) * 1000.0)
    return statistics.median(durations)


#: Readings on each side of a segment's own pair that its factor
#: also uses.  One reading is a few ms of kernel and carries a few
#: percent of noise of its own; the host's speed steps last seconds,
#: so a centered median over ~1 s of readings tracks the steps and
#: drops the reading noise.
WINDOW = 3


class Calibrator:
    """Kernel readings taken between request segments.

    ``mark()`` takes a reading and returns its index.  A segment timed
    between marks ``i`` and ``i + 1`` is scaled by :meth:`factor`: the
    nominal duration over the median of the readings ``i - WINDOW``
    through ``i + 1 + WINDOW``."""

    def __init__(self) -> None:
        self.readings: list[float] = []
        self.taken_at: list[float] = []
        self._origin = time.perf_counter()

    def mark(self) -> int:
        self.readings.append(kernel_reading())
        self.taken_at.append(time.perf_counter() - self._origin)
        return len(self.readings) - 1

    def factor(self, before: int) -> float:
        """Scale factor for the segment that starts at reading
        ``before``."""
        window = self.readings[max(0, before - WINDOW): before + 2 + WINDOW]
        return KERNEL_NOMINAL_MS / statistics.median(window)

    def as_dict(self) -> dict:
        return {
            "nominal_ms": KERNEL_NOMINAL_MS,
            "reps": KERNEL_REPS,
            "window": WINDOW,
            "readings_ms": [round(r, 4) for r in self.readings],
            "taken_at_s": [round(t, 3) for t in self.taken_at],
        }


def pin_to_one_cpu() -> int | None:
    """Pin this process (and every child it starts later) to one CPU.

    Picks the highest-numbered CPU the process may use.  Returns the
    CPU, or None where affinity is not supported."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    allowed = sorted(os.sched_getaffinity(0))
    cpu = allowed[-1]
    os.sched_setaffinity(0, {cpu})
    return cpu


def environment_stamp(pinned_cpu: int | None, allowed: list[int]) -> dict:
    return {
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "allowed_cpus": allowed,
        "pinned_cpu": pinned_cpu,
    }
