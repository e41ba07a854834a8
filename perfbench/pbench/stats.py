"""Percentiles and the reporting rule for tail latency.

A percentile is reported only when at least :data:`MIN_BEYOND`
samples lie beyond it; fewer would let one slow request move it.
"""

from __future__ import annotations

import math

#: Samples that must lie strictly beyond a reported percentile.
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """A percentile was asked of a sample too small to report it."""


def nearest_rank(sorted_values: list[float], q: float) -> tuple[float, int]:
    """The nearest-rank ``q``-th percentile of ascending values, and
    the number of samples ranked beyond it."""
    if not sorted_values:
        raise TooFewSamples("no samples")
    n = len(sorted_values)
    rank = max(1, math.ceil(q / 100.0 * n))
    return sorted_values[rank - 1], n - rank


def min_samples(q: float, beyond: int = MIN_BEYOND) -> int:
    """The smallest sample count whose ``q``-th percentile has at
    least ``beyond`` samples ranked beyond it."""
    n = 1
    while n - max(1, math.ceil(q / 100.0 * n)) < beyond:
        n += 1
    return n


def reported_percentile(values: list[float], q: float) -> float:
    """The ``q``-th percentile under the reporting rule: raises
    :class:`TooFewSamples` unless :data:`MIN_BEYOND` samples lie
    beyond it."""
    value, beyond = nearest_rank(sorted(values), q)
    if beyond < MIN_BEYOND:
        raise TooFewSamples(
            f"p{q:g} of {len(values)} samples has only {beyond} beyond "
            f"it; at least {MIN_BEYOND} are needed "
            f"({min_samples(q)} samples)"
        )
    return value
