"""Merge semantics for metrics snapshots from many processes.

The daemon shards requests over forked workers, so every worker
accumulates its own tracer state.  One coherent ``{"cmd": "metrics"}``
answer needs well-defined merge rules over the JSON-safe snapshot
shape (:meth:`repro.obs.tracer.Tracer.snapshot`):

* **counters** — sum.  Counters are monotone event counts, so the
  merged counter is the count over the union of the processes.
* **gauges** — last write wins, *with source*: the merged value is the
  value from the last-listed source that set it, and
  ``gauge_sources`` records which source that was (a gauge like
  ``analysis.ig_nodes`` is a per-run probe; summing it would be
  meaningless).
* **histograms** — bucket-wise add on the shared log-decade bounds,
  with exact count/sum and min/max folding.  Bucket-wise addition is
  associative and commutative (asserted by property tests), so a
  merged histogram equals the histogram of the interleaved
  observation stream regardless of how requests were sharded.
* **gc** — per generation, field-wise sum of collections, pause
  seconds and objects collected; present only when some source has it.

All functions work on plain dicts, so worker snapshots can be merged
straight off the wire without reconstructing tracer objects.
"""

from __future__ import annotations

from repro.obs.tracer import Histogram, add_gc

__all__ = [
    "fold_snapshot",
    "histogram_quantile",
    "merge_counters",
    "merge_gauges",
    "merge_histograms",
    "merge_snapshots",
]


def merge_counters(counter_maps: list[dict]) -> dict:
    """Sum counter maps key-wise."""
    merged: dict = {}
    for counters in counter_maps:
        for name, value in counters.items():
            merged[name] = merged.get(name, 0) + value
    return dict(sorted(merged.items()))


def merge_gauges(named_gauge_maps: list[tuple[str, dict]]) -> tuple[dict, dict]:
    """(merged, sources): last-listed source that set a gauge wins."""
    merged: dict = {}
    sources: dict = {}
    for source, gauges in named_gauge_maps:
        for name, value in gauges.items():
            merged[name] = value
            sources[name] = source
    return dict(sorted(merged.items())), dict(sorted(sources.items()))


def merge_histograms(histogram_dicts: list[dict]) -> dict:
    """Bucket-wise merge of serialized histograms (shared bounds)."""
    merged = Histogram()
    for entry in histogram_dicts:
        merged.merge_dict(entry)
    return merged.as_dict()


def merge_snapshots(named_snapshots: list[tuple[str, dict]]) -> dict:
    """One registry snapshot from many ``(source, snapshot)`` pairs.

    Missing sections (a :class:`~repro.obs.tracer.NullTracer` snapshot
    is ``{}``) merge as empty.  The result has the same shape as a
    single tracer's snapshot, plus ``gauge_sources``.
    """
    counters = merge_counters(
        [snap.get("counters", {}) for _, snap in named_snapshots]
    )
    gauges, gauge_sources = merge_gauges(
        [(source, snap.get("gauges", {})) for source, snap in named_snapshots]
    )
    histogram_names: set[str] = set()
    for _, snap in named_snapshots:
        histogram_names.update(snap.get("histograms", {}))
    histograms = {
        name: merge_histograms(
            [
                snap["histograms"][name]
                for _, snap in named_snapshots
                if name in snap.get("histograms", {})
            ]
        )
        for name in sorted(histogram_names)
    }
    merged = {
        "counters": counters,
        "gauges": gauges,
        "gauge_sources": gauge_sources,
        "histograms": histograms,
    }
    gc_section: dict = {}
    for _, snap in named_snapshots:
        for generation, entry in snap.get("gc", {}).items():
            add_gc(gc_section, generation, entry)
    if gc_section:
        merged["gc"] = dict(sorted(gc_section.items()))
    return merged


def fold_snapshot(tracer, snapshot: dict) -> None:
    """Fold a snapshot dict into a live tracer.

    Used when a per-request full tracer finishes: its counters and
    histogram observations belong in the process-wide
    :class:`~repro.obs.tracer.MetricsTracer` too, or the request's
    work would vanish from the long-run metrics.
    """
    for name, value in snapshot.get("counters", {}).items():
        tracer.count(name, value)
    for name, value in snapshot.get("gauges", {}).items():
        tracer.gauge(name, value)
    for name, entry in snapshot.get("histograms", {}).items():
        histogram = tracer.histograms.get(name)
        if histogram is None:
            histogram = tracer.histograms[name] = Histogram()
        histogram.merge_dict(entry)
    for generation, entry in snapshot.get("gc", {}).items():
        add_gc(tracer.gc, generation, entry)


def histogram_quantile(histogram: dict, fraction: float) -> float | None:
    """Estimate a quantile (in seconds) from a serialized histogram.

    Walks the cumulative bucket counts to the target rank and returns
    the bucket's upper bound (the overflow bucket reports the observed
    max).  None when the histogram is empty.
    """
    count = histogram.get("count", 0)
    if not count:
        return None
    bounds = histogram.get("bucket_bounds_s", list(Histogram.BOUNDS))
    rank = fraction * count
    cumulative = 0
    for index, bucket in enumerate(histogram.get("buckets", ())):
        cumulative += bucket
        if cumulative >= rank and bucket:
            if index < len(bounds):
                return float(bounds[index])
            break
    maximum = histogram.get("max_s")
    return float(maximum) if maximum is not None else float(bounds[-1])
