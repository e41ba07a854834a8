"""Span-based tracing and metrics primitives (zero dependencies).

A :class:`Tracer` records three kinds of runtime signal:

* **Spans** — nested, named time intervals forming a tree per
  top-level operation (``frontend.parse`` inside ``analyze``, ...).
  Spans carry JSON-safe attributes and are opened/closed either
  through the :meth:`Tracer.span` context manager (structurally
  balanced) or the explicit :meth:`Tracer.start_span` /
  :meth:`Tracer.end_span` pair (imbalance raises
  :class:`TraceImbalance`).
* **Counters / gauges** — monotonically accumulated event counts
  (``analysis.memo_hits``) and last-value-wins measurements
  (``analysis.ig_nodes``).
* **Histograms** — log-scale latency distributions
  (``service.query``), recorded in seconds.
* **Collector activity** — per generation, the cyclic garbage
  collector's collections, pause seconds and objects freed while the
  tracer was installed (fed by :mod:`repro.obs`'s ``gc.callbacks``
  hook).  Kept apart from the counters: they depend on the heap's
  history, not on the work a request did.

A :class:`NullTracer` provides the same interface with every method a
no-op and ``enabled`` False; it is the default process-wide tracer
(see :mod:`repro.obs`), so instrumentation hooks on hot paths cost one
attribute check when tracing is off.

Everything a tracer reports (:meth:`Tracer.events`,
:meth:`Tracer.snapshot`, :meth:`Tracer.render`) is built from plain
dicts/lists/strings/numbers, so it serializes with :mod:`json`
directly — the ``analyze --trace=json`` event log and the serve-loop
``metrics`` response are exactly these structures (see
docs/OBSERVABILITY.md for the schema).
"""

from __future__ import annotations

import time


class TraceImbalance(RuntimeError):
    """Span begin/end calls did not nest properly."""


class Span:
    """One named time interval in a trace tree."""

    __slots__ = ("name", "attrs", "start", "duration", "children")

    def __init__(self, name: str, attrs: dict, start: float):
        self.name = name
        self.attrs = attrs
        self.start = start
        self.duration: float | None = None  # None while still open
        self.children: list[Span] = []

    def annotate(self, **attrs) -> "Span":
        """Attach attributes after the span has been opened."""
        self.attrs.update(attrs)
        return self

    def to_dict(self) -> dict:
        result: dict = {
            "name": self.name,
            "start_s": round(self.start, 6),
            "duration_s": (
                round(self.duration, 6) if self.duration is not None else None
            ),
        }
        if self.attrs:
            result["attrs"] = dict(sorted(self.attrs.items()))
        if self.children:
            result["children"] = [child.to_dict() for child in self.children]
        return result


class Histogram:
    """A log-scale latency histogram over seconds.

    Bucket *i* counts observations at most ``BOUNDS[i]``; the last
    bucket is unbounded.  Tracks count/sum/min/max exactly, so the
    mean is always available regardless of bucket resolution.
    """

    #: Upper bounds in seconds: 10µs ... 100s, one decade per bucket.
    BOUNDS = (1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0)

    __slots__ = ("buckets", "count", "total", "min", "max")

    def __init__(self):
        self.buckets = [0] * (len(self.BOUNDS) + 1)
        self.count = 0
        self.total = 0.0
        self.min: float | None = None
        self.max: float | None = None

    def observe(self, seconds: float) -> None:
        index = 0
        for bound in self.BOUNDS:
            if seconds <= bound:
                break
            index += 1
        self.buckets[index] += 1
        self.count += 1
        self.total += seconds
        self.min = seconds if self.min is None else min(self.min, seconds)
        self.max = seconds if self.max is None else max(self.max, seconds)

    def as_dict(self) -> dict:
        return {
            "count": self.count,
            "sum_s": round(self.total, 6),
            "mean_s": round(self.total / self.count, 6) if self.count else 0.0,
            "min_s": round(self.min, 6) if self.min is not None else None,
            "max_s": round(self.max, 6) if self.max is not None else None,
            "bucket_bounds_s": list(self.BOUNDS),
            "buckets": list(self.buckets),
        }

    def merge_dict(self, other: dict) -> None:
        """Fold a serialized histogram (:meth:`as_dict` shape) into
        this one, bucket-wise.  Bounds must agree — merging histograms
        recorded against different decades would silently misbin."""
        bounds = other.get("bucket_bounds_s")
        if bounds is not None and tuple(bounds) != self.BOUNDS:
            raise ValueError(
                f"histogram bucket bounds differ: {bounds} vs {self.BOUNDS}"
            )
        for index, value in enumerate(other.get("buckets", ())):
            self.buckets[index] += value
        self.count += other.get("count", 0)
        self.total += other.get("sum_s", 0.0)
        other_min = other.get("min_s")
        if other_min is not None:
            self.min = (
                other_min if self.min is None else min(self.min, other_min)
            )
        other_max = other.get("max_s")
        if other_max is not None:
            self.max = (
                other_max if self.max is None else max(self.max, other_max)
            )


def add_gc(section: dict, generation: str, entry: dict) -> None:
    """Add one generation's collector figures into a ``"gc"`` section
    (field-wise sum)."""
    mine = section.get(generation)
    if mine is None:
        section[generation] = dict(entry)
    else:
        for field, value in entry.items():
            mine[field] = mine.get(field, 0) + value


class _SpanContext:
    """Context manager opening/closing one span on a tracer."""

    __slots__ = ("_tracer", "_name", "_attrs", "_span")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict):
        self._tracer = tracer
        self._name = name
        self._attrs = attrs
        self._span: Span | None = None

    def __enter__(self) -> Span:
        self._span = self._tracer.start_span(self._name, **self._attrs)
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self._span.annotate(error=exc_type.__name__)
        self._tracer.end_span(self._span)
        return False


class Tracer:
    """Collects spans, counters, gauges, and histograms for one run."""

    enabled = True

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._epoch = clock()
        self.roots: list[Span] = []
        self._stack: list[Span] = []
        self.counters: dict[str, int | float] = {}
        self.gauges: dict[str, int | float] = {}
        self.histograms: dict[str, Histogram] = {}
        #: ``"gen<N>"`` -> {"collections", "pause_s", "collected"}.
        self.gc: dict[str, dict] = {}

    # -- spans -------------------------------------------------------------

    @property
    def depth(self) -> int:
        """Number of currently-open spans."""
        return len(self._stack)

    def span(self, name: str, /, **attrs) -> _SpanContext:
        """Context manager for a balanced span."""
        return _SpanContext(self, name, attrs)

    def start_span(self, name: str, /, **attrs) -> Span:
        span = Span(name, attrs, self._clock() - self._epoch)
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)
        self._stack.append(span)
        return span

    def end_span(self, span: Span | None = None) -> Span:
        """Close the innermost open span.

        Passing ``span`` asserts it *is* the innermost one;  a
        mismatch (ends crossing, ending an unopened span, ending with
        nothing open) raises :class:`TraceImbalance`.
        """
        if not self._stack:
            raise TraceImbalance("end_span with no span open")
        top = self._stack[-1]
        if span is not None and span is not top:
            raise TraceImbalance(
                f"unbalanced spans: tried to end {span.name!r} but the "
                f"innermost open span is {top.name!r}"
            )
        self._stack.pop()
        top.duration = (self._clock() - self._epoch) - top.start
        return top

    def check_balanced(self) -> None:
        """Raise :class:`TraceImbalance` if any span is still open."""
        if self._stack:
            names = " > ".join(span.name for span in self._stack)
            raise TraceImbalance(f"spans still open: {names}")

    # -- metrics -----------------------------------------------------------

    def count(self, name: str, n: int | float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def gauge(self, name: str, value: int | float) -> None:
        self.gauges[name] = value

    def observe(self, name: str, seconds: float) -> None:
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = self.histograms[name] = Histogram()
        histogram.observe(seconds)

    def record_gc(self, generation: int, seconds: float, collected: int) -> None:
        """One finished collection of ``generation``."""
        add_gc(
            self.gc,
            f"gen{generation}",
            {"collections": 1, "pause_s": seconds, "collected": collected},
        )

    # -- reporting ---------------------------------------------------------

    def events(self) -> list[dict]:
        """The span forest as JSON-safe nested dicts."""
        return [root.to_dict() for root in self.roots]

    def snapshot(self) -> dict:
        """Counters, gauges, and histograms as one JSON-safe dict, plus
        a ``"gc"`` section once a collection has been recorded."""
        snapshot = {
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
            "histograms": {
                name: histogram.as_dict()
                for name, histogram in sorted(self.histograms.items())
            },
        }
        if self.gc:
            snapshot["gc"] = {
                generation: dict(entry, pause_s=round(entry["pause_s"], 6))
                for generation, entry in sorted(self.gc.items())
            }
        return snapshot

    def render(self) -> str:
        """The span forest as an indented text tree with durations."""
        lines: list[str] = []

        def walk(span: Span, depth: int) -> None:
            duration = (
                f"{span.duration * 1000:.3f}ms"
                if span.duration is not None
                else "<open>"
            )
            attrs = ""
            if span.attrs:
                rendered = ", ".join(
                    f"{key}={value}"
                    for key, value in sorted(span.attrs.items())
                )
                attrs = f"  [{rendered}]"
            lines.append(f"{'  ' * depth}{span.name}  {duration}{attrs}")
            for child in span.children:
                walk(child, depth + 1)

        for root in self.roots:
            walk(root, 0)
        return "\n".join(lines)


class _NullSpan:
    """Shared inert span: annotate() accepted and discarded."""

    __slots__ = ()
    name = "<null>"
    attrs: dict = {}
    children: list = []
    start = 0.0
    duration = 0.0

    def annotate(self, **attrs) -> "_NullSpan":
        return self

    def to_dict(self) -> dict:
        return {}


_NULL_SPAN = _NullSpan()


class _NullSpanContext:
    __slots__ = ()

    def __enter__(self) -> _NullSpan:
        return _NULL_SPAN

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN_CONTEXT = _NullSpanContext()


class NullTracer:
    """The do-nothing tracer installed when tracing is off.

    Every method exists and is safe to call; ``enabled`` is False so
    call-sites can skip building attribute dicts entirely.
    """

    enabled = False
    depth = 0

    def span(self, name: str, /, **attrs) -> _NullSpanContext:
        return _NULL_SPAN_CONTEXT

    def start_span(self, name: str, /, **attrs) -> _NullSpan:
        return _NULL_SPAN

    def end_span(self, span=None) -> _NullSpan:
        return _NULL_SPAN

    def check_balanced(self) -> None:
        pass

    def count(self, name: str, n: int | float = 1) -> None:
        pass

    def gauge(self, name: str, value: int | float) -> None:
        pass

    def observe(self, name: str, seconds: float) -> None:
        pass

    def record_gc(self, generation: int, seconds: float, collected: int) -> None:
        pass

    def events(self) -> list[dict]:
        return []

    def snapshot(self) -> dict:
        return {}

    def render(self) -> str:
        return ""


class MetricsTracer(Tracer):
    """A tracer that accumulates counters/gauges/histograms but keeps
    spans off.

    This is the process-wide tracer a long-lived daemon worker
    installs: metrics accumulate forever in bounded space, while span
    trees — which grow without bound and only matter per-request —
    are skipped entirely.  Per-request tracing temporarily installs a
    full :class:`Tracer` on top and folds its metrics back in (see
    :func:`repro.obs.merge.fold_snapshot`).
    """

    def span(self, name: str, /, **attrs) -> "_NullSpanContext":
        return _NULL_SPAN_CONTEXT

    def start_span(self, name: str, /, **attrs) -> "_NullSpan":
        return _NULL_SPAN

    def end_span(self, span=None) -> "_NullSpan":
        return _NULL_SPAN

    @property
    def depth(self) -> int:
        return 0

    def check_balanced(self) -> None:
        pass

    def events(self) -> list[dict]:
        return []


#: The shared default tracer (see :mod:`repro.obs`).
NULL_TRACER = NullTracer()
