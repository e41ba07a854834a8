"""``repro.obs`` — pipeline-wide tracing and metrics.

One process-wide *current tracer* (a :class:`~repro.obs.tracer.Tracer`
or the shared :data:`~repro.obs.tracer.NULL_TRACER`) is consulted by
instrumentation hooks threaded through the whole pipeline: the C
frontend, the SIMPLE lowering, the interprocedural analysis core, and
the result-store service layer.  Tracing is **off by default** — the
hooks reduce to one attribute check — and is enabled for a dynamic
extent with :func:`tracing`::

    from repro import obs

    with obs.tracing() as tracer:
        analyze_source(source)
    print(tracer.render())          # span tree
    print(tracer.snapshot())        # counters / gauges / histograms

Hook call-sites use the module-level helpers below (:func:`span`,
:func:`count`, :func:`gauge`, :func:`observe`, :func:`timed`) so they
always see the currently-installed tracer.  :func:`timed` measures
wall time *unconditionally* (its ``elapsed`` attribute is the one
timing source for batch reports and benchmarks) and only additionally
records a span + histogram entry when tracing is on.

While a tracer is installed, a ``gc.callbacks`` hook records every
cyclic-collector run into it (collections, pause seconds and objects
freed, per generation: the snapshot's ``"gc"`` section).

Consumers: ``repro-pta analyze --trace[=json]``, the JSON-lines serve
loop's ``{"cmd": "metrics"}`` request, and
``benchmarks/bench_perf.py``'s ``tracing`` section.  See
docs/OBSERVABILITY.md for the span taxonomy and schemas.
"""

from __future__ import annotations

import gc
import time
from contextlib import contextmanager

from repro.obs.journal import Journal
from repro.obs.tracer import (
    NULL_TRACER,
    Histogram,
    MetricsTracer,
    NullTracer,
    Span,
    TraceImbalance,
    Tracer,
)
from repro.obs.traces import TraceBuffer, new_trace_id

__all__ = [
    "Histogram",
    "Journal",
    "MetricsTracer",
    "NullTracer",
    "Span",
    "TraceBuffer",
    "TraceImbalance",
    "Tracer",
    "NULL_TRACER",
    "active",
    "count",
    "event",
    "gauge",
    "get_tracer",
    "journal",
    "new_trace_id",
    "observe",
    "set_tracer",
    "span",
    "timed",
    "traces",
    "tracing",
]

_current = NULL_TRACER

#: Process-wide telemetry singletons.  The journal records lifecycle
#: events (always on — a few deque appends per *request*, never per
#: statement); the trace buffer retains finished per-request trace
#: documents for the ``{"cmd": "trace"}`` verb.
_journal = Journal()
_traces = TraceBuffer()


def journal() -> Journal:
    """The process-wide event journal."""
    return _journal


def traces() -> TraceBuffer:
    """The process-wide buffer of finished request traces."""
    return _traces


def event(kind: str, /, **fields) -> int:
    """Emit one structured event into the process journal."""
    return _journal.emit(kind, **fields)


#: perf_counter() at the start of the collection in progress.
_gc_started = 0.0


def _on_gc(phase: str, info: dict) -> None:
    """The ``gc.callbacks`` hook: time each collection and record it
    into the current tracer when one is enabled."""
    global _gc_started
    if phase == "start":
        _gc_started = time.perf_counter()
    elif _current.enabled:
        _current.record_gc(
            info["generation"],
            time.perf_counter() - _gc_started,
            info["collected"],
        )


gc.callbacks.append(_on_gc)


def get_tracer():
    """The currently-installed tracer (never None)."""
    return _current


def set_tracer(tracer) -> None:
    """Install ``tracer`` process-wide; None restores the null tracer."""
    global _current
    _current = tracer if tracer is not None else NULL_TRACER


def active() -> bool:
    """True when a real (enabled) tracer is installed."""
    return _current.enabled


@contextmanager
def tracing(tracer: Tracer | None = None):
    """Install ``tracer`` (a fresh :class:`Tracer` by default) for the
    dynamic extent of the ``with`` block; restores the previous tracer
    on exit."""
    global _current
    previous = _current
    _current = tracer if tracer is not None else Tracer()
    try:
        yield _current
    finally:
        _current = previous


# -- hook helpers (consult the current tracer at call time) ----------------


def span(name: str, /, **attrs):
    """A span context manager on the current tracer (no-op when off)."""
    return _current.span(name, **attrs)


def count(name: str, n: int | float = 1) -> None:
    tracer = _current
    if tracer.enabled:
        tracer.count(name, n)


def gauge(name: str, value: int | float) -> None:
    tracer = _current
    if tracer.enabled:
        tracer.gauge(name, value)


def observe(name: str, seconds: float) -> None:
    tracer = _current
    if tracer.enabled:
        tracer.observe(name, seconds)


class timed:
    """Context manager that always measures wall time.

    ``elapsed`` (seconds) is set on exit regardless of tracing, which
    makes it the single timing source for reports that must work
    untraced (batch rows, benchmarks).  When tracing is on it *also*
    opens a span named ``name`` and feeds the duration into the
    histogram of the same name.
    """

    __slots__ = ("name", "attrs", "elapsed", "_start", "_context")

    def __init__(self, name: str, /, **attrs):
        self.name = name
        self.attrs = attrs
        self.elapsed = 0.0
        self._start = 0.0
        self._context = None

    def __enter__(self) -> "timed":
        tracer = _current
        if tracer.enabled:
            self._context = tracer.span(self.name, **self.attrs)
            self._context.__enter__()
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.elapsed = time.perf_counter() - self._start
        context = self._context
        if context is not None:
            observe(self.name, self.elapsed)
            self._context = None
            return context.__exit__(exc_type, exc, tb)
        return False
