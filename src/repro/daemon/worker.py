"""The daemon's worker-process entry point.

Each worker owns one store handle (opened from the backend URL — a
file backend shares one object space across workers, a memory
backend is worker-private but stays coherent because the front end
shards requests by content hash, so a given key always lands on the
same worker) and one LRU-bounded
:class:`~repro.service.commands.SessionCache` of warm query sessions.
Requests are answered with the exact
:func:`~repro.service.commands.handle_request` dispatch the stdin
serve loop uses, which is what keeps the two transports behaviorally
identical.

Telemetry (on by default): the worker installs a process-wide
:class:`~repro.obs.tracer.MetricsTracer` — counters, gauges, and
latency histograms accumulate for the life of the worker in bounded
memory, spans stay off — so the front end's ``metrics`` fan-out can
merge a live registry from every shard.  A request carrying a
``trace`` id runs under a fresh full tracer (the shared
``handle_request`` machinery), and the finished span tree ships back
through the result queue for the front end to graft under its
``daemon.worker`` span.  Journal events the request produced (update
tiers, slow work) ship the same way and are re-sequenced into the
daemon's journal.

The job protocol over the multiprocessing queues::

    job queue:    (job_id, request_dict)  |  None        (shutdown)
    result queue: (worker_id, job_id, response, info)
                  (worker_id, None, None, None)          (shutdown ack)

``info`` carries per-request facts the front end aggregates:
``analyzed`` (a store miss ran the full analysis — the coalescing
counter's ground truth), ``wall_s``, the worker's session count,
cumulative store traffic, plus ``trace`` (the captured trace document,
traced requests only) and ``events`` (journal events since the last
shipment).
"""

from __future__ import annotations

import gc
import time


def worker_main(
    worker_id: int,
    store_url: str,
    max_sessions: int,
    job_queue,
    result_queue,
    telemetry: bool = True,
) -> None:
    """Blocking worker loop: jobs in, responses out, until sentinel."""
    # Imports happen here (not at module top) so a spawn-context child
    # pays them once, and a fork-context child reuses the parent's.
    from repro import obs
    from repro.service.commands import SessionCache, handle_request
    from repro.service.store import ResultStore

    if telemetry:
        # Spans off, metrics on, memory bounded — safe for a worker
        # that lives for millions of requests.  Traced requests fold
        # their per-request snapshots back into this registry.
        obs.set_tracer(obs.MetricsTracer())
    else:
        # A fork-context child inherits whatever tracer the parent had
        # installed; telemetry-off workers must run the null tracer.
        obs.set_tracer(None)
    # Journal events inherited from the parent process (fork) predate
    # this worker — ship only what this worker emits.
    shipped_seq = obs.journal().next_seq
    # A fork taken while another thread of the parent was inside a
    # collector pause (repro.service.gcpause) starts with the collector
    # off, and no end of that pause runs here.
    gc.enable()

    store = ResultStore(store_url)
    sessions = SessionCache(max_sessions)
    try:
        while True:
            job = job_queue.get()
            if job is None:
                break
            job_id, request = job
            start = time.perf_counter()
            misses_before = store.stats.misses
            try:
                response = handle_request(request, store, sessions)
            except Exception as exc:  # never kill the worker on one request
                response = {
                    "ok": False,
                    "error": f"internal error: {type(exc).__name__}: {exc}",
                }
            info = {
                "analyzed": store.stats.misses > misses_before,
                "wall_s": time.perf_counter() - start,
                "sessions": len(sessions),
                "store": store.stats.as_dict(),
            }
            if telemetry:
                trace_id = response.get("trace_id")
                if trace_id is not None:
                    document = obs.traces().get(trace_id)
                    if document is not None:
                        info["trace"] = document
                events = obs.journal().since(shipped_seq)
                if events:
                    shipped_seq = events[-1]["seq"] + 1
                    info["events"] = events
            result_queue.put((worker_id, job_id, response, info))
    finally:
        # Shutdown ack: every put already landed atomically, so the
        # parent may treat the worker's writes as durable.
        result_queue.put((worker_id, None, None, None))
