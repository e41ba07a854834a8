"""The concurrent analysis daemon: asyncio front end over worker processes.

Architecture (see docs/DAEMON.md)::

    clients ──TCP/JSON-lines──▶ asyncio front end (this module)
                                  │  admission control + per-client quotas
                                  │  request coalescing (one analysis per
                                  │  in-flight content key)
                                  ▼  shard by ResultStore.key_for(...)
                         worker process 0..N-1  (repro.daemon.worker)
                                  │  warm SessionCache per worker
                                  ▼
                         store backend (file: / sqlite: / memory://)

* **Sharding** — every source-bearing request (``query``, ``check``,
  ``update``) routes by its content key, so one key always lands on
  the same worker: that worker's LRU'd sessions stay warm (repeat
  queries skip decode entirely) and two racing requests for one key
  serialize on its queue instead of analyzing twice.  ``update``
  shards by the *new* source's key — the re-keyed warm session lands
  exactly where later queries for that source will route.
* **Coalescing** — identical in-flight requests (same content key and
  same request body) share one worker round trip; the single response
  fans out to every waiter.  ``daemon.coalesced`` counts the piggyback
  rides, ``daemon.analyses`` counts true analysis runs.
* **Backpressure** — a bounded admission queue: when the dispatched-
  but-unfinished job count reaches ``queue_limit`` the daemon answers
  ``{"ok": false, "error": "overloaded", "retry_after_ms": ...}``
  instead of stalling the socket.  Per-connection in-flight caps
  (``client_inflight``) keep one greedy client from filling the queue.
* **Graceful shutdown** — ``{"cmd": "quit"}``, SIGTERM, or SIGINT
  drain in-flight analyses, flush store writes in every worker, and
  close sessions before exit; atomic backend writes mean a hard kill
  mid-request never leaves a corrupt object either.

The protocol verbs are exactly the stdin serve loop's
(:mod:`repro.service.commands`); ``stats`` and ``provenance`` fan out
to every worker and merge, and so does ``metrics``: every worker's
registry merges with the front end's ``daemon.*`` counters / gauges /
histograms under the rules of :mod:`repro.obs.merge` (counters sum,
gauges last-write-wins with source, histograms add bucket-wise).

The telemetry plane on top (docs/OBSERVABILITY.md, "Telemetry
plane"): per-request distributed traces (``{"trace": true}`` —
admission/queue/worker spans merged with the worker-captured tree,
drained via ``{"cmd": "trace"}``), a sequence-numbered event journal
(``{"cmd": "events"}`` — sheds, worker restarts, update tiers, slow
requests), a slow-request log (``REPRO_PTA_SLOW_MS`` / ``--slow-ms``
traces every over-budget request), and a ``--metrics-port`` HTTP
listener exposing the merged registry as Prometheus text exposition.
``telemetry=False`` turns the whole plane off: the front end runs the
null tracer and every hook reduces to one attribute check.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import signal
import sys
import threading
import time
from dataclasses import dataclass, field

from repro.obs.journal import Journal
from repro.obs.merge import merge_snapshots
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.obs.traces import (
    TRACE_VERSION,
    TraceBuffer,
    new_trace_id,
    synthetic_span,
)
from repro.service.commands import (
    AGGREGATE_COMMANDS,
    CMD_HANDLERS,
    request_options,
    request_source,
)
from repro.service.store import ResultStore, default_store_url

#: One JSON-lines request (a whole C source travels inline) may be
#: large; the asyncio default 64 KiB readline limit is not enough.
MAX_LINE_BYTES = 32 * 1024 * 1024


@dataclass
class DaemonConfig:
    """Tunables for one daemon instance."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = pick a free port (reported by Daemon.port)
    store_url: str | None = None  # None = REPRO_PTA_STORE / default
    workers: int = 0  # 0 = os.cpu_count()
    max_sessions: int = 64  # warm QuerySessions kept per worker
    queue_limit: int = 128  # dispatched-but-unfinished job cap
    client_inflight: int = 16  # per-connection outstanding cap
    drain_timeout: float = 30.0  # seconds to wait for in-flight work
    telemetry: bool = True  # front-end metrics/journal/trace capture
    slow_ms: float | None = None  # None = $REPRO_PTA_SLOW_MS (off unset)
    metrics_port: int | None = None  # Prometheus HTTP listener (off=None)
    trace_buffer: int = 256  # finished trace documents retained
    journal_capacity: int = 512  # journal ring size

    def resolved_workers(self) -> int:
        import os

        if self.workers and self.workers > 0:
            return self.workers
        return os.cpu_count() or 1

    def resolved_store_url(self) -> str:
        return self.store_url or default_store_url()

    def resolved_slow_s(self) -> float | None:
        """The slow-request threshold in seconds (None = disabled).

        An explicit ``slow_ms`` wins; otherwise the ``REPRO_PTA_SLOW_MS``
        environment variable applies (documented in docs/DAEMON.md)."""
        import os

        raw = self.slow_ms
        if raw is None:
            text = os.environ.get("REPRO_PTA_SLOW_MS", "").strip()
            if not text:
                return None
            try:
                raw = float(text)
            except ValueError:
                return None
        return raw / 1000.0 if raw > 0 else None


def _overloaded(reason: str, retry_after_ms: int) -> dict:
    return {
        "ok": False,
        "error": "overloaded",
        "reason": reason,
        "retry_after_ms": retry_after_ms,
    }


class _Connection:
    """Per-client state: write lock and the in-flight quota counter."""

    __slots__ = ("writer", "lock", "inflight", "tasks")

    def __init__(self, writer: asyncio.StreamWriter):
        self.writer = writer
        self.lock = asyncio.Lock()
        self.inflight = 0
        self.tasks: set[asyncio.Task] = set()


@dataclass
class _WorkerInfo:
    """Last-known facts reported by one worker."""

    sessions: int = 0
    store: dict = field(default_factory=dict)


class Daemon:
    """One daemon instance; drive it with :meth:`run` (blocking) or
    :meth:`start` / :meth:`serve_forever` / :meth:`shutdown` inside an
    event loop."""

    def __init__(
        self, config: DaemonConfig | None = None, tracer: Tracer | None = None
    ):
        self.config = config or DaemonConfig()
        # A private tracer (not the process-global obs one): the event
        # loop is the only writer, and the metrics verb snapshots it.
        # Telemetry off swaps in the shared null tracer — every hook
        # reduces to one attribute check and no state accumulates.
        if tracer is not None:
            self.tracer = tracer
        else:
            self.tracer = Tracer() if self.config.telemetry else NULL_TRACER
        #: The daemon's own journal + trace buffer (instance-private,
        #: not the obs singletons: a DaemonHandle sharing a process
        #: with a stdin serve loop must not cross-contaminate).
        self.journal = Journal(self.config.journal_capacity)
        self.traces = TraceBuffer(self.config.trace_buffer)
        self._slow_s = self.config.resolved_slow_s()
        self.port: int | None = None
        self.host: str | None = None
        self.metrics_port: int | None = None
        self._server: asyncio.AbstractServer | None = None
        self._metrics_server: asyncio.AbstractServer | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._workers: list[multiprocessing.Process] = []
        self._queues: list = []
        self._results = None
        self._pump: threading.Thread | None = None
        self._pump_stop = threading.Event()
        self._worker_info: dict[int, _WorkerInfo] = {}
        self._worker_acks = 0
        self._supervisor: asyncio.Task | None = None
        self.worker_restarts = 0
        # job_id -> (future -> (response, info), coalesce key, worker)
        self._jobs: dict[
            int, tuple[asyncio.Future, str | None, int]
        ] = {}
        self._inflight: dict[str, asyncio.Future] = {}
        self._next_job = 0
        self._pending = 0
        self._latency_ewma = 0.05  # seconds; seeds retry-after estimates
        self._connections: set[_Connection] = set()
        self._draining = False
        self._stopped = asyncio.Event()
        self.started_at: float | None = None

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Spawn workers, the result pump, and the TCP listener."""
        config = self.config
        self._loop = asyncio.get_running_loop()
        n_workers = config.resolved_workers()
        store_url = config.resolved_store_url()
        # Fork (where available) shares the already-imported analysis
        # code; workers are spawned before the server accepts traffic.
        method = (
            "fork"
            if "fork" in multiprocessing.get_all_start_methods()
            else "spawn"
        )
        ctx = multiprocessing.get_context(method)
        self._results = ctx.Queue()
        from repro.daemon.worker import worker_main

        for worker_id in range(n_workers):
            queue = ctx.Queue()
            process = ctx.Process(
                target=worker_main,
                args=(
                    worker_id,
                    store_url,
                    config.max_sessions,
                    queue,
                    self._results,
                    config.telemetry,
                ),
                daemon=True,
                name=f"repro-daemon-worker-{worker_id}",
            )
            process.start()
            self._queues.append(queue)
            self._workers.append(process)
            self._worker_info[worker_id] = _WorkerInfo()
        self._pump = threading.Thread(
            target=self._pump_results, name="repro-daemon-pump", daemon=True
        )
        self._pump.start()
        self._server = await asyncio.start_server(
            self._handle_connection,
            host=config.host,
            port=config.port,
            limit=MAX_LINE_BYTES,
        )
        address = self._server.sockets[0].getsockname()
        self.host, self.port = address[0], address[1]
        if config.metrics_port is not None:
            self._metrics_server = await asyncio.start_server(
                self._handle_metrics_scrape,
                host=config.host,
                port=config.metrics_port,
            )
            self.metrics_port = self._metrics_server.sockets[0].getsockname()[
                1
            ]
        self._supervisor = asyncio.ensure_future(self._supervise_workers())
        self.started_at = time.time()
        self.tracer.gauge("daemon.workers", n_workers)
        if self.config.telemetry:
            self.journal.emit(
                "daemon_start",
                workers=n_workers,
                store=store_url,
                port=self.port,
            )

    async def serve_forever(self) -> None:
        """Block until :meth:`shutdown` completes."""
        await self._stopped.wait()

    async def run(self) -> None:
        """Start, install signal handlers, and serve until shutdown."""
        await self.start()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(
                    signum,
                    lambda: asyncio.ensure_future(self.shutdown()),
                )
            except (NotImplementedError, RuntimeError):
                pass  # non-main thread or platform without support
        await self.serve_forever()

    async def shutdown(self) -> None:
        """Drain in-flight work, flush stores, stop workers, exit."""
        if self._draining:
            return
        self._draining = True
        if self._supervisor is not None:
            self._supervisor.cancel()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._metrics_server is not None:
            self._metrics_server.close()
            await self._metrics_server.wait_closed()
        # 1. Drain: wait for every dispatched job to come back.
        deadline = time.monotonic() + self.config.drain_timeout
        pending = [future for future, _, _ in self._jobs.values()]
        if pending:
            await asyncio.wait(
                pending, timeout=max(0.0, deadline - time.monotonic())
            )
        # 2. Let response writers finish delivering to clients.
        writers = [
            task
            for conn in list(self._connections)
            for task in list(conn.tasks)
        ]
        if writers:
            await asyncio.wait(
                writers, timeout=max(0.1, deadline - time.monotonic())
            )
        # 3. Stop workers: sentinel, then wait for their flush acks.
        for queue in self._queues:
            queue.put(None)
        join_deadline = max(1.0, deadline - time.monotonic())
        for process in self._workers:
            await self._loop.run_in_executor(
                None, process.join, join_deadline / max(len(self._workers), 1)
            )
            if process.is_alive():
                process.terminate()
        self._pump_stop.set()
        if self._pump is not None:
            await self._loop.run_in_executor(None, self._pump.join, 2.0)
        # 4. Close remaining client connections.
        for conn in list(self._connections):
            try:
                conn.writer.close()
            except Exception:
                pass
        self._stopped.set()

    # -- worker plumbing ---------------------------------------------------

    def _pump_results(self) -> None:
        """Move worker results onto the event loop (runs in a thread)."""
        import queue as queue_mod

        while not self._pump_stop.is_set():
            try:
                item = self._results.get(timeout=0.1)
            except queue_mod.Empty:
                continue
            except (EOFError, OSError):
                break
            self._loop.call_soon_threadsafe(self._complete, *item)

    def _complete(self, worker_id, job_id, response, info) -> None:
        """One worker result arrived (event-loop thread)."""
        if job_id is None:  # shutdown ack: stores flushed and closed
            self._worker_acks += 1
            return
        entry = self._jobs.pop(job_id, None)
        if entry is None:
            # A late result for a job the supervisor already failed
            # (its worker died and was replaced): the waiter was
            # answered, and _pending was repaired then — drop it.
            return
        self._pending -= 1
        self.tracer.gauge("daemon.queue_depth", self._pending)
        wall = info.get("wall_s", 0.0)
        self._latency_ewma = 0.8 * self._latency_ewma + 0.2 * wall
        if info.get("analyzed"):
            self.tracer.count("daemon.analyses")
        known = self._worker_info.get(worker_id)
        if known is not None:
            known.sessions = info.get("sessions", known.sessions)
            known.store = info.get("store", known.store)
        # Journal events the worker recorded while answering (update
        # tiers chosen, slow work) merge into the daemon's journal,
        # re-sequenced but keeping their origin stamp.
        for event in info.get("events", ()):
            self.journal.ingest(event, source=f"worker-{worker_id}")
        future, coalesce_key, _ = entry
        if coalesce_key is not None:
            self._inflight.pop(coalesce_key, None)
        if not future.done():
            future.set_result((response, info))

    def _dispatch(
        self, shard: int, request: dict, coalesce_key: str | None
    ) -> asyncio.Future:
        """Queue one job on a worker; the future yields (response, info)."""
        job_id = self._next_job
        self._next_job += 1
        future = self._loop.create_future()
        worker_index = shard % len(self._queues)
        self._jobs[job_id] = (future, coalesce_key, worker_index)
        self._pending += 1
        self.tracer.gauge("daemon.queue_depth", self._pending)
        self._queues[worker_index].put((job_id, request))
        return future

    async def _supervise_workers(self) -> None:
        """Detect dead workers: fail their in-flight jobs with a
        structured error (clients get an answer, never a hang), journal
        a ``worker_restart`` event, and respawn it in the same slot so
        the shard keeps its routing."""
        try:
            while not self._draining:
                await asyncio.sleep(0.2)
                for index, process in enumerate(self._workers):
                    if process.is_alive() or self._draining:
                        continue
                    self._restart_worker(index, process)
        except asyncio.CancelledError:
            pass

    def _restart_worker(self, index: int, dead) -> None:
        exitcode = dead.exitcode
        self.worker_restarts += 1
        self.tracer.count("daemon.worker_restarts")
        self.journal.emit(
            "worker_restart", worker=index, exitcode=exitcode
        )
        failed = [
            (job_id, entry)
            for job_id, entry in self._jobs.items()
            if entry[2] == index
        ]
        for job_id, (future, coalesce_key, _) in failed:
            self._jobs.pop(job_id, None)
            self._pending -= 1
            if coalesce_key is not None:
                self._inflight.pop(coalesce_key, None)
            if not future.done():
                future.set_result(
                    (
                        {
                            "ok": False,
                            "error": f"worker {index} died mid-request "
                            f"(exit code {exitcode}); it has been "
                            "restarted — retry the request",
                            "reason": "worker_died",
                            "worker": index,
                            "retryable": True,
                        },
                        {},
                    )
                )
        self.tracer.gauge("daemon.queue_depth", self._pending)
        ctx = multiprocessing.get_context(
            "fork"
            if "fork" in multiprocessing.get_all_start_methods()
            else "spawn"
        )
        from repro.daemon.worker import worker_main

        # A fresh job queue: a worker killed inside the old queue's
        # read can leave its lock held, and every job still on it was
        # failed above.  Nothing reads the old queue again, so exit
        # must not wait to flush it.
        self._queues[index].cancel_join_thread()
        self._queues[index] = ctx.Queue()
        process = ctx.Process(
            target=worker_main,
            args=(
                index,
                self.config.resolved_store_url(),
                self.config.max_sessions,
                self._queues[index],
                self._results,
                self.config.telemetry,
            ),
            daemon=True,
            name=f"repro-daemon-worker-{index}",
        )
        process.start()
        self._workers[index] = process

    def _retry_after_ms(self) -> int:
        estimate = (
            1000.0
            * self._latency_ewma
            * max(self._pending, 1)
            / max(len(self._workers), 1)
        )
        return int(min(5000.0, max(50.0, estimate)))

    # -- request handling --------------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        conn = _Connection(writer)
        self._connections.add(conn)
        self.tracer.count("daemon.connections")
        self.tracer.gauge("daemon.open_connections", len(self._connections))
        try:
            while True:
                try:
                    line = await reader.readline()
                except (
                    asyncio.LimitOverrunError,
                    ValueError,
                    ConnectionError,
                ):
                    break
                if not line:
                    break
                line = line.strip()
                if not line:
                    continue
                task = asyncio.ensure_future(
                    self._handle_line(conn, line)
                )
                conn.tasks.add(task)
                task.add_done_callback(conn.tasks.discard)
        finally:
            if conn.tasks:
                await asyncio.wait(list(conn.tasks))
            self._connections.discard(conn)
            self.tracer.gauge(
                "daemon.open_connections", len(self._connections)
            )
            try:
                writer.close()
            except Exception:
                pass

    async def _handle_line(self, conn: _Connection, line: bytes) -> None:
        start = time.perf_counter()
        request: dict | None = None
        try:
            parsed = json.loads(line)
        except json.JSONDecodeError as exc:
            response = {"ok": False, "error": f"bad JSON: {exc}"}
        else:
            if not isinstance(parsed, dict):
                response = {"ok": False, "error": "request must be an object"}
            else:
                request = parsed
                response = await self._answer(conn, request)
        verb = (request or {}).get("cmd", "query")
        # Copy before annotating: coalesced waiters share one response
        # object, and each waiter stamps its own id and wall time.
        response = dict(response)
        if request is not None and "id" in request:
            response["id"] = request["id"]
        quit_now = response.pop("quit", False)
        elapsed = time.perf_counter() - start
        response["metrics"] = {"wall_ms": round(elapsed * 1000, 3)}
        self.tracer.count("daemon.requests")
        if not response.get("ok", False):
            self.tracer.count("daemon.errors")
        self.tracer.observe("daemon.request", elapsed)
        self.tracer.observe(f"daemon.cmd.{verb}", elapsed)
        async with conn.lock:
            try:
                conn.writer.write(
                    json.dumps(response, sort_keys=True).encode() + b"\n"
                )
                await conn.writer.drain()
            except (ConnectionError, RuntimeError):
                return
        if quit_now:
            asyncio.ensure_future(self.shutdown())

    async def _answer(self, conn: _Connection, request: dict) -> dict:
        """Route one parsed request and await its response."""
        if self._draining:
            return {"ok": False, "error": "shutting down"}
        cmd = request.get("cmd")
        if cmd == "quit":
            # Answer like the serve loop, then drain and exit.
            return dict(CMD_HANDLERS["quit"](request, None, None))
        if cmd == "metrics":
            return await self._metrics_response(request)
        if cmd == "events":
            return self.journal.answer(request.get("since"))
        if cmd == "trace":
            return self.traces.answer(
                request.get("trace_id", request.get("id"))
            )
        if cmd in AGGREGATE_COMMANDS:
            return await self._fan_out(request)
        if cmd is not None and cmd not in CMD_HANDLERS:
            return {
                "ok": False,
                "error": f"unknown cmd {cmd!r}",
                "cmd": cmd,
                "known_cmds": sorted(CMD_HANDLERS),
            }
        if cmd is None and "query" not in request:
            return {"ok": False, "error": "missing 'query'"}

        # Source-bearing request (query or check): route by content key.
        name, source, error = request_source(request)
        if error is not None:
            return error
        options, error = request_options(request)
        if error is not None:
            return error
        key = ResultStore.key_for(source, options)

        telemetry = self.config.telemetry
        trace_id: str | None = None
        if telemetry and request.get("trace"):
            supplied = request["trace"]
            trace_id = (
                supplied if isinstance(supplied, str) else new_trace_id()
            )

        if conn.inflight >= self.config.client_inflight:
            self.tracer.count("daemon.shed")
            self.tracer.count("daemon.shed.client_quota")
            if telemetry:
                self.journal.emit(
                    "shed", reason="client_quota", key=key[:12]
                )
            return _overloaded("client_quota", self._retry_after_ms())

        conn.inflight += 1
        admitted_s = time.perf_counter()
        try:
            body = dict(request)
            body.pop("id", None)
            # "trace" leaves the body *before* the coalesce key is
            # computed: a traced request and its untraced twin are the
            # same analysis and must share one worker round trip.
            body.pop("trace", None)
            coalesce_key = key + "\n" + json.dumps(body, sort_keys=True)
            future = self._inflight.get(coalesce_key)
            coalesced = future is not None
            if coalesced:
                self.tracer.count("daemon.coalesced")
            else:
                if self._pending >= self.config.queue_limit:
                    self.tracer.count("daemon.shed")
                    self.tracer.count("daemon.shed.queue_full")
                    if telemetry:
                        self.journal.emit(
                            "shed", reason="queue_full", key=key[:12]
                        )
                    return _overloaded("queue_full", self._retry_after_ms())
                shard = int(key[:8], 16)
                if trace_id is not None:
                    # The dispatcher's id rides into the worker; the
                    # worker captures its span tree under it and ships
                    # the document back through the result queue.
                    body["trace"] = trace_id
                future = self._dispatch(shard, body, coalesce_key)
                self._inflight[coalesce_key] = future
            dispatched_s = time.perf_counter()
            response, info = await asyncio.shield(future)
            if telemetry:
                response = self._finish_telemetry(
                    response,
                    info,
                    trace_id,
                    cmd or "query",
                    key,
                    admitted_s,
                    dispatched_s,
                    coalesced,
                )
            return response
        finally:
            conn.inflight -= 1

    def _finish_telemetry(
        self,
        response: dict,
        info: dict,
        trace_id: str | None,
        cmd: str,
        key: str,
        admitted_s: float,
        dispatched_s: float,
        coalesced: bool,
    ) -> dict:
        """Post-completion telemetry for one dispatched request: build
        the merged trace document (requested traces, and slow requests
        even untraced) and journal slow requests."""
        done_s = time.perf_counter()
        total_s = done_s - admitted_s
        slow = self._slow_s is not None and total_s >= self._slow_s
        if trace_id is None and not slow:
            return response
        if trace_id is None:
            trace_id = new_trace_id()
        self._build_trace_document(
            trace_id,
            cmd,
            admitted_s,
            dispatched_s,
            done_s,
            info,
            coalesced,
            slow,
        )
        if slow:
            self.tracer.count("daemon.slow_requests")
            self.journal.emit(
                "slow_request",
                cmd=cmd,
                wall_ms=round(total_s * 1000, 3),
                key=key[:12],
                trace_id=trace_id,
                coalesced=coalesced,
            )
        response = dict(response)
        response["trace_id"] = trace_id
        return response

    def _build_trace_document(
        self,
        trace_id: str,
        cmd: str,
        admitted_s: float,
        dispatched_s: float,
        done_s: float,
        info: dict,
        coalesced: bool,
        slow: bool,
    ) -> dict:
        """One coherent tree for one request: server-side admission /
        queue / worker spans synthesized from the timestamps the front
        end already collected, with the worker-captured span tree (when
        the dispatch was traced) grafted under ``daemon.worker``.

        A traced request that *coalesced* onto an untraced in-flight
        job gets server-side spans only — the worker never saw a trace
        id — which the document marks with ``coalesced``."""
        total_s = done_s - admitted_s
        admission_s = dispatched_s - admitted_s
        children = [
            synthetic_span(
                "daemon.admission",
                0.0,
                admission_s,
                attrs={"coalesced": coalesced},
            )
        ]
        worker_doc = info.get("trace")
        worker_wall = info.get("wall_s")
        if worker_wall is not None:
            queue_s = max(0.0, total_s - admission_s - worker_wall)
            children.append(
                synthetic_span("daemon.queue", admission_s, queue_s)
            )
            attrs = {}
            if worker_doc and worker_doc.get("trace_id") != trace_id:
                # A traced joiner sharing a dispatch traced under a
                # different id: keep the provenance link.
                attrs["origin_trace_id"] = worker_doc["trace_id"]
            children.append(
                synthetic_span(
                    "daemon.worker",
                    admission_s + queue_s,
                    worker_wall,
                    attrs=attrs or None,
                    children=(worker_doc or {}).get("spans") or None,
                )
            )
        document = {
            "trace_version": TRACE_VERSION,
            "trace_id": trace_id,
            "transport": "tcp",
            "slow": slow,
            "spans": [
                synthetic_span(
                    "daemon.request",
                    0.0,
                    total_s,
                    attrs={"cmd": cmd},
                    children=children,
                )
            ],
        }
        if worker_doc and worker_doc.get("metrics"):
            document["metrics"] = worker_doc["metrics"]
        self.traces.put(trace_id, document)
        return document

    # -- control verbs -----------------------------------------------------

    def _merged_store_stats(self) -> dict:
        totals = {"hits": 0, "misses": 0, "puts": 0, "invalid": 0}
        for info in self._worker_info.values():
            for field_name in totals:
                totals[field_name] += info.store.get(field_name, 0)
        lookups = totals["hits"] + totals["misses"]
        totals["hit_rate"] = (
            round(totals["hits"] / lookups, 4) if lookups else 0.0
        )
        return totals

    @staticmethod
    def _merge_backend_stats(stats_list: list[dict]) -> dict:
        """Sum the numeric facts across worker backend reports; the
        identifying fields (backend kind, url) come from the first."""
        merged: dict = {}
        for stats in stats_list:
            for name, value in stats.items():
                if isinstance(value, bool) or not isinstance(
                    value, (int, float)
                ):
                    merged.setdefault(name, value)
                else:
                    merged[name] = merged.get(name, 0) + value
        return merged

    async def _metrics_response(self, request: dict) -> dict:
        """The ``metrics`` verb: fan out to every worker and merge.

        Worker counters sum, gauges keep their last writer (with
        ``gauge_sources`` naming it), histograms add bucket-wise — so
        the merged registry reads as if one process had served every
        request (docs/OBSERVABILITY.md).  ``{"per_worker": true}``
        additionally returns each unmerged snapshot; ``{"format":
        "prometheus"}`` renders the merged registry as text exposition.
        """
        requested_format = request.get("format")
        if requested_format not in (None, "json", "prometheus"):
            return {
                "ok": False,
                "error": f"unknown metrics format {requested_format!r}",
                "known_formats": ["json", "prometheus"],
            }
        named = [("server", self.tracer.snapshot())]
        sessions = 0
        backends: list[dict] = []
        workers_failed = 0
        if not self._draining and self._workers:
            body = {"cmd": "metrics"}
            futures = [
                self._dispatch(shard, body, None)
                for shard in range(len(self._workers))
            ]
            results = await asyncio.gather(*futures)
            for worker_id, (response, _) in enumerate(results):
                if not response.get("ok"):
                    workers_failed += 1
                    continue
                shard_result = response["result"]
                named.append(
                    (f"worker-{worker_id}", shard_result.get("metrics", {}))
                )
                sessions += shard_result.get("sessions", 0)
                if shard_result.get("backend"):
                    backends.append(shard_result["backend"])
        merged = merge_snapshots(named)
        result: dict = {
            "tracing": self.tracer.enabled,
            "telemetry": self.config.telemetry,
            "metrics": merged,
            "store": self._merged_store_stats(),
            "backend": self._merge_backend_stats(backends),
            "sessions": sessions,
            "workers": len(self._workers),
        }
        if workers_failed:
            result["workers_failed"] = workers_failed
        if request.get("per_worker"):
            result["per_worker"] = dict(named)
        if requested_format == "prometheus":
            from repro.obs.prometheus import render_prometheus

            uptime = (
                time.time() - self.started_at if self.started_at else 0.0
            )
            result["prometheus"] = render_prometheus(
                merged,
                extra_gauges={
                    "daemon.sessions": sessions,
                    "daemon.uptime_seconds": round(uptime, 3),
                },
            )
        return {"ok": True, "result": result}

    async def _handle_metrics_scrape(self, reader, writer) -> None:
        """A deliberately tiny HTTP/1.0 responder for ``--metrics-port``:
        ``GET /metrics`` answers the Prometheus text exposition of the
        merged registry (no HTTP library — scrapers send one request
        and we close the connection)."""
        try:
            request_line = await reader.readline()
            while True:
                header = await reader.readline()
                if not header or header in (b"\r\n", b"\n"):
                    break
            parts = request_line.split()
            path = parts[1].decode("latin-1") if len(parts) >= 2 else "/"
            if path.split("?")[0] not in ("/metrics", "/"):
                status, body = "404 Not Found", b"not found\n"
                content_type = "text/plain; charset=utf-8"
            else:
                response = await self._metrics_response(
                    {"cmd": "metrics", "format": "prometheus"}
                )
                if response.get("ok"):
                    status = "200 OK"
                    body = response["result"]["prometheus"].encode()
                    content_type = (
                        "text/plain; version=0.0.4; charset=utf-8"
                    )
                else:
                    status, body = "503 Service Unavailable", b"draining\n"
                    content_type = "text/plain; charset=utf-8"
            writer.write(
                (
                    f"HTTP/1.0 {status}\r\n"
                    f"Content-Type: {content_type}\r\n"
                    f"Content-Length: {len(body)}\r\n"
                    "Connection: close\r\n\r\n"
                ).encode()
                + body
            )
            await writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            try:
                writer.close()
            except Exception:
                pass

    async def _fan_out(self, request: dict) -> dict:
        """stats/provenance: ask every worker, merge shard answers."""
        body = dict(request)
        body.pop("id", None)
        futures = [
            self._dispatch(shard, body, None)
            for shard in range(len(self._workers))
        ]
        results = await asyncio.gather(*futures)
        responses = [response for response, _ in results]
        failed = next((r for r in responses if not r.get("ok")), None)
        if failed is not None:
            return failed
        if request["cmd"] == "stats":
            merged = {
                "store": {"hits": 0, "misses": 0, "puts": 0, "invalid": 0},
                "sessions": 0,
                "queries": {},
            }
            for response in responses:
                result = response["result"]
                for field_name in ("hits", "misses", "puts", "invalid"):
                    merged["store"][field_name] += result["store"][
                        field_name
                    ]
                merged["sessions"] += result["sessions"]
                merged["queries"].update(result["queries"])
            lookups = merged["store"]["hits"] + merged["store"]["misses"]
            merged["store"]["hit_rate"] = (
                round(merged["store"]["hits"] / lookups, 4) if lookups else 0.0
            )
            return {"ok": True, "result": merged}
        # provenance: union the per-shard session summaries.
        sessions: dict = {}
        for response in responses:
            sessions.update(response["result"]["sessions"])
        return {"ok": True, "result": {"enabled": True, "sessions": sessions}}


def run_daemon(config: DaemonConfig | None = None) -> int:
    """Blocking entry point used by ``repro-pta daemon``."""
    daemon = Daemon(config)

    # Announce the bound address on stdout so callers (tests, scripts,
    # editors) can connect to an ephemeral --port 0.
    async def announced() -> None:
        await daemon.start()
        # Handlers go in before the announce line: a supervisor may
        # signal the instant it sees the address.
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(
                    signum,
                    lambda: asyncio.ensure_future(daemon.shutdown()),
                )
            except (NotImplementedError, RuntimeError):
                pass
        print(
            f"daemon: listening on {daemon.host}:{daemon.port} "
            f"workers={len(daemon._workers)} "
            f"store={daemon.config.resolved_store_url()}",
            flush=True,
        )
        await daemon.serve_forever()

    try:
        asyncio.run(announced())
    except KeyboardInterrupt:
        pass
    print("daemon: stopped", file=sys.stderr)
    return 0
