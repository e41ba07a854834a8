"""Parallel batch driver and the JSON-lines serve loop.

``run_batch`` fans a set of C sources out over ``multiprocessing``
workers (``--jobs N``, default ``os.cpu_count()``), each worker
analyzing through the shared on-disk store: first runs are cold
(analyze + encode + store), repeat runs are warm (read one JSON object,
skip parsing and analysis entirely).  The report carries per-file wall
times and the store hit rate.

``serve`` reads JSON-lines requests from a stream and answers demand
queries against warm :class:`~repro.service.queries.QuerySession`
objects, one per distinct (source, options) key — the mode an editor
or external tool uses to hold a hot session::

    {"id": 1, "file": "prog.c", "query": "points_to:p@HERE"}
    {"id": 2, "source": "int main(){...}", "query": "labels"}
    {"id": 3, "file": "prog.c", "cmd": "check"}
    {"cmd": "stats"}
    {"cmd": "provenance"}
    {"cmd": "quit"}

Every response is one JSON object per line: ``{"id": ..., "ok": true,
"cached": ..., "result": ...}`` or ``{"ok": false, "error": "..."}``.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field
from pathlib import Path

from repro import obs
from repro.core.analysis import AnalysisOptions
from repro.service.commands import (  # noqa: F401  (_CMD_HANDLERS re-exported)
    CMD_HANDLERS as _CMD_HANDLERS,
    SERVE_COMMANDS,
    handle_request,
)
from repro.service.queries import QuerySession
from repro.service.store import ResultStore

__all__ = [
    "BatchReport",
    "SERVE_COMMANDS",
    "collect_items",
    "run_batch",
    "serve",
]


# ---------------------------------------------------------------------------
# Work-list assembly
# ---------------------------------------------------------------------------


def collect_items(
    paths: list[str], suite: bool = False
) -> list[tuple[str, str]]:
    """(name, source) work items from files, directories (recursively,
    ``*.c``), and/or the built-in benchmark suite."""
    items: list[tuple[str, str]] = []
    if suite:
        from repro.benchsuite import BENCHMARKS

        items.extend(
            (f"suite:{name}", BENCHMARKS[name].source)
            for name in sorted(BENCHMARKS)
        )
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for file in sorted(path.rglob("*.c")):
                items.append((str(file), file.read_text()))
        else:
            items.append((str(path), path.read_text()))
    return items


# ---------------------------------------------------------------------------
# Batch execution
# ---------------------------------------------------------------------------


@dataclass
class BatchReport:
    """Outcome of one batch run over a work list."""

    rows: list[dict] = field(default_factory=list)
    jobs: int = 1
    wall_s: float = 0.0
    store_root: str = ""

    @property
    def hits(self) -> int:
        return sum(1 for row in self.rows if row["hit"])

    @property
    def hit_rate(self) -> float:
        return self.hits / len(self.rows) if self.rows else 0.0

    @property
    def total_file_s(self) -> float:
        return sum(row["wall_s"] for row in self.rows)

    @property
    def errors(self) -> list[dict]:
        return [row for row in self.rows if row.get("error")]

    def as_dict(self) -> dict:
        return {
            "jobs": self.jobs,
            "files": len(self.rows),
            "hits": self.hits,
            "hit_rate": round(self.hit_rate, 4),
            "wall_s": round(self.wall_s, 6),
            "store_root": self.store_root,
            "rows": self.rows,
        }


def _run_item(
    name: str,
    source: str,
    options: AnalysisOptions,
    store: ResultStore,
    refresh: bool,
) -> dict:
    # One timing source for batch rows, trace spans, and the latency
    # histogram: obs.timed measures unconditionally and reports into
    # the tracer only when one is active.
    error: str | None = None
    with obs.timed("batch.item", item=name) as timer:
        try:
            result, hit = store.load_or_analyze(
                source, options, name=name, refresh=refresh
            )
        except Exception as exc:  # analysis/frontend failure: report, go on
            error = f"{type(exc).__name__}: {exc}"
    if error is not None:
        obs.count("batch.errors")
        return {
            "name": name,
            "hit": False,
            "wall_s": round(timer.elapsed, 6),
            "error": error,
        }
    wall = timer.elapsed
    obs.count("batch.items")
    if hit:
        statements = result.statements
        labels = len(result.labels)
        warnings = len(result.warnings)
    else:
        statements = result.program.count_basic_stmts()
        labels = len(result.program.labels)
        warnings = len(result.warnings)
    return {
        "name": name,
        "hit": hit,
        "wall_s": round(wall, 6),
        "statements": statements,
        "labels": labels,
        "warnings": warnings,
        "ig_nodes": result.ig.node_count(),
    }


def _worker(job: tuple) -> dict:
    """Pool entry point: one file through a worker-local store handle.

    Module-level (picklable) on purpose; workers share the store
    *location* (a backend URL), not the instance — file writes are
    atomic, so races on one key at worst duplicate work, never corrupt
    it.
    """
    name, source, options_dict, store_url, refresh = job
    store = ResultStore(store_url)
    return _run_item(
        name, source, AnalysisOptions(**options_dict), store, refresh
    )


def run_batch(
    items: list[tuple[str, str]],
    store: ResultStore | None = None,
    options: AnalysisOptions | None = None,
    jobs: int | None = None,
    refresh: bool = False,
) -> BatchReport:
    """Analyze every (name, source) item through the store."""
    store = store if store is not None else ResultStore()
    options = options or AnalysisOptions()
    jobs = jobs if jobs and jobs > 0 else (os.cpu_count() or 1)
    jobs = min(jobs, max(len(items), 1))
    if not store.process_shared:
        # A per-process backend (memory://) cannot be fanned out:
        # workers would fill private stores and drop every byte.
        jobs = 1
    report = BatchReport(jobs=jobs, store_root=store.url)
    with obs.timed("batch.run", jobs=jobs, files=len(items)) as timer:
        if jobs == 1:
            for name, source in items:
                report.rows.append(
                    _run_item(name, source, options, store, refresh)
                )
        else:
            import multiprocessing

            payloads = [
                (name, source, asdict(options), store.url, refresh)
                for name, source in items
            ]
            with multiprocessing.Pool(jobs) as pool:
                report.rows = pool.map(_worker, payloads)
    report.wall_s = timer.elapsed
    return report


# ---------------------------------------------------------------------------
# The serve loop
# ---------------------------------------------------------------------------

# The dispatch table and request handlers live in
# repro.service.commands so the TCP daemon (repro.daemon) serves the
# exact same protocol; the historical names stay importable from here.
_serve_request = handle_request


def serve(
    stdin, stdout, store: ResultStore | None = None, tracer=None
) -> int:
    """Answer JSON-lines query requests until EOF or ``quit``.

    Sessions stay warm across requests: the first query against a
    (source, options) key pays for a store lookup (or a fresh
    analysis); every later one is answered from memory.

    The loop runs under a live tracer (a fresh one unless ``tracer``
    is given), so every request is timed, every response carries a
    ``"metrics"`` block with its wall time, and a ``{"cmd":
    "metrics"}`` request reports the accumulated counters, gauges,
    and latency histograms of the loop so far.
    """
    store = store if store is not None else ResultStore()
    sessions: dict[str, QuerySession] = {}
    with obs.tracing(tracer):
        for line in stdin:
            line = line.strip()
            if not line:
                continue
            with obs.timed("serve.request") as timer:
                try:
                    request = json.loads(line)
                except json.JSONDecodeError as exc:
                    response = {"ok": False, "error": f"bad JSON: {exc}"}
                else:
                    if not isinstance(request, dict):
                        response = {
                            "ok": False,
                            "error": "request must be an object",
                        }
                    else:
                        response = _serve_request(request, store, sessions)
                        if "id" in request:
                            response["id"] = request["id"]
            obs.count("serve.requests")
            if not response.get("ok", False):
                obs.count("serve.errors")
            quit_now = response.pop("quit", False)
            response["metrics"] = {"wall_ms": round(timer.elapsed * 1000, 3)}
            stdout.write(json.dumps(response, sort_keys=True) + "\n")
            stdout.flush()
            if quit_now:
                break
    return 0
