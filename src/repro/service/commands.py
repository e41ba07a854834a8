"""The service request protocol, shared by every transport.

One request is one JSON object; :func:`handle_request` answers it
against a :class:`~repro.service.store.ResultStore` plus a mapping of
warm :class:`~repro.service.queries.QuerySession` objects.  The
JSON-lines stdin serve loop (``repro-pta batch --serve``,
:mod:`repro.service.batch`) and the concurrent TCP daemon
(:mod:`repro.daemon`) both dispatch through the same
:data:`CMD_HANDLERS` table, which is what keeps the ``stats`` /
``metrics`` / ``provenance`` / ``check`` / ``update`` / ``query``
verbs behaviorally identical over both transports (asserted by a
parametrized transport-equality test).

Adding a handler to :data:`CMD_HANDLERS` is the single step to extend
the protocol on every transport at once; :data:`SERVE_COMMANDS` (the
list reported back on an unknown ``cmd``) is derived from the table.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from pathlib import Path
from typing import MutableMapping

from repro import obs
from repro.core import perf
from repro.core.analysis import AnalysisOptions, TooDeepError
from repro.service.queries import QueryError, QuerySession
from repro.service.store import ResultStore


class SessionCache(MutableMapping):
    """An LRU-bounded mapping of warm query sessions.

    ``capacity=None`` (the serve loop's historical behavior) never
    evicts; a bounded cache drops the least-recently-used session when
    a new key would exceed the capacity.  Lookups refresh recency.
    """

    def __init__(self, capacity: int | None = None):
        if capacity is not None and capacity < 1:
            raise ValueError("SessionCache capacity must be >= 1 or None")
        self.capacity = capacity
        self.evictions = 0
        self._sessions: OrderedDict[str, QuerySession] = OrderedDict()

    def __getitem__(self, key: str) -> QuerySession:
        session = self._sessions[key]
        self._sessions.move_to_end(key)
        return session

    def __setitem__(self, key: str, session: QuerySession) -> None:
        self._sessions[key] = session
        self._sessions.move_to_end(key)
        while (
            self.capacity is not None
            and len(self._sessions) > self.capacity
        ):
            self._sessions.popitem(last=False)
            self.evictions += 1
            obs.count("sessions.evicted")

    def __delitem__(self, key: str) -> None:
        del self._sessions[key]

    def __iter__(self):
        return iter(list(self._sessions))

    def __len__(self) -> int:
        return len(self._sessions)

    def items(self):
        # Recency-neutral snapshot: stats/provenance introspection must
        # not refresh LRU order (the default MutableMapping.items goes
        # through __getitem__, which would).
        return [(key, self._sessions[key]) for key in self._sessions]


# ---------------------------------------------------------------------------
# Request plumbing
# ---------------------------------------------------------------------------


def request_source(request: dict):
    """(name, source, error) from a request's ``source``/``file``."""
    if "source" in request:
        return "<inline>", request["source"], None
    if "file" in request:
        path = Path(request["file"])
        try:
            return str(path), path.read_text(), None
        except OSError as exc:
            return None, None, {
                "ok": False,
                "error": f"cannot read {path}: {exc}",
            }
    return None, None, {"ok": False, "error": "missing 'file' or 'source'"}


def analysis_failure(exc: Exception) -> dict:
    """The error response for an exception raised while analyzing:
    structured for an input too deep to process, stringified else."""
    if isinstance(exc, TooDeepError):
        return {"ok": False, "error": "too_deep", "phase": exc.phase}
    return {"ok": False, "error": f"{type(exc).__name__}: {exc}"}


def request_options(request: dict):
    """(options, error) from a request's ``options`` object."""
    try:
        return AnalysisOptions(**request.get("options", {})), None
    except TypeError as exc:
        return None, {"ok": False, "error": f"bad options: {exc}"}


# ---------------------------------------------------------------------------
# Control-command handlers
# ---------------------------------------------------------------------------


def _cmd_stats(request, store, sessions) -> dict:
    return {
        "ok": True,
        "result": {
            "store": store.stats.as_dict(),
            "sessions": len(sessions),
            "queries": {
                key[:12]: session.stats.as_dict()
                for key, session in sorted(sessions.items())
            },
        },
    }


def _cmd_metrics(request, store, sessions) -> dict:
    # The tracer's cumulative view of the serve loop: counters (store
    # traffic, analysis work), gauges, and the per-query latency
    # histograms (see docs/OBSERVABILITY.md).  ``format:
    # "prometheus"`` returns the text exposition of the same snapshot
    # instead of the JSON registry.
    tracer = obs.get_tracer()
    result = {
        "tracing": tracer.enabled,
        "metrics": tracer.snapshot(),
        "store": store.stats.as_dict(),
        "backend": store.backend_stats(),
        "sessions": len(sessions),
    }
    requested_format = request.get("format")
    if requested_format == "prometheus":
        from repro.obs.prometheus import render_prometheus

        result["prometheus"] = render_prometheus(
            result["metrics"],
            extra_gauges={"serve.sessions": len(sessions)},
        )
    elif requested_format is not None and requested_format != "json":
        return {
            "ok": False,
            "error": f"unknown metrics format {requested_format!r}",
            "known_formats": ["json", "prometheus"],
        }
    return {"ok": True, "result": result}


def _cmd_events(request, store, sessions) -> dict:
    # The process journal: lifecycle events (update tiers chosen, GC,
    # slow requests) with monotone sequence numbers.  A pruned or
    # future range answers with a structured error naming the oldest
    # retained sequence (see Journal.answer).
    return obs.journal().answer(request.get("since"))


def _cmd_trace(request, store, sessions) -> dict:
    # Finished request-trace documents, keyed by the trace id stamped
    # on a traced response.  Accepts "trace_id" (canonical) or "id"
    # (the ISSUE's shorthand; note "id" is also echoed back as the
    # client correlation tag, which is harmless here).
    trace_id = request.get("trace_id", request.get("id"))
    return obs.traces().answer(trace_id)


def _cmd_provenance(request, store, sessions) -> dict:
    # Gated on the recording switch: when it is off, sessions hold no
    # derivation logs, so say how to get them instead of reporting an
    # all-None table.
    if not perf.CONFIG.track_provenance:
        return {
            "ok": False,
            "error": (
                "provenance tracking is off: enable "
                "perf.CONFIG.track_provenance before serving "
                "(see docs/PROVENANCE.md)"
            ),
            "cmd": request["cmd"],
        }
    summaries = {}
    for key, session in sorted(sessions.items()):
        log = getattr(session.analysis, "provenance", None)
        summaries[key[:12]] = (
            None
            if log is None
            else {
                "records": len(log.records),
                "classes": log.class_counts(),
                "symbolic_intros": len(log.symbolic_intros),
            }
        )
    return {
        "ok": True,
        "result": {"enabled": True, "sessions": summaries},
    }


def _cmd_check(request, store, sessions) -> dict:
    """Run the pointer-bug checkers over the request's source (through
    the store: warm keys are checked against the decoded artifact).
    Optional keys: ``checkers`` (list of ids), ``provenance`` (default
    True — findings carry derivation witnesses), ``format`` ("sarif"
    returns the rendered SARIF document instead of finding dicts)."""
    from repro.checkers import CheckerError, render_sarif, run_checkers

    name, source, error = request_source(request)
    if error is not None:
        return error
    options, error = request_options(request)
    if error is not None:
        return error
    track = bool(request.get("provenance", True))
    try:
        with perf.configured(track_provenance=track):
            result, hit = store.load_or_analyze(source, options, name=name)
    except Exception as exc:
        return analysis_failure(exc)
    try:
        findings = run_checkers(
            result,
            source=source,
            checkers=request.get("checkers"),
            unused_suppressions=bool(
                request.get("unused_suppressions", True)
            ),
        )
    except CheckerError as exc:
        return {"ok": False, "error": str(exc)}
    errors = sum(1 for f in findings if f.severity == "error")
    payload: dict = {
        "errors": errors,
        "warnings": len(findings) - errors,
    }
    if request.get("format") == "sarif":
        payload["sarif"] = render_sarif(findings, name or "<inline>")
    else:
        payload["findings"] = [f.as_dict() for f in findings]
    return {"ok": True, "cached": hit, "result": payload}


def _cmd_quit(request, store, sessions) -> dict:
    return {"ok": True, "result": "bye", "quit": True}


#: Per-target-key locks serializing concurrent ``update`` requests:
#: the first request in computes, later ones coalesce onto the warm
#: session it installed instead of re-running the update.
_UPDATE_LOCKS: dict[str, threading.Lock] = {}
_UPDATE_LOCKS_GUARD = threading.Lock()


def _update_lock(key: str) -> threading.Lock:
    with _UPDATE_LOCKS_GUARD:
        lock = _UPDATE_LOCKS.get(key)
        if lock is None:
            lock = _UPDATE_LOCKS[key] = threading.Lock()
        return lock


def _cmd_update(request, store, sessions) -> dict:
    """Incrementally re-analyze an edited source.

    ``source``/``file`` name the *new* text; optional ``from`` carries
    the predecessor text whose live warm session the update splices
    from.  On success the warm session is re-keyed to the new source,
    so subsequent queries for it never re-analyze.  Without a live
    predecessor the new text is served like a first query: from the
    store when it holds the artifact, else cold.  Concurrent
    updates to the same target key coalesce: one computes, the rest
    reuse its session (``"coalesced": true``)."""
    name, source, error = request_source(request)
    if error is not None:
        return error
    options, error = request_options(request)
    if error is not None:
        return error
    new_key = store.key_for(source, options)
    with _update_lock(new_key):
        session = sessions.get(new_key)
        if session is not None:
            # Another update (or query) already warmed this exact
            # source — nothing to recompute.
            _record_update_tier("unchanged", new_key)
            return {
                "ok": True,
                "coalesced": True,
                "cached": session.cached,
                "result": {"mode": "unchanged", "key": new_key[:12]},
            }
        base_source = request.get("from")
        base_key = (
            store.key_for(base_source, options)
            if isinstance(base_source, str)
            else None
        )
        session = sessions.get(base_key) if base_key else None
        if session is not None and session.cached:
            # A decoded result has no slice capture to splice from.
            session = None
        if session is not None and session.source is None:
            session.source = base_source
        try:
            if session is not None:
                report = session.update(source).as_dict()
                sessions.pop(base_key, None)
            else:
                # No live predecessor: behave like a first query, which
                # the store may answer for the new text outright.
                result, hit = store.load_or_analyze(
                    source, options, name=name
                )
                session = QuerySession(result, source)
                report = {
                    "mode": "cached" if hit else "cold",
                    "fallback": "no live base session",
                }
        except Exception as exc:
            return analysis_failure(exc)
        sessions[new_key] = session
        report["key"] = new_key[:12]
        _record_update_tier(report.get("mode"), new_key)
        return {"ok": True, "cached": session.cached, "result": report}


def _cmd_watch(request, store, sessions) -> dict:
    """Differentially check an edited source (docs/CHECKERS.md).

    ``source``/``file`` carry the *new* text.  Without ``from`` the
    verb *establishes* a watch: full check, finding baseline persisted
    beside the artifact, every finding reported.  With ``from`` (the
    predecessor text) it rides the update ladder plus the baseline and
    reports only what changed: ``new`` and ``fixed`` finding lists
    plus an ``unchanged`` count.  Optional keys: ``checkers``,
    ``unused_suppressions`` (default true), ``options``.  Runs
    provenance-off (the splice tier requires it), so watch sessions
    are keyed independently of any provenance-on query sessions.
    """
    from repro.checkers import (
        CheckerError,
        build_baseline,
        check_diff,
        select_checkers,
    )

    name, source, error = request_source(request)
    if error is not None:
        return error
    options, error = request_options(request)
    if error is not None:
        return error
    base_source = request.get("from")
    if base_source is not None and not isinstance(base_source, str):
        return {"ok": False, "error": "'from' must be a source string"}
    unused = bool(request.get("unused_suppressions", True))
    checkers = request.get("checkers")
    try:
        selected = (
            None if checkers is None
            else {checker.id for checker in select_checkers(checkers)}
        )
    except CheckerError as exc:
        return {"ok": False, "error": str(exc)}

    with perf.configured(track_provenance=False):
        new_key = store.key_for(source, options)
    with _update_lock(new_key):
        if base_source is None:
            try:
                with perf.configured(track_provenance=False):
                    result, hit = store.load_or_analyze(
                        source, options, name=name
                    )
                    baseline = build_baseline(
                        result, source,
                        checkers=checkers, unused_suppressions=unused,
                    )
                    store.put(
                        store.baseline_key(
                            source, options, checkers=selected,
                            unused_suppressions=unused,
                        ),
                        baseline,
                    )
            except CheckerError as exc:
                return {"ok": False, "error": str(exc)}
            except Exception as exc:
                return analysis_failure(exc)
            session = QuerySession(result, source)
            sessions[new_key] = session
            findings = [record for _, record in baseline["reported"]]
            errors = sum(
                1 for record in findings if record["severity"] == "error"
            )
            obs.event(
                "watch", established=True, key=new_key[:12],
                findings=len(findings),
            )
            return {
                "ok": True,
                "cached": hit,
                "result": {
                    "established": True,
                    "key": new_key[:12],
                    "errors": errors,
                    "warnings": len(findings) - errors,
                    "findings": findings,
                },
            }

        with perf.configured(track_provenance=False):
            base_key = store.key_for(base_source, options)
        base_session = sessions.get(base_key)
        base_analysis = (
            base_session.analysis if base_session is not None else None
        )
        try:
            report = check_diff(
                source,
                old_source=base_source,
                old_analysis=base_analysis,
                store=store,
                options=options,
                checkers=checkers,
                unused_suppressions=unused,
                filename=name,
            )
        except CheckerError as exc:
            return {"ok": False, "error": str(exc)}
        except Exception as exc:
            return analysis_failure(exc)
        session = QuerySession(report.analysis, source)
        sessions[new_key] = session
        if base_key != new_key:
            sessions.pop(base_key, None)
        new = [
            finding.as_dict()
            for finding, status in zip(report.findings, report.statuses)
            if status == "new"
        ]
        unchanged = sum(
            1 for status in report.statuses if status == "unchanged"
        )
        obs.event(
            "watch", mode=report.mode, key=new_key[:12],
            new=len(new), fixed=len(report.absent),
        )
        return {
            "ok": True,
            "cached": session.cached,
            "result": {
                "mode": report.mode,
                "key": new_key[:12],
                "dirty_functions": report.dirty_functions,
                "replayed": report.replayed,
                "new": new,
                "fixed": report.absent,
                "unchanged": unchanged,
            },
        }


def _record_update_tier(mode, new_key: str) -> None:
    """Per-tier outcome counters + a journal event for every update:
    which rung of the splice/cold ladder actually served the
    request (docs/INCREMENTAL.md) — the warm-path effectiveness signal
    ``repro-pta top`` and the Prometheus exposition surface."""
    tier = mode if isinstance(mode, str) and mode else "unknown"
    obs.count(f"incremental.tier.{tier}")
    obs.event("update_tier", tier=tier, key=new_key[:12])


#: The protocol's command dispatch table.  ``SERVE_COMMANDS`` (the
#: list reported on an unknown ``cmd``) is derived from it, so adding a
#: handler here is the single step to extend the protocol — on stdin
#: and on TCP at once.
CMD_HANDLERS = {
    "check": _cmd_check,
    "events": _cmd_events,
    "metrics": _cmd_metrics,
    "provenance": _cmd_provenance,
    "quit": _cmd_quit,
    "stats": _cmd_stats,
    "trace": _cmd_trace,
    "update": _cmd_update,
    "watch": _cmd_watch,
}

#: Control commands the protocol understands (reported back on an
#: unknown ``cmd`` so callers can discover the protocol), always
#: alphabetical because it is derived from the dispatch table.
SERVE_COMMANDS = tuple(sorted(CMD_HANDLERS))

#: Commands whose answers aggregate over *sessions* (and so, in the
#: sharded daemon, fan out to every worker and merge) rather than
#: touching one source's shard.
AGGREGATE_COMMANDS = ("provenance", "stats")


def handle_request(
    request: dict,
    store: ResultStore,
    sessions: MutableMapping,
) -> dict:
    """Answer one protocol request (shared by stdin and TCP serving).

    A ``"trace"`` key (``true`` or a caller-supplied trace id) runs
    the request under a fresh per-request tracer: the captured span
    tree + metrics land in the process trace buffer (drained by the
    ``trace`` verb), the response is stamped with ``trace_id``, and
    the request's counters/histograms fold back into whatever
    process-wide tracer was already installed so long-run metrics
    stay complete.
    """
    trace_spec = request.get("trace")
    if trace_spec:
        return _traced_request(request, store, sessions, trace_spec)
    return _handle_untraced(request, store, sessions)


def _traced_request(
    request: dict, store, sessions, trace_spec
) -> dict:
    from repro.obs.merge import fold_snapshot
    from repro.obs.tracer import Tracer
    from repro.obs.traces import TRACE_VERSION

    trace_id = (
        trace_spec if isinstance(trace_spec, str) else obs.new_trace_id()
    )
    body = {key: value for key, value in request.items() if key != "trace"}
    previous = obs.get_tracer()
    tracer = Tracer()
    with obs.tracing(tracer):
        with tracer.span("handle", cmd=body.get("cmd", "query")):
            response = _handle_untraced(body, store, sessions)
    tracer.check_balanced()
    if previous.enabled:
        fold_snapshot(previous, tracer.snapshot())
    document = {
        "trace_version": TRACE_VERSION,
        "trace_id": trace_id,
        "spans": tracer.events(),
        "metrics": tracer.snapshot(),
    }
    obs.traces().put(trace_id, document)
    response = dict(response)
    response["trace_id"] = trace_id
    return response


def _handle_untraced(
    request: dict,
    store: ResultStore,
    sessions: MutableMapping,
) -> dict:
    if "cmd" in request:
        cmd = request["cmd"]
        handler = CMD_HANDLERS.get(cmd)
        if handler is None:
            return {
                "ok": False,
                "error": f"unknown cmd {cmd!r}",
                "cmd": cmd,
                "known_cmds": list(SERVE_COMMANDS),
            }
        return handler(request, store, sessions)

    if "query" not in request:
        return {"ok": False, "error": "missing 'query'"}
    name, source, error = request_source(request)
    if error is not None:
        return error
    options, error = request_options(request)
    if error is not None:
        return error
    key = store.key_for(source, options)
    session = sessions.get(key)
    if session is None:
        try:
            result, _ = store.load_or_analyze(source, options, name=name)
        except Exception as exc:
            return analysis_failure(exc)
        session = sessions[key] = QuerySession(result, source)
    try:
        answer = session.evaluate(request["query"])
    except QueryError as exc:
        return {"ok": False, "error": str(exc)}
    return {"ok": True, "cached": session.cached, "result": answer}
