"""Command-line interface: ``repro-pta``.

Subcommands:

* ``analyze FILE.c``     — run the analysis, print per-label points-to
  sets, the invocation graph, and warnings; ``--explain EXPR@LABEL``
  additionally records provenance and renders derivation witnesses
  plus the precision dashboard (see docs/PROVENANCE.md);
* ``simple FILE.c``      — print the SIMPLE lowering of a program;
* ``tables [names...]``  — regenerate the paper's Tables 2-6 over the
  benchmark suite (all benchmarks by default);
* ``livc``               — run the Section 6 function-pointer study;
* ``soundness FILE.c``   — differential check: analysis vs execution;
* ``heap FILE.c``        — the companion connection-matrix analysis;
* ``run FILE.c``         — execute the program on the SIMPLE machine;
* ``query FILE.c EXPR...`` — demand queries against the result store
  (``points_to:p@L``, ``may_alias:*p,q@L``, ``callees_at:3``, ...);
* ``update OLD.c NEW.c`` — incremental re-analysis: reuse the old
  version's result, re-analyze only the functions the edit dirties,
  and report the tier taken plus reuse counters (docs/INCREMENTAL.md);
* ``batch [PATHS|--suite]`` — analyze many files through the store
  with parallel workers, or ``--serve`` JSON-lines queries on stdin;
* ``daemon`` — serve the same JSON-lines protocol over TCP with a
  worker-process pool, request coalescing, and backpressure
  (docs/DAEMON.md);
* ``daemon-trace`` — fetch or produce one distributed request trace
  from a running daemon and render the merged span tree;
* ``top`` — live terminal view over a running daemon's merged metrics
  (requests/s, latency quantiles, phase split, recent events);
* ``store ls|stats|clear|gc`` — inspect or maintain a result store on
  any backend (``file:…``, ``memory://``, ``sqlite:…``).
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.benchsuite import BENCHMARKS, livc_source
from repro.core.analysis import AnalysisOptions, analyze_source
from repro.core.baselines import compare_function_pointer_strategies
from repro.core.statistics import (
    collect_table2,
    collect_table3,
    collect_table4,
    collect_table5,
    collect_table6,
    summarize_suite,
)
from repro.reporting.tables import (
    render_livc_study,
    render_suite_summary,
    render_table2,
    render_table3,
    render_table4,
    render_table5,
    render_table6,
)
from repro.simple import print_program, simplify_source


def _read(path: str) -> str:
    with open(path) as handle:
        return handle.read()


def cmd_analyze(args: argparse.Namespace) -> int:
    trace_mode = getattr(args, "trace", None)
    if trace_mode is None:
        return _run_analyze(args)
    from repro import obs

    tracer = obs.Tracer()
    with obs.tracing(tracer):
        with obs.span("analyze", file=args.file):
            status = _run_analyze(args)
    tracer.check_balanced()
    if trace_mode == "json":
        document = {
            "trace_version": 1,
            "spans": tracer.events(),
            "metrics": tracer.snapshot(),
        }
        print(json.dumps(document, sort_keys=True))
    else:
        print("\nTrace:")
        print(tracer.render())
    return status


def _render_explain(answer: dict) -> str:
    """Plain-text rendering of one ``explain:`` answer: the traversed
    pairs, each with its witness chain from the fact back to the
    source-level assignment that introduced it."""
    lines = [
        f"explain: {answer['expr']} @ {answer['label']} "
        f"(scope {answer['function']})"
    ]
    targets = " ".join(f"({t},{d})" for t, d in answer["targets"])
    lines.append(f"  final targets: {targets or '<none>'}")
    for pair in answer["pairs"]:
        lines.append(
            f"  ({pair['src']}, {pair['tgt']}, {pair['definiteness']})"
        )
        if not pair["witness"]:
            lines.append("    (no recorded derivation)")
        for step in pair["witness"]:
            where = (
                f"stmt {step['stmt']}"
                if step["stmt"] is not None
                else "init"
            )
            path = "/".join(step["path"]) or "<entry>"
            detail = ""
            if "extra" in step:
                detail = "  {" + ", ".join(
                    f"{key}={value}"
                    for key, value in sorted(step["extra"].items())
                ) + "}"
            lines.append(
                f"    #{step['id']:<4} {step['rule']:<14} "
                f"{step['src']} -> {step['tgt']} "
                f"[{step['definiteness']}]  {where} in {step['func']}  "
                f"path {path}{detail}"
            )
    return "\n".join(lines)


def _run_analyze(args: argparse.Namespace) -> int:
    import contextlib

    from repro import obs
    from repro.core import perf

    source = _read(args.file)
    options = AnalysisOptions(function_pointer_strategy=args.fnptr)
    explain = getattr(args, "explain", None)
    recording = (
        perf.configured(track_provenance=True)
        if explain is not None
        else contextlib.nullcontext()
    )
    with recording:
        result = analyze_source(source, options, filename=args.file)
    status = 0
    with obs.span("report"):
        if args.json:
            from repro.service.serialize import encode_analysis

            payload = encode_analysis(result, name=args.file, source=source)
            print(json.dumps(payload, indent=2, sort_keys=True))
            return 0
        if result.program.labels:
            print("Points-to sets at labeled program points:")
            for label in sorted(result.program.labels):
                triples = result.triples_at(
                    label, skip_null=not args.show_null
                )
                rendered = " ".join(f"({s},{t},{d})" for s, t, d in triples)
                print(f"  {label}: {rendered}")
        if args.dot:
            print("\nInvocation graph (dot):")
            print(result.ig.to_dot())
        else:
            print("\nInvocation graph:")
            print(result.ig.render())
        if result.warnings:
            print("\nWarnings:")
            for warning in result.warnings:
                print(f"  {warning}")
        if explain is not None:
            from repro.core.statistics import collect_precision
            from repro.reporting.tables import render_precision
            from repro.service.queries import QueryError, QuerySession

            session = QuerySession(result)
            for expr in explain:
                if not expr:
                    continue  # bare --explain: dashboard only
                print()
                try:
                    answer = session.evaluate(f"explain:{expr}")
                except QueryError as exc:
                    print(f"explain: {expr}: error: {exc}",
                          file=sys.stderr)
                    status = 1
                    continue
                print(_render_explain(answer))
            print()
            print(render_precision(collect_precision(result, args.file)))
    return status


def _make_store(args: argparse.Namespace):
    # --store accepts a directory path or any backend URL (file:…,
    # memory://, sqlite:…, memory+file:…); unset falls back to
    # REPRO_PTA_STORE or ~/.cache/repro-pta (see docs/DAEMON.md).
    from repro.service.store import ResultStore

    return ResultStore(args.store) if args.store else ResultStore()


def cmd_query(args: argparse.Namespace) -> int:
    import contextlib

    from repro.core import perf
    from repro.service.queries import QueryError, QuerySession

    source = _read(args.file)
    options = AnalysisOptions(function_pointer_strategy=args.fnptr)
    store = _make_store(args)
    recording = (
        perf.configured(track_provenance=True)
        if args.provenance
        else contextlib.nullcontext()
    )
    with recording:
        # Key gating happens inside the store: provenance-enabled
        # requests address distinct objects, so a plain cached result
        # never masks a request that needs the derivation log.
        result, hit = store.load_or_analyze(
            source, options, name=args.file, refresh=args.refresh
        )
    session = QuerySession(result)
    status = 0
    for expr in args.queries:
        try:
            answer = session.evaluate(expr)
        except QueryError as exc:
            print(f"{expr}: error: {exc}", file=sys.stderr)
            status = 1
            continue
        print(f"{expr}: {json.dumps(answer, sort_keys=True)}")
    if args.stats:
        from repro.core.statistics import collect_perf

        row = collect_perf(
            result, args.file, queries=session.stats, store=store
        )
        print(json.dumps(row.as_dict(), indent=2, sort_keys=True))
    elif not hit and not args.queries:
        print("(result stored; no queries given)")
    return status


def cmd_update(args: argparse.Namespace) -> int:
    from repro.core.incremental import update_analysis

    old_source = _read(args.old)
    new_source = _read(args.new)
    options = AnalysisOptions(function_pointer_strategy=args.fnptr)
    store = _make_store(args) if not args.no_cache else None
    if store is not None:
        old_result, _ = store.load_or_analyze(
            old_source, options, name=args.old
        )
    else:
        old_result = analyze_source(
            old_source, options, filename=args.old
        )
    new_result, report = update_analysis(
        old_result,
        old_source,
        new_source,
        options,
        filename=args.new,
    )
    print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
    for expr in args.queries:
        from repro.service.queries import QueryError, QuerySession

        session = QuerySession(new_result, new_source)
        try:
            answer = session.evaluate(expr)
        except QueryError as exc:
            print(f"{expr}: error: {exc}", file=sys.stderr)
            return 1
        print(f"{expr}: {json.dumps(answer, sort_keys=True)}")
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    import contextlib

    from repro.checkers import (
        CheckerError,
        render_findings,
        render_sarif,
        run_checkers,
    )
    from repro.core import perf

    source = _read(args.file)
    options = AnalysisOptions(function_pointer_strategy=args.fnptr)
    checkers = (
        [part.strip() for part in args.checkers.split(",") if part.strip()]
        if args.checkers
        else None
    )
    if args.diff or args.baseline:
        return _check_diff(args, source, options, checkers)
    recording = (
        contextlib.nullcontext()
        if args.no_provenance
        else perf.configured(track_provenance=True)
    )
    with recording:
        if args.no_cache:
            result = analyze_source(source, options, filename=args.file)
        else:
            store = _make_store(args)
            result, _ = store.load_or_analyze(
                source, options, name=args.file, refresh=args.refresh
            )
    try:
        findings = run_checkers(
            result,
            source=source,
            checkers=checkers,
            unused_suppressions=not args.no_unused_suppressions,
        )
    except CheckerError as exc:
        print(f"check: error: {exc}", file=sys.stderr)
        return 2
    if args.format == "sarif":
        print(render_sarif(findings, args.file))
    else:
        print(render_findings(findings, args.file))
    if args.strict and any(f.severity == "error" for f in findings):
        return 1
    return 0


def _check_diff(args, source, options, checkers) -> int:
    """``repro-pta check --diff OLD.c NEW.c`` / ``--baseline KEY``:
    differential check (docs/CHECKERS.md).  Exit code 0 when no new
    findings appeared, 1 when some did, 2 on errors."""
    from repro.checkers import (
        CheckerError,
        check_diff,
        render_findings,
        render_sarif,
    )

    store = None if args.no_cache else _make_store(args)
    old_source = _read(args.diff) if args.diff else None
    baseline = None
    if args.baseline:
        if store is None:
            print(
                "check: error: --baseline needs the result store "
                "(drop --no-cache)",
                file=sys.stderr,
            )
            return 2
        baseline = store.get_record(args.baseline)
        if baseline is None:
            print(
                f"check: error: no baseline record {args.baseline!r}",
                file=sys.stderr,
            )
            return 2
    try:
        report = check_diff(
            source,
            old_source=old_source,
            baseline=baseline,
            store=store,
            options=options,
            checkers=checkers,
            unused_suppressions=not args.no_unused_suppressions,
            filename=args.file,
        )
    except CheckerError as exc:
        print(f"check: error: {exc}", file=sys.stderr)
        return 2
    summary = report.summary()
    if args.format == "sarif":
        print(render_sarif(report.findings, args.file))
        out = sys.stderr
    else:
        print(render_findings(report.findings, args.file))
        out = sys.stdout
    print(
        f"diff: mode={summary['mode']} "
        f"dirty={len(report.dirty_functions)} "
        f"replayed={report.replayed} new={summary['new']} "
        f"unchanged={summary['unchanged']} fixed={summary['fixed']}",
        file=out,
    )
    for finding, status in zip(report.findings, report.statuses):
        if status == "new":
            where = f":{finding.line}" if finding.line else ""
            print(
                f"  new: {args.file}{where}: {finding.severity}: "
                f"[{finding.checker}] {finding.message}",
                file=out,
            )
    for record in report.absent:
        print(
            f"  fixed: [{record['checker']}] {record['message']}",
            file=out,
        )
    if report.new_baseline_key:
        print(f"baseline: {report.new_baseline_key}", file=out)
    return 1 if summary["new"] else 0


def cmd_watch(args: argparse.Namespace) -> int:
    """Watch a file through a running daemon: establish a baseline,
    then push each edit via the ``watch`` verb and print only the new
    and fixed findings (with a trace id per change)."""
    import time
    from pathlib import Path

    from repro.daemon import DaemonClient

    path = Path(args.file)
    try:
        source = path.read_text()
    except OSError as exc:
        print(f"watch: cannot read {path}: {exc}", file=sys.stderr)
        return 2
    try:
        client = DaemonClient(args.host, args.port, timeout=args.timeout)
    except OSError as exc:
        print(f"watch: cannot connect: {exc}", file=sys.stderr)
        return 2

    def body(new_source: str, base: str | None) -> dict:
        request: dict = {
            "cmd": "watch",
            "source": new_source,
            "trace": True,
            "options": {"function_pointer_strategy": args.fnptr},
        }
        if base is not None:
            request["from"] = base
        if args.checkers:
            request["checkers"] = [
                part.strip()
                for part in args.checkers.split(",")
                if part.strip()
            ]
        if args.no_unused_suppressions:
            request["unused_suppressions"] = False
        return request

    response = client.request(body(source, None))
    if not response.get("ok"):
        print(f"watch: error: {response.get('error')}", file=sys.stderr)
        client.close()
        return 2
    result = response["result"]
    print(
        f"watch: established key={result['key']} "
        f"{len(result['findings'])} finding(s) "
        f"({result['errors']} error(s), {result['warnings']} warning(s))"
    )
    saw_new = False
    changes = 0
    try:
        while args.max_polls is None or changes < args.max_polls:
            time.sleep(args.interval)
            try:
                new_source = path.read_text()
            except OSError:
                continue
            if new_source == source:
                continue
            changes += 1
            response = client.request(body(new_source, source))
            if not response.get("ok"):
                print(
                    f"watch: error: {response.get('error')}",
                    file=sys.stderr,
                )
                source = new_source
                continue
            result = response["result"]
            trace = response.get("trace_id", "-")
            print(
                f"watch: change #{changes} mode={result['mode']} "
                f"dirty={len(result['dirty_functions'])} "
                f"new={len(result['new'])} fixed={len(result['fixed'])} "
                f"unchanged={result['unchanged']} trace={trace}"
            )
            for record in result["new"]:
                saw_new = True
                where = (
                    f":{record['line']}" if record.get("line") else ""
                )
                print(
                    f"  new: {path}{where}: {record['severity']}: "
                    f"[{record['checker']}] {record['message']}"
                )
            for record in result["fixed"]:
                print(
                    f"  fixed: [{record['checker']}] {record['message']}"
                )
            source = new_source
    except KeyboardInterrupt:
        pass
    finally:
        client.close()
    return 1 if saw_new else 0


def cmd_batch(args: argparse.Namespace) -> int:
    from repro.service.batch import collect_items, run_batch, serve
    from repro.reporting.tables import render_batch_report

    store = _make_store(args)
    if args.serve:
        return serve(sys.stdin, sys.stdout, store)
    items = collect_items(args.paths, suite=args.suite)
    if not items:
        print(
            "batch: nothing to do (give files, a directory, or --suite)",
            file=sys.stderr,
        )
        return 2
    options = AnalysisOptions(function_pointer_strategy=args.fnptr)
    report = run_batch(
        items,
        store=store,
        options=options,
        jobs=args.jobs,
        refresh=args.refresh,
    )
    print(render_batch_report(report))
    if args.json:
        print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
    return 1 if report.errors else 0


def cmd_daemon(args: argparse.Namespace) -> int:
    from repro.daemon import DaemonConfig, run_daemon
    from repro.service.backends import BackendError

    config = DaemonConfig(
        host=args.host,
        port=args.port,
        store_url=args.store,
        workers=args.workers,
        max_sessions=args.max_sessions,
        queue_limit=args.queue_limit,
        client_inflight=args.client_inflight,
        drain_timeout=args.drain_timeout,
        telemetry=not args.no_telemetry,
        slow_ms=args.slow_ms,
        metrics_port=args.metrics_port,
    )
    try:
        return run_daemon(config)
    except BackendError as exc:
        print(f"daemon: error: {exc}", file=sys.stderr)
        return 2


def cmd_daemon_trace(args: argparse.Namespace) -> int:
    """Fetch (or produce) one distributed trace and render the tree."""
    from repro.daemon import DaemonClient
    from repro.obs.traces import render_trace

    try:
        client = DaemonClient(args.host, args.port, timeout=args.timeout)
    except OSError as exc:
        print(f"daemon-trace: cannot connect: {exc}", file=sys.stderr)
        return 2
    with client:
        if args.id is not None:
            response = client.trace(args.id)
        elif args.file is not None:
            request = {"file": args.file, "query": args.query}
            traced = client.traced(request)
            if not traced.get("ok"):
                print(
                    f"daemon-trace: request failed: {traced.get('error')}",
                    file=sys.stderr,
                )
                return 1
            trace_id = traced.get("trace_id")
            if trace_id is None:
                print(
                    "daemon-trace: daemon returned no trace id "
                    "(telemetry disabled?)",
                    file=sys.stderr,
                )
                return 1
            response = client.trace(trace_id)
        else:
            print(
                "daemon-trace: need --id TRACE_ID or a FILE to trace",
                file=sys.stderr,
            )
            return 2
    if not response.get("ok"):
        print(
            f"daemon-trace: {response.get('error')}", file=sys.stderr
        )
        known = response.get("known_ids")
        if known:
            print(
                f"daemon-trace: recent trace ids: {', '.join(known)}",
                file=sys.stderr,
            )
        if response.get("hint"):
            print(f"daemon-trace: hint: {response['hint']}", file=sys.stderr)
        return 1
    document = response["result"]
    if args.json:
        print(json.dumps(document, indent=2, sort_keys=True))
        return 0
    print(
        f"trace {document['trace_id']} "
        f"(transport={document.get('transport', '?')}"
        f"{', slow' if document.get('slow') else ''})"
    )
    print(render_trace(document.get("spans", [])))
    return 0


def _render_top(
    result: dict,
    events: list[dict],
    previous: dict | None,
    dt: float,
) -> str:
    """One ``repro-pta top`` frame from a merged metrics result.

    ``previous`` is the counter map of the prior poll: request /
    coalesce rates are per-second deltas when it is available and
    cumulative otherwise."""
    from repro.obs.merge import histogram_quantile

    counters = result["metrics"].get("counters", {})
    gauges = result["metrics"].get("gauges", {})
    histograms = result["metrics"].get("histograms", {})

    def delta(name: str) -> float:
        now = counters.get(name, 0)
        if previous is None or dt <= 0:
            return float(now)
        return (now - previous.get(name, 0)) / dt

    requests = counters.get("daemon.requests", 0)
    coalesced = counters.get("daemon.coalesced", 0)
    coalesce_rate = (
        f" ({coalesced / requests * 100:.1f}%)" if requests else ""
    )
    lines = [
        f"workers {result.get('workers', '?')}   "
        f"sessions {result.get('sessions', 0)}   "
        f"queue depth {gauges.get('daemon.queue_depth', 0)}   "
        f"telemetry {'on' if result.get('telemetry', True) else 'off'}",
        f"requests {requests}  ({delta('daemon.requests'):.1f}/s)   "
        f"errors {counters.get('daemon.errors', 0)}   "
        f"shed {counters.get('daemon.shed', 0)}   "
        f"slow {counters.get('daemon.slow_requests', 0)}",
        f"analyses {counters.get('daemon.analyses', 0)}   "
        f"coalesced {coalesced}{coalesce_rate}",
    ]
    request_latency = histograms.get("daemon.request")
    if request_latency:
        p50 = histogram_quantile(request_latency, 0.50)
        p95 = histogram_quantile(request_latency, 0.95)
        lines.append(
            f"latency p50 <= {p50 * 1000:.1f}ms   "
            f"p95 <= {p95 * 1000:.1f}ms   "
            f"mean {request_latency['sum_s'] / request_latency['count'] * 1000:.1f}ms"
        )
    phases = [
        ("parse", "frontend.parse"),
        ("simplify", "simple.simplify"),
        ("analysis", "core.analysis"),
    ]
    phase_totals = {
        label: histograms.get(name, {}).get("sum_s", 0.0)
        for label, name in phases
    }
    busy = sum(phase_totals.values())
    if busy > 0:
        lines.append(
            "phase split  "
            + "  ".join(
                f"{label} {total / busy * 100:.0f}%"
                for label, total in phase_totals.items()
            )
        )
    if events:
        lines.append("recent events:")
        for event in events[-5:]:
            extras = ", ".join(
                f"{key}={value}"
                for key, value in sorted(event.items())
                if key not in ("seq", "ts", "kind")
            )
            lines.append(
                f"  #{event['seq']} {event['kind']}"
                + (f"  ({extras})" if extras else "")
            )
    return "\n".join(lines)


def cmd_top(args: argparse.Namespace) -> int:
    """A live terminal view over the daemon's merged metrics."""
    import time as time_mod

    from repro.daemon import DaemonClient

    previous: dict | None = None
    previous_at: float | None = None
    try:
        while True:
            try:
                with DaemonClient(
                    args.host, args.port, timeout=args.timeout
                ) as client:
                    metrics = client.metrics()
                    events_response = client.events()
            except (OSError, ConnectionError) as exc:
                print(f"top: cannot reach daemon: {exc}", file=sys.stderr)
                return 2
            if not metrics.get("ok"):
                print(f"top: {metrics.get('error')}", file=sys.stderr)
                return 1
            result = metrics["result"]
            events = (
                events_response.get("result", {}).get("events", [])
                if events_response.get("ok")
                else []
            )
            now = time_mod.monotonic()
            dt = now - previous_at if previous_at is not None else 0.0
            frame = _render_top(result, events, previous, dt)
            if not args.once:
                sys.stdout.write("\x1b[2J\x1b[H")  # clear screen, home
            print(f"repro-pta top — {args.host}:{args.port}")
            print(frame)
            sys.stdout.flush()
            if args.once:
                return 0
            previous = dict(result["metrics"].get("counters", {}))
            previous_at = now
            time_mod.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


def cmd_store(args: argparse.Namespace) -> int:
    from repro.service.backends import BackendError
    from repro.service.store import ResultStore

    try:
        store = _make_store(args)
    except BackendError as exc:
        print(f"store: error: {exc}", file=sys.stderr)
        return 2
    assert isinstance(store, ResultStore)
    try:
        if args.action == "ls":
            entries = sorted(store.backend.entries())
            for key, size, _ in entries:
                print(f"{key}  {size}")
            print(
                f"({len(entries)} objects, "
                f"{sum(size for _, size, _ in entries)} bytes, "
                f"{store.url})"
            )
        elif args.action == "stats":
            print(json.dumps(store.backend_stats(), indent=2,
                             sort_keys=True))
        elif args.action == "clear":
            print(f"removed {store.clear()} objects from {store.url}")
        elif args.action == "gc":
            if args.max_bytes is None:
                print("store gc: --max-bytes is required", file=sys.stderr)
                return 2
            report = store.gc(args.max_bytes)
            print(json.dumps(report, sort_keys=True))
        return 0
    finally:
        store.close()


def cmd_simple(args: argparse.Namespace) -> int:
    program = simplify_source(_read(args.file), filename=args.file)
    print(print_program(program))
    return 0


def cmd_tables(args: argparse.Namespace) -> int:
    names = args.benchmarks or sorted(BENCHMARKS)
    rows2, rows3, rows4, rows5, rows6 = [], [], [], [], []
    for name in names:
        bench = BENCHMARKS[name]
        result = analyze_source(bench.source, filename=name)
        rows2.append(collect_table2(result, name, bench.description))
        rows3.append(collect_table3(result, name))
        rows4.append(collect_table4(result, name))
        rows5.append(collect_table5(result, name))
        rows6.append(collect_table6(result, name))
    for render, rows in (
        (render_table2, rows2),
        (render_table3, rows3),
        (render_table4, rows4),
        (render_table5, rows5),
        (render_table6, rows6),
    ):
        print(render(rows))
        print()
    print(render_suite_summary(summarize_suite(rows3)))
    return 0


def cmd_soundness(args: argparse.Namespace) -> int:
    from repro.interp import check_soundness

    report = check_soundness(_read(args.file), max_steps=args.max_steps)
    print(report.summary())
    for violation in report.violations:
        print(f"  {violation}")
    return 0 if report.ok else 1


def cmd_heap(args: argparse.Namespace) -> int:
    from repro.core.heapconn import analyze_heap_connections

    result = analyze_source(_read(args.file), filename=args.file)
    heap = analyze_heap_connections(result)
    if result.program.labels:
        print("Connection matrices at labeled program points:")
        for label in sorted(result.program.labels):
            matrix = heap.matrix_at(label)
            print(f"  {label}: {matrix if matrix is not None else '<unreachable>'}")
    ratio = heap.disconnection_ratio()
    print(f"heap-pointer pairs proven disconnected: {100 * ratio:.1f}%")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    from repro.interp import run_source

    value, interp = run_source(_read(args.file), max_steps=args.max_steps)
    print(f"exit value: {value}")
    print(f"steps: {interp.steps}, heap objects: {len(interp.heap_objects)}")
    return 0


def cmd_livc(args: argparse.Namespace) -> int:
    program = simplify_source(livc_source(), filename="livc")
    comparison = compare_function_pointer_strategies(program)
    print(render_livc_study(comparison))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-pta",
        description=(
            "Context-sensitive interprocedural points-to analysis "
            "(Emami/Ghiya/Hendren, PLDI 1994)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="analyze a C file")
    p_analyze.add_argument("file")
    p_analyze.add_argument(
        "--fnptr",
        choices=["precise", "all_functions", "address_taken"],
        default="precise",
        help="function-pointer binding strategy",
    )
    p_analyze.add_argument(
        "--show-null", action="store_true", help="include NULL targets"
    )
    p_analyze.add_argument(
        "--dot",
        action="store_true",
        help="print the invocation graph in Graphviz format",
    )
    p_analyze.add_argument(
        "--json",
        action="store_true",
        help="emit the full result as versioned JSON (the store format)",
    )
    p_analyze.add_argument(
        "--explain",
        nargs="?",
        const="",
        action="append",
        metavar="EXPR@LABEL",
        default=None,
        help=(
            "record derivation provenance and explain how the "
            "expression's points-to facts arose (repeatable, e.g. "
            "--explain '**p@L'); a bare --explain prints just the "
            "precision dashboard"
        ),
    )
    p_analyze.add_argument(
        "--trace",
        nargs="?",
        const="text",
        choices=["text", "json"],
        default=None,
        help=(
            "trace the run: print the span tree (parse/simplify/"
            "analysis/report) and metrics; --trace=json emits one "
            "machine-readable JSON document as the last output line"
        ),
    )
    p_analyze.set_defaults(func=cmd_analyze)

    p_query = sub.add_parser(
        "query", help="demand queries against the result store"
    )
    p_query.add_argument("file")
    p_query.add_argument(
        "queries",
        nargs="*",
        metavar="EXPR",
        help=(
            "queries like points_to:p@LABEL, may_alias:*p,q@LABEL, "
            "explain:p@LABEL, why_possible:p@LABEL, "
            "blame_invisible:NAME, callees_at:SITE, callers_of:FN, "
            "read_write:FN, labels, call_sites, warnings, graph, "
            "summary"
        ),
    )
    p_query.add_argument(
        "--provenance",
        action="store_true",
        help=(
            "record derivation provenance for this request (required "
            "by the explain/why_possible/blame_invisible queries)"
        ),
    )
    p_query.add_argument(
        "--fnptr",
        choices=["precise", "all_functions", "address_taken"],
        default="precise",
        help="function-pointer binding strategy",
    )
    p_query.add_argument(
        "--store", default=None, help="result-store directory"
    )
    p_query.add_argument(
        "--refresh",
        action="store_true",
        help="re-analyze even on a store hit",
    )
    p_query.add_argument(
        "--stats",
        action="store_true",
        help="print session query counters and store traffic",
    )
    p_query.set_defaults(func=cmd_query)

    p_update = sub.add_parser(
        "update",
        help=(
            "incrementally re-analyze an edited file against the old "
            "version's result (see docs/INCREMENTAL.md)"
        ),
    )
    p_update.add_argument("old", help="the previous version of the file")
    p_update.add_argument("new", help="the edited version of the file")
    p_update.add_argument(
        "queries",
        nargs="*",
        metavar="EXPR",
        help="optional demand queries to run against the updated result",
    )
    p_update.add_argument(
        "--fnptr",
        choices=["precise", "all_functions", "address_taken"],
        default="precise",
        help="function-pointer binding strategy",
    )
    p_update.add_argument(
        "--store", default=None, help="result-store directory"
    )
    p_update.add_argument(
        "--no-cache",
        action="store_true",
        help="analyze the old version fresh without the result store",
    )
    p_update.set_defaults(func=cmd_update)

    p_check = sub.add_parser(
        "check",
        help="run the pointer-bug checkers (see docs/CHECKERS.md)",
    )
    p_check.add_argument("file")
    p_check.add_argument(
        "--format",
        choices=["text", "sarif"],
        default="text",
        help="report format (SARIF 2.1.0 or plain text)",
    )
    p_check.add_argument(
        "--checkers",
        default=None,
        metavar="IDS",
        help="comma-separated checker ids to run (default: all)",
    )
    p_check.add_argument(
        "--fnptr",
        choices=["precise", "all_functions", "address_taken"],
        default="precise",
        help="function-pointer binding strategy",
    )
    p_check.add_argument(
        "--store", default=None, help="result-store directory"
    )
    p_check.add_argument(
        "--refresh",
        action="store_true",
        help="re-analyze even on a store hit",
    )
    p_check.add_argument(
        "--no-cache",
        action="store_true",
        help="analyze fresh without touching the result store",
    )
    p_check.add_argument(
        "--no-provenance",
        action="store_true",
        help=(
            "skip derivation recording (faster; findings carry no "
            "witness chains)"
        ),
    )
    p_check.add_argument(
        "--strict",
        action="store_true",
        help="exit 1 when any error-severity finding remains",
    )
    p_check.add_argument(
        "--diff",
        default=None,
        metavar="OLD",
        help=(
            "differential mode: check FILE against this previous "
            "version's finding baseline (exit 0 clean, 1 new findings)"
        ),
    )
    p_check.add_argument(
        "--baseline",
        default=None,
        metavar="KEY",
        help="differential mode against a stored baseline record",
    )
    p_check.add_argument(
        "--no-unused-suppressions",
        action="store_true",
        help="do not report // repro-ignore comments that suppress "
        "nothing",
    )
    p_check.set_defaults(func=cmd_check)

    p_watch = sub.add_parser(
        "watch",
        help=(
            "watch a file through a running daemon and report only "
            "new/fixed findings per edit (see docs/CHECKERS.md)"
        ),
    )
    p_watch.add_argument("file")
    p_watch.add_argument("--host", default="127.0.0.1")
    p_watch.add_argument("--port", type=int, required=True)
    p_watch.add_argument(
        "--interval",
        type=float,
        default=0.5,
        help="seconds between file polls",
    )
    p_watch.add_argument(
        "--max-polls",
        type=int,
        default=None,
        metavar="N",
        help="stop after N observed changes (default: run until ^C)",
    )
    p_watch.add_argument(
        "--timeout", type=float, default=60.0, help="request timeout"
    )
    p_watch.add_argument(
        "--checkers",
        default=None,
        metavar="IDS",
        help="comma-separated checker ids to run (default: all)",
    )
    p_watch.add_argument(
        "--fnptr",
        choices=["precise", "all_functions", "address_taken"],
        default="precise",
        help="function-pointer binding strategy",
    )
    p_watch.add_argument(
        "--no-unused-suppressions",
        action="store_true",
        help="do not report // repro-ignore comments that suppress "
        "nothing",
    )
    p_watch.set_defaults(func=cmd_watch)

    p_batch = sub.add_parser(
        "batch", help="analyze many files through the store in parallel"
    )
    p_batch.add_argument(
        "paths", nargs="*", help="C files and/or directories of *.c files"
    )
    p_batch.add_argument(
        "--suite",
        action="store_true",
        help="include the built-in benchmark suite",
    )
    p_batch.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes (default: os.cpu_count())",
    )
    p_batch.add_argument(
        "--store", default=None, help="result-store directory"
    )
    p_batch.add_argument(
        "--refresh",
        action="store_true",
        help="re-analyze everything even on store hits",
    )
    p_batch.add_argument(
        "--fnptr",
        choices=["precise", "all_functions", "address_taken"],
        default="precise",
        help="function-pointer binding strategy",
    )
    p_batch.add_argument(
        "--json",
        action="store_true",
        help="also print the machine-readable report",
    )
    p_batch.add_argument(
        "--serve",
        action="store_true",
        help="serve JSON-lines queries from stdin against the store",
    )
    p_batch.set_defaults(func=cmd_batch)

    p_daemon = sub.add_parser(
        "daemon",
        help=(
            "serve the JSON-lines protocol over TCP with a worker-"
            "process pool (see docs/DAEMON.md)"
        ),
    )
    p_daemon.add_argument("--host", default="127.0.0.1")
    p_daemon.add_argument(
        "--port",
        type=int,
        default=0,
        help="TCP port (0 = pick a free one; the bound address is "
        "printed on startup)",
    )
    p_daemon.add_argument(
        "--store",
        default=None,
        help="store backend URL or directory (file:…, memory://, "
        "sqlite:…, memory+file:…)",
    )
    p_daemon.add_argument(
        "--workers",
        type=int,
        default=0,
        help="worker processes (default: os.cpu_count())",
    )
    p_daemon.add_argument(
        "--max-sessions",
        type=int,
        default=64,
        help="warm query sessions kept per worker (LRU)",
    )
    p_daemon.add_argument(
        "--queue-limit",
        type=int,
        default=128,
        help="admitted-but-unfinished job cap before load shedding",
    )
    p_daemon.add_argument(
        "--client-inflight",
        type=int,
        default=16,
        help="per-connection in-flight request cap",
    )
    p_daemon.add_argument(
        "--drain-timeout",
        type=float,
        default=30.0,
        help="seconds to wait for in-flight work on shutdown",
    )
    p_daemon.add_argument(
        "--no-telemetry",
        action="store_true",
        help="turn the telemetry plane off (no metrics registry, "
        "journal, or trace capture; hooks reduce to one attribute "
        "check)",
    )
    p_daemon.add_argument(
        "--slow-ms",
        type=float,
        default=None,
        help="slow-request threshold in milliseconds: over-budget "
        "requests are journaled with a captured trace (default: "
        "$REPRO_PTA_SLOW_MS, unset = off)",
    )
    p_daemon.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        help="also listen on this port for HTTP GET /metrics "
        "(Prometheus text exposition of the merged registry; "
        "0 = pick a free port)",
    )
    p_daemon.set_defaults(func=cmd_daemon)

    p_daemon_trace = sub.add_parser(
        "daemon-trace",
        help="fetch (or produce) one distributed request trace from a "
        "running daemon and render the span tree",
    )
    p_daemon_trace.add_argument("--host", default="127.0.0.1")
    p_daemon_trace.add_argument("--port", type=int, required=True)
    p_daemon_trace.add_argument(
        "--id",
        default=None,
        help="trace id to fetch (from a traced response or the journal)",
    )
    p_daemon_trace.add_argument(
        "file",
        nargs="?",
        default=None,
        help="C file: send one traced query for it and render the "
        "resulting trace",
    )
    p_daemon_trace.add_argument(
        "--query",
        default="summary",
        help="query to run when tracing a file (default: summary)",
    )
    p_daemon_trace.add_argument(
        "--timeout", type=float, default=60.0
    )
    p_daemon_trace.add_argument(
        "--json",
        action="store_true",
        help="print the raw trace document instead of the tree",
    )
    p_daemon_trace.set_defaults(func=cmd_daemon_trace)

    p_top = sub.add_parser(
        "top",
        help="live terminal view over a running daemon's merged "
        "metrics (requests/s, latency quantiles, phase split, events)",
    )
    p_top.add_argument("--host", default="127.0.0.1")
    p_top.add_argument("--port", type=int, required=True)
    p_top.add_argument(
        "--interval",
        type=float,
        default=2.0,
        help="seconds between polls",
    )
    p_top.add_argument(
        "--once",
        action="store_true",
        help="print one frame and exit (no screen clearing)",
    )
    p_top.add_argument("--timeout", type=float, default=10.0)
    p_top.set_defaults(func=cmd_top)

    p_store = sub.add_parser(
        "store",
        help="inspect or maintain a result store (any backend)",
    )
    p_store.add_argument(
        "action",
        choices=["ls", "stats", "clear", "gc"],
        help="ls: list objects; stats: backend storage facts; "
        "clear: drop every object; gc: evict oldest past --max-bytes",
    )
    p_store.add_argument(
        "--store",
        default=None,
        help="store backend URL or directory (default: REPRO_PTA_STORE "
        "or ~/.cache/repro-pta)",
    )
    p_store.add_argument(
        "--max-bytes",
        type=int,
        default=None,
        help="gc: evict least-recently-written objects until the "
        "store fits this budget",
    )
    p_store.set_defaults(func=cmd_store)

    p_simple = sub.add_parser("simple", help="print the SIMPLE lowering")
    p_simple.add_argument("file")
    p_simple.set_defaults(func=cmd_simple)

    p_tables = sub.add_parser("tables", help="regenerate Tables 2-6")
    p_tables.add_argument("benchmarks", nargs="*")
    p_tables.set_defaults(func=cmd_tables)

    p_livc = sub.add_parser("livc", help="run the livc study")
    p_livc.set_defaults(func=cmd_livc)

    p_sound = sub.add_parser(
        "soundness", help="differential check: analysis vs concrete execution"
    )
    p_sound.add_argument("file")
    p_sound.add_argument("--max-steps", type=int, default=200_000)
    p_sound.set_defaults(func=cmd_soundness)

    p_heap = sub.add_parser(
        "heap", help="companion connection-matrix heap analysis"
    )
    p_heap.add_argument("file")
    p_heap.set_defaults(func=cmd_heap)

    p_run = sub.add_parser("run", help="execute on the SIMPLE machine")
    p_run.add_argument("file")
    p_run.add_argument("--max-steps", type=int, default=500_000)
    p_run.set_defaults(func=cmd_run)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
