"""The workloads: set-up, the timed closed loop, the traced run, and
the correctness gate around them.

Load comes from this one process, in a closed loop with one client:
the next request is sent only after the previous response has been
parsed.  This process and the daemon it starts are pinned to one CPU
(see :mod:`pbench.calib`), so at most one of them is runnable at a
time.
"""

from __future__ import annotations

import gc
import json
import math
import shutil
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from statistics import median

from repro.frontend.lexer import tokenize
from repro.service.queries import QuerySession

from pbench import gate, workloads
from pbench.calib import Calibrator, KERNEL_NOMINAL_MS
from pbench.drivers import DaemonProcess, InProcess, reset_peak_rss, vm_hwm_mb
from pbench.layers import SpanRecorder
from pbench.stats import min_samples, reported_percentile

#: Set-up repetitions per run; ``setup_s`` is their median.
COLD_SETUP_REPS = 5
DAEMON_SETUP_REPS = 3

#: Requests of the discarded warm-up rep before warm-query's timing.
WARMUP_REQUESTS = 500

#: A segment of requests between two kernel readings lasts at least
#: this long (seconds).
SEGMENT_S = 0.15

#: Work of one traced run: fixed, so its counts repeat exactly.  The
#: cold workloads trace whole passes, at least this many requests.
TRACED_COLD_REQUESTS = 70
TRACED_WARM_REQUESTS = 1500
TRACED_EDITS = 60

#: The smallest sample that can report a p95 (10 samples beyond it).
MIN_SAMPLES = min_samples(95)

_COLD_SETUP_CODE = """
import json, sys, time
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from pbench.calib import Calibrator
cal = Calibrator()
before = cal.mark()
start = time.perf_counter()
from repro.service.commands import SessionCache
from repro.service.store import ResultStore
store = ResultStore(sys.argv[3])
sessions = SessionCache()
raw = time.perf_counter() - start
cal.mark()
print(json.dumps({"raw": raw, "factor": cal.factor(before)}))
"""


class Timeline:
    """Raw request durations and the kernel reading that opened each
    one's segment; calibration factors are computed once the readings
    after the segment exist."""

    def __init__(self, calibrator: Calibrator):
        self.cal = calibrator
        self.raw: list[float] = []
        self.opened_by: list[int] = []
        self._open = calibrator.mark()
        self._segment_start = time.perf_counter()

    def add(self, raw_s: float) -> int:
        """Record one duration; returns its index."""
        self.raw.append(raw_s)
        self.opened_by.append(self._open)
        return len(self.raw) - 1

    def maybe_close(self) -> None:
        if time.perf_counter() - self._segment_start >= SEGMENT_S:
            self.close()

    def close(self) -> None:
        """End the segment with a kernel reading (none if it is empty)."""
        if self.opened_by and self.opened_by[-1] == self._open:
            self._open = self.cal.mark()
        self._segment_start = time.perf_counter()

    def __len__(self) -> int:
        return len(self.raw)

    @property
    def factors(self) -> list[float]:
        return [self.cal.factor(before) for before in self.opened_by]

    def calibrated(self) -> list[float]:
        return [raw * factor for raw, factor in zip(self.raw, self.factors)]


class Run:
    """What one invocation shares: paths, seed, calibrator, tallies."""

    def __init__(self, root: Path, state: Path, seed: int, seconds: float):
        self.root = root
        self.state = state
        self.seed = seed
        self.seconds = seconds
        self.cal = Calibrator()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.context: dict = {}

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)

    def path(self, name: str) -> Path:
        path = self.state / name
        if path.exists():
            shutil.rmtree(path)
        return path

    def log_path(self) -> Path:
        return self.state / "daemon.log"

    def setup_metric(self, samples: list[tuple[float, float]]) -> float:
        self.context["setup_raw_s"] = [round(raw, 6) for raw, _ in samples]
        self.context["setup_calibrated_s"] = [round(raw * f, 6) for raw, f in samples]
        return median([raw * factor for raw, factor in samples])

    def latency_metrics(self, timeline: Timeline, completed: int, rss_mb: float,
                        setup_s: float) -> dict:
        """The end-to-end metrics of a timed loop; the raw wall-clock
        twin of every timing goes to the context."""
        calibrated = [s * 1000.0 for s in timeline.calibrated()]
        raw = [s * 1000.0 for s in timeline.raw]
        busy = sum(calibrated) / 1000.0
        self.context["samples"] = len(calibrated)
        self.context["raw"] = {
            "latency_p50_ms": median(raw),
            "latency_p95_ms": reported_percentile(raw, 95),
            "throughput_rps": completed / (sum(raw) / 1000.0),
        }
        self.context["error_rate"] = self.failed / max(1, self.attempted)
        return {
            "latency_p50_ms": (median(calibrated), "ms"),
            "latency_p95_ms": (reported_percentile(calibrated, 95), "ms"),
            "throughput_rps": (completed / busy, "1/s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (rss_mb, "MiB"),
            "success_rate": (1.0 - self.failed / max(1, self.attempted), "ratio"),
        }


# ---------------------------------------------------------------------------
# Shared steps
# ---------------------------------------------------------------------------


def reference(run: Run, programs, kinds) -> tuple[dict, dict]:
    """Serve every program once in-process (untimed), check the served
    analysis against execution, and derive its query pool and the
    reference answers of every pool query.  Returns ``(pools, refs)``;
    a program that fails its check has every request counted failed
    (its reference answers are replaced by an unmatchable marker)."""
    pools, refs, coverage = {}, {}, Counter()
    for name, source in programs:
        server = InProcess("memory://")
        response, _ = server.call({"source": source, "query": "labels"})
        if not response.get("ok"):
            raise RuntimeError(f"{name}: {response.get('error')}")
        analysis = server.analysis_for(source)
        pool = workloads.query_pool(QuerySession(analysis, source), name, kinds)
        pools[name] = pool or ["summary"]
        refs[name] = gate.reference_answers(analysis, source, pools[name] + ["labels"])
        try:
            coverage.update(gate.check_input(name, source, analysis))
        except gate.GateFailure as exc:
            run.problems.append(str(exc))
            refs[name] = {query: "<failed soundness>" for query in refs[name]}
    run.context["soundness"] = dict(coverage)
    return pools, refs


def cold_setup(run: Run) -> float:
    """Import ``repro`` and create the store and sessions, in fresh
    processes."""
    samples = []
    for rep in range(COLD_SETUP_REPS):
        store = run.path(f"setup-{rep}")
        out = subprocess.run(
            [sys.executable, "-c", _COLD_SETUP_CODE,
             str(run.root / "perfbench"), str(run.root / "src"), str(store)],
            cwd=run.root, capture_output=True, text=True, timeout=120, check=True,
        )
        reading = json.loads(out.stdout.strip().splitlines()[-1])
        samples.append((reading["raw"], reading["factor"]))
        shutil.rmtree(store, ignore_errors=True)
    return run.setup_metric(samples)


def daemon_setup(run: Run, reps: int, prepare) -> tuple[DaemonProcess, float]:
    """Start a daemon over a fresh store and ``prepare`` it, ``reps``
    times; ``setup_s`` is the median calibrated time.  Returns the last
    daemon, still running, and ``setup_s``."""
    samples = []
    for rep in range(reps):
        before = run.cal.mark()
        start = time.perf_counter()
        daemon = DaemonProcess(run.root, run.path(f"daemon-{rep}"), run.log_path())
        try:
            prepare(daemon)
        except BaseException:
            daemon.stop()
            raise
        raw = time.perf_counter() - start
        run.cal.mark()
        samples.append((raw, run.cal.factor(before)))
        if rep < reps - 1:
            daemon.stop()
    return daemon, run.setup_metric(samples)


def paired(recorder: SpanRecorder, index: int, untraced, traced, request: dict):
    """One request through an untraced and a traced server, alternating
    which goes first so neither always finds the caches the other
    warmed.  Returns ``((response, seconds), ((response, seconds),
    counters))``."""
    if index % 2:
        traced_result = recorder.traced_call(index, traced.call, request)
        return untraced.call(request), traced_result
    plain_result = untraced.call(request)
    return plain_result, recorder.traced_call(index, traced.call, request)


def check_answer(run: Run, refs: dict, name: str, query: str, response: dict) -> bool:
    answer = gate.served_answer(query, response)
    if answer is None or answer != refs[name][query]:
        run.fail(f"{name} {query}: {response.get('error') or 'answer differs'}")
        return False
    return True


# ---------------------------------------------------------------------------
# cold-suite and cold-deep
# ---------------------------------------------------------------------------


def cold_suite(run: Run, traced: bool) -> dict:
    return cold(run, traced, workloads.cold_suite_programs())


def cold_deep(run: Run, traced: bool) -> dict:
    return cold(run, traced, workloads.cold_deep_programs())


def cold(run: Run, traced: bool, programs) -> dict:
    """In-process passes over fixed programs; every request misses the
    store and the sessions."""
    sources = dict(programs)
    names = [name for name, _ in programs]
    pools, refs = reference(run, programs, workloads.COLD_KINDS)
    setup_s = cold_setup(run)
    if traced:
        return cold_traced(run, sources, names, pools, refs)

    gc.collect()
    exact_rss = reset_peak_rss()
    timeline = Timeline(run.cal)
    completed = 0
    min_passes = math.ceil(MIN_SAMPLES / len(names))
    start = time.perf_counter()
    index = 0
    while index < min_passes or time.perf_counter() - start < run.seconds:
        store = run.path(f"pass-{index}")
        for name, query in workloads.cold_pass(run.seed, index, names, pools):
            server = InProcess(store)  # fresh sessions: every request misses
            response, raw = server.call({"source": sources[name], "query": query})
            timeline.add(raw)
            run.attempted += 1
            completed += check_answer(run, refs, name, query, response)
            timeline.maybe_close()
        timeline.close()
        del server
        gc.collect()
        shutil.rmtree(store)
        index += 1
    rss = vm_hwm_mb()
    run.context["passes"] = index
    run.context["rss_since_reset"] = exact_rss
    return run.latency_metrics(timeline, completed, rss, setup_s)


def cold_traced(run, sources, names, pools, refs) -> dict:
    recorder = SpanRecorder()
    timeline = Timeline(run.cal)
    counts = Counter()
    plain, ids = [], []
    requests = [
        request
        for index in range(math.ceil(TRACED_COLD_REQUESTS / len(names)))
        for request in workloads.cold_pass(run.seed, index, names, pools)
    ]
    for index, (name, query) in enumerate(requests):
        if index % len(names) == 0:  # a pass starts: fresh stores
            untraced_store = run.path(f"untraced-{index}")
            traced_store = run.path(f"traced-{index}")
        untraced, traced = InProcess(untraced_store), InProcess(traced_store)
        request = {"source": sources[name], "query": query}
        (response, raw), ((traced_response, _), counters) = paired(
            recorder, index, untraced, traced, request)
        plain.append(raw)
        run.attempted += 2
        check_answer(run, refs, name, query, response)
        check_answer(run, refs, name, query, traced_response)
        ids.append((index, timeline.add(recorder.root_time(index))))
        count_results(recorder.results, counters, counts)
        timeline.maybe_close()
    timeline.close()
    return layer_metrics(run, recorder, timeline, ids, plain, counts)


# ---------------------------------------------------------------------------
# warm-query
# ---------------------------------------------------------------------------


def first_touch(run: Run, server, programs, refs) -> None:
    for name, source in programs:
        response, _ = server.call({"source": source, "query": "labels"})
        check_answer(run, refs, name, "labels", response)


def warm_query(run: Run, traced: bool) -> dict:
    programs = workloads.warm_query_programs(run.seed)
    sources = dict(programs)
    names = [name for name, _ in programs]
    strata = [names[:18], names[18:]]  # the suite and livc; generated
    pools, refs = reference(run, programs, workloads.WARM_KINDS)

    daemon, setup_s = daemon_setup(
        run, 1 if traced else DAEMON_SETUP_REPS,
        lambda server: first_touch(run, server, programs, refs),
    )
    try:
        mirrors = []
        if traced:
            for tag in ("untraced", "traced"):
                mirror = InProcess(run.path(f"mirror-{tag}"), workloads.DAEMON_SESSIONS)
                first_touch(run, mirror, programs, refs)
                mirrors.append(mirror)
        warmup = workloads.ZipfStream(run.seed, strata, pools, "warmup")
        for _ in range(WARMUP_REQUESTS):
            name, query = warmup.next()
            request = {"source": sources[name], "query": query}
            for server in [daemon] + mirrors:
                response, _ = server.call(request)
                check_answer(run, refs, name, query, response)
        stream = workloads.ZipfStream(run.seed, strata, pools, "timed")
        if traced:
            return warm_traced(run, daemon, mirrors, stream, sources, refs)

        timeline = Timeline(run.cal)
        completed = 0
        start = time.perf_counter()
        while len(timeline) < MIN_SAMPLES or time.perf_counter() - start < run.seconds:
            name, query = stream.next()
            response, raw = daemon.call({"source": sources[name], "query": query})
            timeline.add(raw)
            run.attempted += 1
            completed += check_answer(run, refs, name, query, response)
            timeline.maybe_close()
        timeline.close()
        rss = vm_hwm_mb(daemon.worker_pid())
        return run.latency_metrics(timeline, completed, rss, setup_s)
    finally:
        daemon.stop()


def warm_traced(run, daemon, mirrors, stream, sources, refs) -> dict:
    untraced, traced = mirrors
    recorder = SpanRecorder()
    timeline = Timeline(run.cal)
    counts = Counter()
    plain, ids, transport = [], [], []
    for index in range(TRACED_WARM_REQUESTS):
        name, query = stream.next()
        request = {"source": sources[name], "query": query}
        response, rtt = daemon.call(request)
        run.attempted += 1
        check_answer(run, refs, name, query, response)
        lookups = traced.store.stats.lookups
        (_, raw), ((response, _), counters) = paired(
            recorder, index, untraced, traced, request)
        counts["queries.session_hits"] += traced.store.stats.lookups == lookups
        plain.append(raw)
        transport.append(rtt - raw)
        check_answer(run, refs, name, query, response)
        ids.append((index, timeline.add(recorder.root_time(index))))
        count_results(recorder.results, counters, counts)
        timeline.maybe_close()
    timeline.close()
    counts["queries.requests"] = TRACED_WARM_REQUESTS
    factors = timeline.factors
    counts_ms = {"daemon.transport_ms": 1000.0 * sum(
        t * f for t, f in zip(transport, factors)) / len(transport)}
    return layer_metrics(run, recorder, timeline, ids, plain, counts, counts_ms)


# ---------------------------------------------------------------------------
# edit-watch
# ---------------------------------------------------------------------------


def establish(run: Run, server, programs) -> None:
    for name, source in programs:
        response, _ = server.call({"cmd": "watch", "source": source})
        if not response.get("ok"):
            run.fail(f"{name} watch: {response.get('error')}")


def edit_watch(run: Run, traced: bool) -> dict:
    programs = workloads.edit_watch_programs()
    daemon, setup_s = daemon_setup(
        run, 1 if traced else DAEMON_SETUP_REPS,
        lambda server: establish(run, server, programs),
    )

    diffs, probes = [], []
    recorder = SpanRecorder() if traced else None
    counts = Counter()
    try:
        mirrors = []
        if traced:
            untraced = InProcess(run.path("mirror-untraced"))
            establish(run, untraced, programs)
            traced_mirror = InProcess(run.path("mirror-traced"))
            for index, (name, source) in enumerate(programs):
                request = {"cmd": "watch", "source": source}
                (response, _), _ = recorder.traced_call(
                    f"setup-{index}", traced_mirror.call, request)
                if not response.get("ok"):
                    run.fail(f"{name} watch: {response.get('error')}")
            mirrors = [untraced, traced_mirror]
        chain = workloads.EditChain(run.seed, programs)
        timeline = Timeline(run.cal)
        plain, ids, transport = [], [], []
        start = time.perf_counter()
        while (
            len(timeline) < TRACED_EDITS
            if traced
            else len(timeline) < MIN_SAMPLES or time.perf_counter() - start < run.seconds
        ):
            name, old, new, kind, probe = chain.next()
            request = {"cmd": "watch", "source": new, "from": old}
            response, raw = daemon.call(request)
            run.attempted += 1
            diffs.append((name, old, new, kind, response))
            probes.append((name, new, probe, daemon.call({"source": new, "query": probe})[0]))
            if traced:
                index = len(plain)
                (_, mirror_raw), (_, counters) = paired(
                    recorder, index, mirrors[0], mirrors[1], request)
                plain.append(mirror_raw)
                transport.append(raw - mirror_raw)
                ids.append((index, timeline.add(recorder.root_time(index))))
                count_results(recorder.results, counters, counts)
                count_diff(response, counts)
            else:
                timeline.add(raw)
            timeline.maybe_close()
        timeline.close()
        rss = vm_hwm_mb(daemon.worker_pid())
    finally:
        daemon.stop()

    completed = edit_gate(run, programs, diffs, probes)
    run.context["tiers"] = dict(Counter(d[4].get("result", {}).get("mode") for d in diffs))
    run.context["edit_kinds"] = dict(Counter(d[3] for d in diffs))
    if traced:
        per = recorder.per_request()
        check = [layers.get("checkers.check", 0.0)
                 for key, layers in per.items() if str(key).startswith("setup-")]
        counts_ms = {
            "checkers.check_ms": 1000.0 * median(timeline.factors) * sum(check) / len(check),
            "daemon.transport_ms": 1000.0 * sum(
                t * f for t, f in zip(transport, timeline.factors)) / len(transport),
        }
        return layer_metrics(run, recorder, timeline, ids, plain, counts, counts_ms)
    return run.latency_metrics(timeline, completed, rss, setup_s)


def edit_gate(run: Run, programs, diffs, probes) -> int:
    """Check every distinct text once (execution, cold full check,
    cold session answers) and every diff and probe against them.
    Returns the number of diffs that passed."""
    texts = dict((source, name) for name, source in programs)
    for name, old, new, _, _ in diffs:
        texts.setdefault(new, name)
    probe_queries: dict[str, set] = {}
    for _, text, query, _ in probes:
        probe_queries.setdefault(text, set()).add(query)
    findings, answers, unsound = {}, {}, set()
    coverage = Counter()
    for text, name in texts.items():
        server = InProcess("memory://")
        server.call({"source": text, "query": "labels"})
        analysis = server.analysis_for(text)
        try:
            coverage.update(gate.check_input(name, text, analysis))
        except gate.GateFailure as exc:
            run.problems.append(str(exc))
            unsound.add(text)
        findings[text] = gate.finding_multiset(analysis, text)
        answers[text] = gate.reference_answers(analysis, text, sorted(probe_queries.get(text, ())))
    run.context["soundness"] = dict(coverage)
    run.context["distinct_texts"] = len(texts)
    passed = 0
    for name, old, new, kind, response in diffs:
        if not response.get("ok"):
            run.fail(f"{name} {kind} diff: {response.get('error')}")
        elif new in unsound or old in unsound:
            run.fail(f"{name} {kind} diff: text failed its soundness check")
        elif not gate.diff_agrees(response["result"], findings[old], findings[new]):
            run.fail(f"{name} {kind} diff disagrees with a cold full check")
        else:
            passed += 1
    for name, text, query, response in probes:
        run.attempted += 1
        if gate.served_answer(query, response) != answers[text][query]:
            run.fail(f"{name} post-edit {query}: answer differs from a cold session")
    return passed


# ---------------------------------------------------------------------------
# Per-layer metrics of a traced run
# ---------------------------------------------------------------------------


def count_results(results, counters: dict, counts: Counter) -> None:
    """Fold one traced request's work counts into ``counts``."""
    for name, args, result in results:
        if name == "parse":
            counts["frontend.tokens"] += len(tokenize(args[0]))
        elif name == "simplify_program":
            counts["simple.stmts"] += result.count_basic_stmts()
        elif name == "analyze":
            counts["core.ig_nodes"] += result.ig.node_count()
            counts["core.memo_hits"] += result.stats.hits
            counts["core.memo_lookups"] += result.stats.hits + result.stats.misses
        elif name == "canonical_json" and isinstance(args[0], dict) and "point_info" in args[0]:
            counts["serialize.artifact_bytes"] += len(result)
        elif name == "check_diff":
            counts["checkers.replayed"] += result.replayed
            counts["checkers.fresh"] += result.fresh
    counts["core.worklist_visits"] += counters.get("analysis.worklist_visits", 0)
    counts["core.worklist_skips"] += counters.get("analysis.worklist_skips", 0)
    counts["store.bytes_written"] += counters.get("store.put_bytes", 0)


def count_diff(response: dict, counts: Counter) -> None:
    result = response.get("result", {})
    counts[f"incremental.tier_{result.get('mode')}"] += 1
    counts["incremental.dirty_functions"] += len(result.get("dirty_functions", ()))


def layer_metrics(run, recorder, timeline, ids, plain, counts, extra_ms=None) -> dict:
    """Per-layer metrics over the traced requests ``ids`` (pairs of
    request id and timeline index): mean calibrated self time per
    request of each layer, shares, ratios and the exact counts."""
    per = recorder.per_request()
    factors = timeline.factors
    n = len(ids)
    totals = Counter()
    root_total = 0.0
    for request, index in ids:
        factor = factors[index]
        for layer, seconds in per[request].items():
            totals[layer] += seconds * factor
        root_total += timeline.raw[index] * factor
    plain_total = sum(raw * factors[index] for raw, (_, index) in zip(plain, ids))

    def ms(layer):
        return 1000.0 * totals.get(layer, 0.0) / n

    def ratio(num, den):
        return num / den if den else 0.0

    parse_ms = ms("frontend.parse")
    metrics = {
        "frontend.parse_ms": (parse_ms, "ms"),
        "frontend.share": (ratio(totals["frontend.parse"], root_total), "ratio"),
        "frontend.tokens": (counts["frontend.tokens"], "count"),
        "frontend.tokens_per_ms": (ratio(counts["frontend.tokens"] / n, parse_ms), "tok/ms"),
        "simple.simplify_ms": (ms("simple.simplify"), "ms"),
        "simple.stmts": (counts["simple.stmts"], "count"),
        "core.analyze_ms": (ms("core.analyze"), "ms"),
        "core.share": (ratio(totals["core.analyze"], root_total), "ratio"),
        "core.ig_nodes": (counts["core.ig_nodes"], "count"),
        "core.worklist_visits": (counts["core.worklist_visits"], "count"),
        "core.worklist_skip_ratio": (
            ratio(counts["core.worklist_skips"], counts["core.worklist_visits"]), "ratio"),
        "core.memo_hit_ratio": (
            ratio(counts["core.memo_hits"], counts["core.memo_lookups"]), "ratio"),
        "serialize.encode_ms": (ms("serialize.encode"), "ms"),
        "serialize.artifact_bytes": (counts["serialize.artifact_bytes"], "bytes"),
        "serialize.decode_ms": (ms("serialize.decode"), "ms"),
        "store.key_ms": (ms("store.key"), "ms"),
        "store.put_ms": (ms("store.put"), "ms"),
        "store.get_ms": (ms("store.get"), "ms"),
        "store.bytes_written": (counts["store.bytes_written"], "bytes"),
        "queries.eval_ms": (ms("queries.eval"), "ms"),
        "queries.session_hit_ratio": (
            ratio(counts["queries.session_hits"], counts["queries.requests"]), "ratio"),
        "daemon.transport_ms": (0.0, "ms"),
        "incremental.update_ms": (ms("incremental.update"), "ms"),
        "incremental.tier_splice": (counts["incremental.tier_splice"], "count"),
        "incremental.tier_seeded": (counts["incremental.tier_seeded"], "count"),
        "incremental.tier_cold": (counts["incremental.tier_cold"], "count"),
        "incremental.dirty_functions": (counts["incremental.dirty_functions"], "count"),
        "checkers.check_ms": (ms("checkers.check"), "ms"),
        "checkers.diff_ms": (ms("checkers.diff"), "ms"),
        "checkers.replay_ratio": (
            ratio(counts["checkers.replayed"],
                  counts["checkers.replayed"] + counts["checkers.fresh"]), "ratio"),
        "bench.kernel_ms": (median(run.cal.readings), "ms"),
        "bench.trace_overhead": (ratio(root_total, plain_total) - 1.0, "ratio"),
        "bench.layer_coverage": (1.0 - ratio(totals["request"], root_total), "ratio"),
        "bench.requests": (n, "count"),
    }
    for kind in workloads.WARM_KINDS:
        key = f"queries.eval.{kind}"
        asked = sum(1 for request, _ in ids if key in per[request])
        metrics[f"queries.eval_ms.{kind}"] = (1000.0 * ratio(totals[key], asked), "ms")
    for name, value in (extra_ms or {}).items():
        metrics[name] = (value, "ms")
    run.context["work_counts"] = dict(sorted(counts.items()))
    run.context["kernel_nominal_ms"] = KERNEL_NOMINAL_MS
    return metrics


WORKLOADS = {
    "cold-suite": cold_suite,
    "cold-deep": cold_deep,
    "warm-query": warm_query,
    "edit-watch": edit_watch,
}
