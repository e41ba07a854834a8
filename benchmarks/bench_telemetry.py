"""Telemetry-plane benchmark: what the observability layer costs.

Runs the same warm request stream against two identically-configured
daemons — one with telemetry enabled (the default), one started with
``telemetry=False`` — and records a ``"telemetry"`` section in
``BENCH_perf.json`` (merging with whatever the other benchmarks
wrote):

* warm throughput and p50/p95 latency for both daemons;
* ``on_overhead_pct``: what enabling tracing/metrics/journal costs on
  the warm hot path (informational — expected small but nonzero);
* ``traced_overhead_pct``: the extra cost of a per-request distributed
  trace (``{"trace": true}`` on every request) over plain telemetry;
* scrape latency for the ``metrics`` verb in both JSON and Prometheus
  form.

The enforced floor (full mode) is the *disabled* path: with telemetry
off the daemon must not run slower than the telemetry-on daemon by
more than 5% (``rps_off >= 0.95 * rps_on``).  The off path is a single
attribute check per hook; if it ever gets slower than actually doing
the telemetry work, the gate is broken and this bench fails.

``--smoke`` runs a single small tier without enforcing the floor (CI);
the full grid is for nightly runs.

Run with::

    PYTHONPATH=src python benchmarks/bench_telemetry.py [--smoke] [--out PATH]
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import tempfile
import time

sys.path.insert(
    0, str(pathlib.Path(__file__).resolve().parent.parent / "src")
)

from repro.daemon import DaemonClient, DaemonConfig, DaemonHandle  # noqa: E402
from report import merge_section  # noqa: E402

from bench_daemon import (  # noqa: E402
    percentile,
    run_clients,
    synthetic_program,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_OUT = REPO_ROOT / "BENCH_perf.json"


def warm_tier(
    host: str, port: int, clients: int, programs: list[str], passes: int
) -> dict:
    """Populate the store once, then aggregate ``passes`` warm runs."""
    run_clients(host, port, clients, programs)  # populate, untimed
    runs = [
        run_clients(host, port, clients, programs) for _ in range(passes)
    ]
    requests = sum(run["requests"] for run in runs)
    wall = sum(run["wall_s"] for run in runs)
    return {
        "clients": clients,
        "requests": requests,
        "wall_s": round(wall, 6),
        "throughput_rps": round(requests / wall, 2),
        "p50_ms": round(
            percentile([run["p50_ms"] for run in runs], 0.5), 3
        ),
        "p95_ms": round(max(run["p95_ms"] for run in runs), 3),
    }


def traced_pass(
    host: str, port: int, programs: list[str], passes: int
) -> dict:
    """Warm single-client passes with a distributed trace per request."""
    latencies: list[float] = []
    started = time.perf_counter()
    with DaemonClient(host, port, timeout=600) as client:
        for _ in range(passes):
            for source in programs:
                begun = time.perf_counter()
                response = client.traced(
                    {"source": source, "query": "labels"}
                )
                latencies.append(time.perf_counter() - begun)
                assert response["ok"], response
                assert "trace_id" in response, response
    wall = time.perf_counter() - started
    return {
        "requests": len(latencies),
        "wall_s": round(wall, 6),
        "throughput_rps": round(len(latencies) / wall, 2),
        "p95_ms": round(percentile(latencies, 0.95) * 1000, 3),
    }


def scrape_latency(host: str, port: int) -> dict:
    """Median latency of the two metrics scrape forms, in ms."""
    timings: dict[str, float] = {}
    with DaemonClient(host, port, timeout=60) as client:
        for form, request in (
            ("json_ms", {"cmd": "metrics"}),
            ("prometheus_ms", {"cmd": "metrics", "format": "prometheus"}),
        ):
            samples = []
            for _ in range(5):
                begun = time.perf_counter()
                response = client.request(dict(request))
                samples.append(time.perf_counter() - begun)
                assert response["ok"], response
            timings[form] = round(percentile(samples, 0.5) * 1000, 3)
    return timings


class _daemon:
    def __init__(self, store_root: str, telemetry: bool):
        self.handle = DaemonHandle(
            DaemonConfig(
                store_url=f"file:{store_root}",
                workers=2,
                telemetry=telemetry,
            )
        )

    def __enter__(self):
        return self.handle.start()

    def __exit__(self, *exc):
        self.handle.stop()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="small single-tier run, no floor (CI)")
    parser.add_argument("--out", type=pathlib.Path, default=DEFAULT_OUT,
                        help=f"output JSON path (default {DEFAULT_OUT})")
    args = parser.parse_args(argv)

    if args.smoke:
        clients, funcs, n_programs, passes = 1, 20, 3, 2
    else:
        clients, funcs, n_programs, passes = 4, 40, 6, 4
    programs = [synthetic_program(i, funcs) for i in range(n_programs)]
    mode = "smoke" if args.smoke else "full"
    print(
        f"bench_telemetry ({mode}): {n_programs} programs, "
        f"{clients} clients, {passes} warm passes"
    )

    with tempfile.TemporaryDirectory(prefix="bench_telemetry_") as root:
        with _daemon(f"{root}/on", telemetry=True) as (host, port):
            on = warm_tier(host, port, clients, programs, passes)
            traced = traced_pass(host, port, programs, passes)
            scrape = scrape_latency(host, port)
        with _daemon(f"{root}/off", telemetry=False) as (host, port):
            off = warm_tier(host, port, clients, programs, passes)

    rps_on, rps_off = on["throughput_rps"], off["throughput_rps"]
    on_overhead = (rps_off - rps_on) / rps_off * 100 if rps_off else 0.0
    traced_overhead = (
        (rps_on - traced["throughput_rps"]) / rps_on * 100 if rps_on else 0.0
    )
    print(
        f"  telemetry on:  {rps_on:>8} rps (p95 {on['p95_ms']}ms)\n"
        f"  telemetry off: {rps_off:>8} rps (p95 {off['p95_ms']}ms)\n"
        f"  on-overhead {on_overhead:.1f}%, traced requests "
        f"{traced['throughput_rps']} rps ({traced_overhead:.1f}% over on), "
        f"scrape json {scrape['json_ms']}ms / "
        f"prometheus {scrape['prometheus_ms']}ms"
    )

    section = {
        "mode": mode,
        "programs": n_programs,
        "program_funcs": funcs,
        "warm_passes": passes,
        "telemetry_on": on,
        "telemetry_off": off,
        "traced": traced,
        "scrape": scrape,
        "on_overhead_pct": round(on_overhead, 2),
        "traced_overhead_pct": round(traced_overhead, 2),
        "floor": "rps_off >= 0.95 * rps_on (full mode)",
    }

    merge_section(args.out, "telemetry", section)
    print(f"  -> {args.out}")

    if not args.smoke and rps_off < 0.95 * rps_on:
        print(
            f"bench_telemetry: FAIL telemetry-off throughput {rps_off} rps "
            f"is >5% below telemetry-on {rps_on} rps — the disabled path "
            "is doing telemetry work",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
