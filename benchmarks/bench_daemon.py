"""Daemon benchmark: concurrent throughput, latency, and coalescing.

Measures the TCP daemon against the single-threaded stdin serve loop
on the same request streams and records a ``"daemon"`` section in
``BENCH_perf.json`` (merging with whatever the other benchmarks
wrote):

* a clients x {cold, warm} grid (1/4/16 clients) with aggregate
  throughput and p50/p95 per-request latency;
* the serve baseline: every client running its own cold ``serve()``
  loop — the no-daemon experience, where warmth cannot be shared
  across client invocations — and the warm-daemon speedup over it;
* a duplicate-heavy 16-client workload showing request coalescing:
  analyses performed vs requests answered.

``--smoke`` runs the 1-client tier only on small programs (CI);
the full grid is for nightly runs and enforces the >=5x warm-daemon
speedup floor.

Run with::

    PYTHONPATH=src python benchmarks/bench_daemon.py [--smoke] [--out PATH]
"""

from __future__ import annotations

import argparse
import io
import json
import pathlib
import sys
import tempfile
import threading
import time

sys.path.insert(
    0, str(pathlib.Path(__file__).resolve().parent.parent / "src")
)

from repro.daemon import DaemonClient, DaemonConfig, DaemonHandle  # noqa: E402
from repro.service.batch import serve  # noqa: E402
from repro.service.store import ResultStore  # noqa: E402
from report import merge_section  # noqa: E402

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_OUT = REPO_ROOT / "BENCH_perf.json"


def synthetic_program(index: int, funcs: int) -> str:
    """A distinct pointer-heavy program whose analysis cost scales
    with ``funcs`` (~0.14s at 60 on the reference machine)."""
    parts = [f"int a{index}, b{index}, c{index};"]
    for i in range(funcs):
        parts.append(
            f"""
int *fn{index}_{i}(int **pp, int sel) {{
    int *r; int i;
    r = &a{index};
    for (i = 0; i < sel; i = i + 1) {{
        if (sel) {{ r = *pp; }} else {{ r = &b{index}; }}
        *pp = r;
    }}
    return r;
}}"""
        )
    calls = "".join(
        f"    q = fn{index}_{i}(&q, {i});\n" for i in range(funcs)
    )
    parts.append(
        "int main() {\n    int *q; q = &c%d;\n%s    L: return 0;\n}"
        % (index, calls)
    )
    return "\n".join(parts)


def percentile(samples: list[float], fraction: float) -> float:
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, int(round(fraction * (len(ordered) - 1))))
    return ordered[rank]


def run_clients(
    host: str, port: int, clients: int, programs: list[str]
) -> dict:
    """Every client sends the full program stream; aggregate the run."""
    latencies: list[list[float]] = [[] for _ in range(clients)]
    failures: list[BaseException] = []

    def body(slot: int) -> None:
        try:
            with DaemonClient(host, port, timeout=600) as client:
                for source in programs:
                    started = time.perf_counter()
                    response = client.request(
                        {"source": source, "query": "labels"}
                    )
                    latencies[slot].append(time.perf_counter() - started)
                    assert response["ok"], response
        except BaseException as exc:  # surfaced below
            failures.append(exc)

    threads = [
        threading.Thread(target=body, args=(slot,)) for slot in range(clients)
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    if failures:
        raise failures[0]
    flat = [sample for per_client in latencies for sample in per_client]
    return {
        "clients": clients,
        "requests": len(flat),
        "wall_s": round(wall, 6),
        "throughput_rps": round(len(flat) / wall, 2),
        "p50_ms": round(percentile(flat, 0.50) * 1000, 3),
        "p95_ms": round(percentile(flat, 0.95) * 1000, 3),
    }


def daemon_counters(host: str, port: int) -> dict:
    with DaemonClient(host, port, timeout=60) as client:
        response = client.request({"cmd": "metrics"})
    return response["result"]["metrics"].get("counters", {})


def serve_per_client_baseline(clients: int, programs: list[str]) -> float:
    """The no-daemon alternative: each client drives its own serve
    loop, cold — no store or session sharing across invocations."""
    lines = "".join(
        json.dumps({"source": source, "query": "labels"}) + "\n"
        for source in programs
    )
    started = time.perf_counter()
    for _ in range(clients):
        out = io.StringIO()
        serve(io.StringIO(lines), out, ResultStore("memory://"))
        for line in out.getvalue().splitlines():
            assert json.loads(line)["ok"]
    return time.perf_counter() - started


def bench_grid(tiers: list[int], programs: list[str], root: str) -> dict:
    grid: dict = {}
    for clients in tiers:
        with _daemon(f"{root}/grid-{clients}") as (host, port):
            cold = run_clients(host, port, clients, programs)
            warm = run_clients(host, port, clients, programs)
        grid[str(clients)] = {"cold": cold, "warm": warm}
        print(
            f"  {clients:>2} clients: cold {cold['throughput_rps']:>8} rps "
            f"(p95 {cold['p95_ms']}ms), warm {warm['throughput_rps']:>8} rps "
            f"(p95 {warm['p95_ms']}ms)"
        )
    return grid


def bench_coalescing(clients: int, program: str, root: str) -> dict:
    with _daemon(f"{root}/coalesce") as (host, port):
        run = run_clients(host, port, clients, [program] * 4)
        counters = daemon_counters(host, port)
    analyses = counters.get("daemon.analyses", 0)
    coalesced = counters.get("daemon.coalesced", 0)
    requests = run["requests"]
    section = {
        "clients": clients,
        "requests": requests,
        "analyses": analyses,
        "coalesced": coalesced,
        "coalesce_hit_rate": round(coalesced / requests, 4) if requests else 0.0,
        "wall_s": run["wall_s"],
    }
    print(
        f"  coalescing: {requests} duplicate requests -> {analyses} "
        f"analyses ({section['coalesce_hit_rate']:.0%} coalesced)"
    )
    return section


class _daemon:
    def __init__(self, store_root: str):
        self.handle = DaemonHandle(
            DaemonConfig(store_url=f"file:{store_root}", workers=0)
        )

    def __enter__(self):
        return self.handle.start()

    def __exit__(self, *exc):
        self.handle.stop()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="1-client tier on small programs (CI)")
    parser.add_argument("--out", type=pathlib.Path, default=DEFAULT_OUT,
                        help=f"output JSON path (default {DEFAULT_OUT})")
    args = parser.parse_args(argv)

    if args.smoke:
        tiers, funcs, n_programs, baseline_clients = [1], 20, 3, 1
    else:
        tiers, funcs, n_programs, baseline_clients = [1, 4, 16], 60, 6, 16
    programs = [synthetic_program(i, funcs) for i in range(n_programs)]
    mode = "smoke" if args.smoke else "full"
    print(f"bench_daemon ({mode}): {n_programs} programs, tiers {tiers}")

    with tempfile.TemporaryDirectory(prefix="bench_daemon_") as root:
        grid = bench_grid(tiers, programs, root)
        coalescing = bench_coalescing(
            max(tiers + [4]), synthetic_program(999, funcs), root
        )

    baseline_s = serve_per_client_baseline(baseline_clients, programs)
    warm_tier = grid[str(max(tiers))]["warm"]
    # Throughput the baseline achieves on the same total request count.
    baseline_rps = (baseline_clients * len(programs)) / baseline_s
    speedup = warm_tier["throughput_rps"] / baseline_rps if baseline_rps else 0.0
    print(
        f"  serve baseline ({baseline_clients} cold loops): "
        f"{baseline_s:.3f}s ({baseline_rps:.1f} rps); warm daemon at "
        f"{max(tiers)} clients: {warm_tier['throughput_rps']} rps "
        f"-> {speedup:.1f}x"
    )

    section = {
        "mode": mode,
        "programs": n_programs,
        "program_funcs": funcs,
        "grid": grid,
        "coalescing": coalescing,
        "serve_baseline": {
            "clients": baseline_clients,
            "wall_s": round(baseline_s, 6),
            "throughput_rps": round(baseline_rps, 2),
        },
        "warm_speedup_vs_serve": round(speedup, 2),
    }

    merge_section(args.out, "daemon", section)
    print(f"  -> {args.out}")

    if not args.smoke and speedup < 5.0:
        print(
            f"bench_daemon: FAIL warm speedup {speedup:.2f}x < 5x floor",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
