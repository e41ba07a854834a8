# Development entry points.
#
# `pip install -e .` needs the `wheel` package to build editable
# wheels; on offline machines without it, `make install` falls back to
# the legacy setuptools develop mode, which needs nothing.

.PHONY: install test bench bench-perf bench-service bench-checkers bench-daemon bench-incremental bench-diffcheck bench-telemetry check check-demo check-diff-smoke artifacts examples soundness all

install:
	pip install -e . 2>/dev/null || python setup.py develop

test:
	pytest tests/

bench:
	pytest benchmarks/ --benchmark-only

# Timing of the points-to core with the tracing-off and provenance-off
# overhead guards; merges its sections into BENCH_perf.json at the
# repository root.
bench-perf:
	PYTHONPATH=src python benchmarks/bench_perf.py

# Cold-vs-warm batch runs through the result store; merges a
# "service" section into BENCH_perf.json.
bench-service:
	PYTHONPATH=src python benchmarks/bench_service.py

# Per-checker timings and finding counts over the benchmark suite;
# merges a "checkers" section into BENCH_perf.json.
bench-checkers:
	PYTHONPATH=src python benchmarks/bench_checkers.py

# Daemon throughput/latency grid, coalescing hit rate, and the warm
# speedup over per-client serve loops; merges a "daemon" section into
# BENCH_perf.json and enforces the >= 5x warm-speedup floor.
bench-daemon:
	PYTHONPATH=src python benchmarks/bench_daemon.py

# Warm one-function-edit update vs cold re-analysis on the perfsuite
# programs; merges an "incremental" section into BENCH_perf.json and
# enforces the >= 10x warm-speedup floor (byte-identity re-checked on
# every timed run).
bench-incremental:
	PYTHONPATH=src python benchmarks/bench_incremental.py

# Telemetry-on vs telemetry-off daemon throughput, traced-request
# overhead, and metrics scrape latency; merges a "telemetry" section
# into BENCH_perf.json and enforces the <5% disabled-path floor.
bench-telemetry:
	PYTHONPATH=src python benchmarks/bench_telemetry.py

# Warm `check --diff` of a one-function edit vs a cold full check on
# the perfsuite programs; merges a "diffcheck" section into
# BENCH_perf.json and enforces the >= 10x warm-speedup floor (SARIF
# byte-identity asserted inside every timed run).
bench-diffcheck:
	PYTHONPATH=src python benchmarks/bench_diffcheck.py

# Tier-1 gate: the full test suite plus a quick performance smoke
# (one small and one large program).
check:
	PYTHONPATH=src python -m pytest -x -q
	PYTHONPATH=src python benchmarks/bench_perf.py --smoke --out /tmp/bench_perf_smoke.json

# Run the pointer-bug checkers over the C example fixtures (text and
# SARIF); exercises every shipped checker plus a suppression.
check-demo:
	PYTHONPATH=src python -m repro.cli check examples/pointer_bugs.c --no-cache
	PYTHONPATH=src python -m repro.cli check examples/funcptr_dispatch.c --no-cache --format sarif > /dev/null
	@echo "check-demo: ok"

# Differential-check smoke: inject one bug into the examples fixture,
# diff against the pristine text through the CLI, and assert only the
# injected bug is reported new while everything else replays.
check-diff-smoke:
	PYTHONPATH=src python -m pytest -q tests/integration/test_diff_smoke.py

artifacts: bench
	@echo "rendered tables/figures are in benchmarks/out/"

examples:
	@for ex in examples/*.py; do \
		echo "== $$ex =="; python $$ex; echo; \
	done

soundness:
	@python -c "\
	from repro.benchsuite import BENCHMARKS; \
	from repro.interp import check_soundness; \
	[print(name, check_soundness(b.source, max_steps=400_000).summary()) \
	 for name, b in BENCHMARKS.items()]"

all: install test bench
