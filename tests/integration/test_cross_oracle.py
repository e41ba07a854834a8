"""Cross-implementation oracle tests.

Three independent implementations answer overlapping questions, and
precision theory fixes the allowed direction of disagreement:

* **Flow-insensitive analyses** (Andersen's inclusion-based solver)
  merge all program points, so whenever the paper's flow- and
  context-sensitive analysis says two pointers may alias *somewhere*,
  Andersen must agree — its may-alias relation is a superset.
* **Naive function-pointer baselines** (``all_functions`` /
  ``address_taken``) bind a superset of callees at indirect call
  sites, so their may-alias answers must likewise cover the precise
  strategy's.
* **The result store**: a decoded cached result must answer every
  query identically to the live analysis it was encoded from — here
  asserted *with tracing enabled*, so the observability hooks are
  proven behavior-neutral on the query path too.

The corpora are fixed-seed generator programs (same generator as the
soundness campaign) plus benchsuite programs for the label-based
query comparison.
"""

from __future__ import annotations

import itertools

import pytest

from repro import obs
from repro.benchsuite import BENCHMARKS
from repro.benchsuite.generator import GeneratorConfig, generate_program
from repro.core.aliases import may_alias
from repro.core.analysis import analyze
from repro.core.baselines import run_with_strategy
from repro.core.flowinsensitive import andersen
from repro.frontend.ctypes import PointerType
from repro.service.queries import QuerySession
from repro.service.store import ResultStore
from repro.simple import simplify_source

#: Fixed-seed generator corpus for the superset oracles.
GEN_CORPUS = [
    (f"gen-{name}-s{seed}", name, seed)
    for name, seed in itertools.product(
        ("default", "no_fnptr", "deep"), range(4)
    )
]

GEN_CONFIGS = {
    "default": GeneratorConfig(),
    "no_fnptr": GeneratorConfig(use_function_pointers=False),
    "deep": GeneratorConfig(max_pointer_level=3, n_stmts=12),
}


def _generate(config_name: str, seed: int) -> str:
    return generate_program(seed, GEN_CONFIGS[config_name])


def _pointer_vars(program, func_name: str) -> list[str]:
    """Plain pointer-typed variables visible inside ``func_name``."""
    fn = program.functions[func_name]
    names = []
    for name, ctype in itertools.chain(
        fn.params, fn.local_types.items(), program.global_types.items()
    ):
        if isinstance(ctype, PointerType):
            names.append(name)
    return sorted(set(names))


def _precise_alias_anywhere(analysis, func_name: str, x: str, y: str) -> bool:
    """Does the context-sensitive result report ``*x``/``*y`` aliasing
    at any recorded point of ``func_name``?"""
    env = analysis.env(func_name)
    x_loc, y_loc = env.var_loc(x), env.var_loc(y)
    fn = analysis.program.functions[func_name]
    for stmt in fn.iter_stmts():
        pts = analysis.at_stmt(stmt.stmt_id)
        if pts is None:
            continue
        if may_alias(pts, x_loc, y_loc, 1, 1):
            return True
    return False


def _alias_pairs(analysis, program) -> set[tuple[str, str, str]]:
    """(func, x, y) pointer pairs the analysis reports as aliasing."""
    pairs = set()
    for func_name in program.functions:
        pointers = _pointer_vars(program, func_name)
        for x, y in itertools.combinations(pointers, 2):
            if _precise_alias_anywhere(analysis, func_name, x, y):
                pairs.add((func_name, x, y))
    return pairs


@pytest.mark.parametrize(
    "config_name,seed",
    [(name, seed) for _, name, seed in GEN_CORPUS],
    ids=[test_id for test_id, _, _ in GEN_CORPUS],
)
def test_andersen_is_a_superset(config_name: str, seed: int):
    source = _generate(config_name, seed)
    program = simplify_source(source)
    precise = analyze(program)
    loose = andersen(program)
    for func_name, x, y in sorted(_alias_pairs(precise, program)):
        overlap = loose.targets_of_var(func_name, x) & loose.targets_of_var(
            func_name, y
        )
        assert overlap, (
            f"precise analysis says {x!r} and {y!r} may alias in "
            f"{func_name!r} (config={config_name}, seed={seed}) but "
            f"Andersen reports disjoint target sets — a flow-"
            f"insensitive analysis can never be more precise\n"
            f"--- program ---\n{source}"
        )


@pytest.mark.parametrize("strategy", ["all_functions", "address_taken"])
@pytest.mark.parametrize(
    "config_name,seed",
    [(name, seed) for _, name, seed in GEN_CORPUS[::2]],
    ids=[test_id for test_id, _, _ in GEN_CORPUS[::2]],
)
def test_naive_fnptr_strategies_are_supersets(
    config_name: str, seed: int, strategy: str
):
    source = _generate(config_name, seed)
    program = simplify_source(source)
    precise = analyze(program)
    loose = run_with_strategy(program, strategy)
    missing = _alias_pairs(precise, program) - _alias_pairs(loose, program)
    assert not missing, (
        f"the {strategy!r} baseline lost alias pairs the precise "
        f"strategy reports (config={config_name}, seed={seed}): "
        f"{sorted(missing)}\n--- program ---\n{source}"
    )


class TestCachedAnswersUnderTracing:
    """Store round-trips answer identically to live results, with the
    observability layer active on both sides."""

    BENCHES = ("hash", "misr", "mway")

    @pytest.mark.parametrize("name", BENCHES)
    def test_fresh_vs_cached(self, name, tmp_path):
        source = BENCHMARKS[name].source
        store = ResultStore(tmp_path / "store")
        with obs.tracing() as tracer:
            live, hit = store.load_or_analyze(source, name=name)
            assert not hit
            cached, hit = store.load_or_analyze(source, name=name)
            assert hit
            fresh = QuerySession(live)
            warm = QuerySession(cached)
            assert not fresh.cached and warm.cached
            queries = ["labels", "warnings"]
            program = live.program
            for label, (func, _) in sorted(program.labels.items()):
                for var in _pointer_vars(program, func)[:4]:
                    queries.append(f"points_to:{var}@{label}")
                for x, y in itertools.combinations(
                    _pointer_vars(program, func)[:4], 2
                ):
                    queries.append(f"may_alias:*{x},{y}@{label}")
            compared = 0
            for query in queries:
                if query.startswith("summary"):
                    continue  # summary embeds per-session counters
                assert fresh.evaluate(query) == warm.evaluate(query), query
                compared += 1
            assert compared >= 2
        # Both sessions ran traced: the query path must have reported
        # per-query latency into the live tracer.
        snapshot = tracer.snapshot()
        assert snapshot["histograms"]["service.query"]["count"] >= 2 * compared
