"""Baseline configurations the paper evaluates against.

Section 5 motivates the precise function-pointer algorithm by
comparing invocation-graph sizes against two naive strategies; this
module packages those runs (used by the ``livc`` study bench) plus a
context-insensitive ablation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.analysis import AnalysisOptions, PointsToAnalysis, analyze
from repro.simple.ir import SimpleProgram


@dataclass
class StrategyComparison:
    """Invocation-graph sizes under the three binding strategies."""

    precise_nodes: int
    all_functions_nodes: int
    address_taken_nodes: int
    precise_targets_per_site: dict[int, int]
    all_functions_count: int
    address_taken_count: int


def run_with_strategy(
    program: SimpleProgram, strategy: str, **kwargs
) -> PointsToAnalysis:
    options = AnalysisOptions(function_pointer_strategy=strategy, **kwargs)
    return analyze(program, options)


def compare_function_pointer_strategies(
    program: SimpleProgram,
) -> StrategyComparison:
    """Run the analysis under all three strategies and report the
    invocation-graph sizes (the Section 6 `livc` study)."""
    from repro.core.funcptr import address_taken_functions
    from repro.core.invocation_graph import indirect_call_sites

    precise = run_with_strategy(program, "precise")
    all_fns = run_with_strategy(program, "all_functions")
    taken = run_with_strategy(program, "address_taken")

    per_site: dict[int, int] = {}
    for fn in program.functions.values():
        for call_site, _ in indirect_call_sites(fn):
            per_site[call_site] = 0
    for _, _, sites in precise.ig.distinct_subtrees():
        for call_site, callees in sites:
            if call_site in per_site:
                per_site[call_site] = max(per_site[call_site], len(callees))

    return StrategyComparison(
        precise_nodes=precise.ig.node_count(),
        all_functions_nodes=all_fns.ig.node_count(),
        address_taken_nodes=taken.ig.node_count(),
        precise_targets_per_site=per_site,
        all_functions_count=len(program.functions),
        address_taken_count=len(address_taken_functions(program)),
    )
