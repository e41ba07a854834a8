"""Ablation benches for the design choices DESIGN.md calls out:

* context sensitivity (invocation graph) vs a shared-node baseline;
* the definite/possible distinction (how much definite information
  the analysis recovers, which a may-only analysis would not);
* analysis scalability on generated programs of growing size.
"""

from conftest import write_artifact

from repro.benchsuite import BENCHMARKS, generate_program
from repro.benchsuite.generator import GeneratorConfig
from repro.core.analysis import AnalysisOptions, analyze_source
from repro.core.statistics import collect_table3


ABLATION_BENCHMARKS = ["dry", "config", "travel", "csuite", "lws"]


def count_definite(result):
    definite = possible = 0
    for info in result.point_info.values():
        for _src, tgt, d in info.triples():
            if tgt.is_null:
                continue
            if str(d) == "D":
                definite += 1
            else:
                possible += 1
    return definite, possible


def test_context_sensitivity_ablation(benchmark, artifact_dir):
    """Compare per-indirect-reference precision with and without
    context-sensitive invocation-graph nodes."""

    def run():
        lines = ["Context-sensitivity ablation (avg targets per indirect ref):"]
        for name in ABLATION_BENCHMARKS:
            source = BENCHMARKS[name].source
            sensitive = collect_table3(analyze_source(source), name)
            insensitive = collect_table3(
                analyze_source(
                    source, AnalysisOptions(context_sensitive=False)
                ),
                name,
            )
            lines.append(
                f"  {name:10s} sensitive={sensitive.average:.2f} "
                f"(1D={sensitive.one_definite.total}) "
                f"insensitive={insensitive.average:.2f} "
                f"(1D={insensitive.one_definite.total})"
            )
            assert insensitive.average >= sensitive.average - 1e-9, name
            assert (
                insensitive.one_definite.total <= sensitive.one_definite.total
            ), name
        return "\n".join(lines)

    text = benchmark.pedantic(run, rounds=1, iterations=1)
    write_artifact(artifact_dir, "ablation_context.txt", text)


def test_definite_information_share(benchmark, suite_analyses, artifact_dir):
    """How much of the computed information is definite — the paper's
    argument for computing D alongside P at no extra cost."""

    def run():
        lines = ["Definite vs possible relationship counts per benchmark:"]
        total_d = total_p = 0
        for name, result in sorted(suite_analyses.items()):
            definite, possible = count_definite(result)
            total_d += definite
            total_p += possible
            lines.append(f"  {name:10s} D={definite:6d} P={possible:6d}")
        share = 100.0 * total_d / max(1, total_d + total_p)
        lines.append(f"  overall definite share: {share:.1f}%")
        return "\n".join(lines), share

    (text, share) = benchmark.pedantic(run, rounds=1, iterations=1)
    write_artifact(artifact_dir, "ablation_definite.txt", text)
    assert share > 10.0


def test_subtree_sharing_hit_rate(benchmark, suite_analyses, artifact_dir):
    """The optimization Section 6 plans: how often do invocation-graph
    sub-trees share identical contexts on this suite?  The slice-keyed
    call memo is that sharing: one table per function, so a hit replays
    an analysis made under any sub-tree."""

    def run():
        lines = ["Sub-tree sharing (Section 6's planned optimization):"]
        total_hits = total_lookups = 0
        for name, result in sorted(suite_analyses.items()):
            hits = result.stats.slice_hits
            lookups = result.stats.slice_lookups
            total_hits += hits
            total_lookups += lookups
            lines.append(
                f"  {name:10s} slice_hits={hits:3d} "
                f"slice_lookups={lookups:3d}"
            )
        rate = 100.0 * total_hits / max(1, total_lookups)
        lines.append(
            f"  overall: {total_hits} of {total_lookups} slice-memo "
            f"lookups hit ({rate:.1f}%)"
        )
        return "\n".join(lines), total_hits

    text, hits = benchmark.pedantic(run, rounds=1, iterations=1)
    write_artifact(artifact_dir, "ablation_sharing.txt", text)
    assert hits > 0


def test_scalability_on_generated_programs(benchmark, artifact_dir):
    """Analysis cost versus program size on generated pointer programs
    (the paper's 'theoretically exponential, practical in practice'
    claim, stressed synthetically)."""

    def run():
        lines = ["Scalability on generated programs:"]
        for n_functions in (4, 8, 16):
            config = GeneratorConfig(n_functions=n_functions, n_stmts=10)
            sources = [generate_program(seed, config) for seed in range(3)]
            nodes = []
            for source in sources:
                result = analyze_source(source)
                nodes.append(result.ig.node_count())
            lines.append(
                f"  {n_functions:3d} functions: ig nodes {nodes}"
            )
        return "\n".join(lines)

    text = benchmark.pedantic(run, rounds=1, iterations=1)
    write_artifact(artifact_dir, "ablation_scalability.txt", text)
    assert "16 functions" in text
