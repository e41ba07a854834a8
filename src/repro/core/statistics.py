"""Metric collectors for the paper's evaluation (Tables 2-6).

Each ``collect_*`` function takes a finished
:class:`~repro.core.analysis.PointsToAnalysis` and returns a row
object mirroring one line of the corresponding table.  Pairs whose
target is NULL are excluded throughout, matching the paper's counting
rule ("points-to relationships contributed by [NULL initialization]
are not counted in the statistics").
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import obs
from repro.core.analysis import PointsToAnalysis
from repro.core.invocation_graph import IGNodeKind, call_site_count
from repro.core.locations import AbsLoc, LocKind
from repro.core.pointsto import D
from repro.core.provenance import chain_depth
from repro.core.transforms import (
    IndirectRef,
    find_pointer_replacements,
    indirect_references,
)
from repro.simple.ir import BasicStmt


# ---------------------------------------------------------------------------
# Table 2 — benchmark characteristics
# ---------------------------------------------------------------------------


@dataclass
class Table2Row:
    benchmark: str
    lines: int
    simple_stmts: int
    min_vars: int
    max_vars: int
    description: str = ""


def collect_table2(
    analysis: PointsToAnalysis, name: str, description: str = ""
) -> Table2Row:
    program = analysis.program
    per_function_vars: list[int] = []
    for fn in program.functions.values():
        locations: set[AbsLoc] = set()
        for stmt in fn.iter_stmts():
            info = analysis.at_stmt(stmt.stmt_id)
            if info is None:
                continue
            for src, tgt, _ in info.triples():
                locations.add(src)
                if not tgt.is_null:
                    locations.add(tgt)
        declared = len(fn.params) + len(fn.local_types)
        per_function_vars.append(max(len(locations), declared))
    if not per_function_vars:
        per_function_vars = [0]
    return Table2Row(
        benchmark=name,
        lines=program.source_lines,
        simple_stmts=program.count_basic_stmts(),
        min_vars=min(per_function_vars),
        max_vars=max(per_function_vars),
        description=description,
    )


# ---------------------------------------------------------------------------
# Table 3 — points-to statistics for indirect references
# ---------------------------------------------------------------------------


@dataclass
class FormPair:
    """Counts split by reference form: ``*x``-style vs ``x[i][j]``-style."""

    deref: int = 0
    array: int = 0

    def add(self, form: str) -> None:
        if form == "array":
            self.array += 1
        else:
            self.deref += 1

    @property
    def total(self) -> int:
        return self.deref + self.array

    def __str__(self) -> str:
        return f"{self.deref}/{self.array}"


@dataclass
class Table3Row:
    benchmark: str
    one_definite: FormPair = field(default_factory=FormPair)
    one_possible: FormPair = field(default_factory=FormPair)
    two: FormPair = field(default_factory=FormPair)
    three: FormPair = field(default_factory=FormPair)
    four_plus: FormPair = field(default_factory=FormPair)
    zero: FormPair = field(default_factory=FormPair)
    indirect_refs: int = 0
    scalar_replaceable: int = 0
    pairs_to_stack: int = 0
    pairs_to_heap: int = 0

    @property
    def pairs_total(self) -> int:
        return self.pairs_to_stack + self.pairs_to_heap

    @property
    def average(self) -> float:
        if self.indirect_refs == 0:
            return 0.0
        return self.pairs_total / self.indirect_refs

    @property
    def single_definite_fraction(self) -> float:
        if self.indirect_refs == 0:
            return 0.0
        return self.one_definite.total / self.indirect_refs

    @property
    def single_target_fraction(self) -> float:
        """Fraction with a single non-NULL target (the paper's 90.76%
        'should not be NULL when dereferenced' figure)."""
        if self.indirect_refs == 0:
            return 0.0
        singles = self.one_definite.total + self.one_possible.total
        return singles / self.indirect_refs


def collect_table3(analysis: PointsToAnalysis, name: str) -> Table3Row:
    row = Table3Row(benchmark=name)
    refs = indirect_references(analysis)
    row.indirect_refs = len(refs)
    row.scalar_replaceable = len(find_pointer_replacements(analysis))
    for ref in refs:
        bucket = _resolution_bucket(ref)
        bucket_field = {
            "1D": row.one_definite,
            "1P": row.one_possible,
            "2": row.two,
            "3": row.three,
            "4+": row.four_plus,
            "0": row.zero,
        }[bucket]
        bucket_field.add(ref.form)
        for target, _ in ref.targets:
            if target.is_heap:
                row.pairs_to_heap += 1
            else:
                row.pairs_to_stack += 1
    return row


def _resolution_bucket(ref: IndirectRef) -> str:
    count = len(ref.targets)
    if count == 0:
        return "0"
    if count == 1:
        return "1D" if ref.targets[0][1] is D else "1P"
    if count == 2:
        return "2"
    if count == 3:
        return "3"
    return "4+"


# ---------------------------------------------------------------------------
# Table 4 — categorization of pairs used by indirect references
# ---------------------------------------------------------------------------


@dataclass
class Table4Row:
    benchmark: str
    from_counts: dict[str, int] = field(
        default_factory=lambda: {"lo": 0, "gl": 0, "fp": 0, "sy": 0}
    )
    to_counts: dict[str, int] = field(
        default_factory=lambda: {"lo": 0, "gl": 0, "fp": 0, "sy": 0}
    )


_KIND_CATEGORY = {
    LocKind.LOCAL: "lo",
    LocKind.GLOBAL: "gl",
    LocKind.PARAM: "fp",
    LocKind.SYMBOLIC: "sy",
}


def collect_table4(analysis: PointsToAnalysis, name: str) -> Table4Row:
    """From/to categories of stack-targeted pairs used by indirect
    references.  The *from* side is the dereferenced pointer's
    location; the *to* side is the pointed-to stack location."""
    row = Table4Row(benchmark=name)
    for ref in indirect_references(analysis):
        env = analysis.env(ref.func)
        source = env.var_loc(ref.ref.base)
        for target, _ in ref.targets:
            if target.is_heap:
                continue
            from_cat = _KIND_CATEGORY.get(source.kind)
            to_cat = _KIND_CATEGORY.get(target.kind)
            if target.is_function:
                to_cat = "gl"  # function addresses are static (global)
            if from_cat:
                row.from_counts[from_cat] += 1
            if to_cat:
                row.to_counts[to_cat] += 1
    return row


# ---------------------------------------------------------------------------
# Table 5 — general points-to statistics
# ---------------------------------------------------------------------------


@dataclass
class Table5Row:
    benchmark: str
    stack_to_stack: int = 0
    stack_to_heap: int = 0
    heap_to_heap: int = 0
    heap_to_stack: int = 0
    statements: int = 0
    max_per_stmt: int = 0

    @property
    def total(self) -> int:
        return (
            self.stack_to_stack
            + self.stack_to_heap
            + self.heap_to_heap
            + self.heap_to_stack
        )

    @property
    def average(self) -> float:
        if self.statements == 0:
            return 0.0
        return self.total / self.statements


def collect_table5(analysis: PointsToAnalysis, name: str) -> Table5Row:
    """Sum of pairs valid at each statement of the simplified program,
    classified by source/target memory region (NULL pairs excluded;
    function-location targets count as stack — they are named static
    locations)."""
    row = Table5Row(benchmark=name)
    for fn in analysis.program.functions.values():
        for stmt in fn.iter_stmts():
            if not isinstance(stmt, BasicStmt):
                continue
            info = analysis.at_stmt(stmt.stmt_id)
            if info is None:
                continue
            row.statements += 1
            valid = 0
            for src, tgt, _ in info.triples():
                if tgt.is_null:
                    continue
                valid += 1
                if src.is_heap and tgt.is_heap:
                    row.heap_to_heap += 1
                elif src.is_heap:
                    row.heap_to_stack += 1
                elif tgt.is_heap:
                    row.stack_to_heap += 1
                else:
                    row.stack_to_stack += 1
            row.max_per_stmt = max(row.max_per_stmt, valid)
    return row


# ---------------------------------------------------------------------------
# Table 6 — invocation graph statistics
# ---------------------------------------------------------------------------


@dataclass
class Table6Row:
    benchmark: str
    ig_nodes: int = 0
    call_sites: int = 0
    functions: int = 0
    recursive_nodes: int = 0
    approximate_nodes: int = 0

    @property
    def avg_per_call_site(self) -> float:
        """(nodes - 1) / call-sites — each non-root node is one
        invocation of some call-site."""
        if self.call_sites == 0:
            return 0.0
        return (self.ig_nodes - 1) / self.call_sites

    @property
    def avg_per_function(self) -> float:
        if self.functions == 0:
            return 0.0
        return self.ig_nodes / self.functions


def collect_table6(analysis: PointsToAnalysis, name: str) -> Table6Row:
    ig = analysis.ig
    return Table6Row(
        benchmark=name,
        ig_nodes=ig.node_count(),
        call_sites=call_site_count(analysis.program),
        functions=len(ig.functions_called()),
        recursive_nodes=ig.count_kind(IGNodeKind.RECURSIVE),
        approximate_nodes=ig.count_kind(IGNodeKind.APPROXIMATE),
    )


# ---------------------------------------------------------------------------
# Precision dashboard (definite/possible ratios, invisible variables,
# derivation-depth profile)
# ---------------------------------------------------------------------------


@dataclass
class FunctionPrecision:
    """Definite/possible pair counts over one function's statements.

    Counted like Table 5 — every non-NULL pair valid at every basic
    statement — so a pair that stays definite across ten statements
    weighs ten, which is exactly the exposure an optimizer sees."""

    function: str
    definite: int = 0
    possible: int = 0
    invisible_vars: int = 0  # distinct symbolic names in this scope

    @property
    def pairs(self) -> int:
        return self.definite + self.possible

    @property
    def definite_ratio(self) -> float:
        pairs = self.pairs
        return self.definite / pairs if pairs else 0.0

    def as_dict(self) -> dict:
        return {
            "function": self.function,
            "definite": self.definite,
            "possible": self.possible,
            "definite_ratio": round(self.definite_ratio, 4),
            "invisible_vars": self.invisible_vars,
        }


@dataclass
class PrecisionRow:
    """The precision dashboard of one analysis run.

    The structural half (per-function definite/possible ratios,
    invisible-variable counts, approximate/recursive invocation-graph
    nodes) is always available; the derivation half (Figure 1
    kill/gen/weaken classification and the witness-depth profile)
    needs the run's :class:`~repro.core.provenance.ProvenanceLog` and
    is ``None`` without one.
    """

    benchmark: str
    functions: list[FunctionPrecision] = field(default_factory=list)
    invisible_vars: int = 0
    approximate_nodes: int = 0
    recursive_nodes: int = 0
    #: Provenance-backed (None when the run did not record):
    records: int | None = None
    class_counts: dict | None = None
    kill_count: int | None = None
    #: Exact depth -> chain count over every live (src, tgt) pair.
    depth_counts: dict[int, int] | None = None
    #: ``repro.obs.Histogram`` summary of the same depths (count /
    #: mean / min / max plus the log-scale buckets).
    depth_histogram: dict | None = None

    @property
    def definite(self) -> int:
        return sum(fn.definite for fn in self.functions)

    @property
    def possible(self) -> int:
        return sum(fn.possible for fn in self.functions)

    @property
    def definite_ratio(self) -> float:
        total = self.definite + self.possible
        return self.definite / total if total else 0.0

    def as_dict(self) -> dict:
        result = {
            "benchmark": self.benchmark,
            "functions": [fn.as_dict() for fn in self.functions],
            "definite": self.definite,
            "possible": self.possible,
            "definite_ratio": round(self.definite_ratio, 4),
            "invisible_vars": self.invisible_vars,
            "approximate_nodes": self.approximate_nodes,
            "recursive_nodes": self.recursive_nodes,
        }
        if self.records is not None:
            result["records"] = self.records
            result["class_counts"] = self.class_counts
            result["kill_count"] = self.kill_count
            result["depth_counts"] = {
                str(depth): count
                for depth, count in sorted(self.depth_counts.items())
            }
            result["depth_histogram"] = self.depth_histogram
        return result


def collect_precision(analysis: PointsToAnalysis, name: str) -> PrecisionRow:
    """The precision dashboard: how definite the result is, where the
    invisible-variable abstraction concentrates, and — when the run
    recorded provenance — how deep the derivation chains run."""
    row = PrecisionRow(benchmark=name)
    for fn_name in sorted(analysis.program.functions):
        fn = analysis.program.functions[fn_name]
        entry = FunctionPrecision(function=fn_name)
        symbolics: set[AbsLoc] = set()
        for stmt in fn.iter_stmts():
            if not isinstance(stmt, BasicStmt):
                continue
            info = analysis.at_stmt(stmt.stmt_id)
            if info is None:
                continue
            for src, tgt, definiteness in info.triples():
                if tgt.is_null:
                    continue
                if definiteness is D:
                    entry.definite += 1
                else:
                    entry.possible += 1
                for loc in (src, tgt):
                    if loc.kind is LocKind.SYMBOLIC:
                        symbolics.add(loc)
        entry.invisible_vars = len(symbolics)
        row.functions.append(entry)
    row.invisible_vars = sum(fn.invisible_vars for fn in row.functions)
    ig = analysis.ig
    row.approximate_nodes = ig.count_kind(IGNodeKind.APPROXIMATE)
    row.recursive_nodes = ig.count_kind(IGNodeKind.RECURSIVE)

    log = getattr(analysis, "provenance", None)
    if log is not None:
        row.records = len(log.records)
        row.class_counts = log.class_counts()
        row.kill_count = log.kill_count
        depth_counts: dict[int, int] = {}
        histogram = obs.Histogram()
        for key in log.latest:
            depth = chain_depth(log, key)
            depth_counts[depth] = depth_counts.get(depth, 0) + 1
            histogram.observe(float(depth))
        row.depth_counts = depth_counts
        row.depth_histogram = histogram.as_dict()
    return row


# ---------------------------------------------------------------------------
# Performance counters (memo tables, recursion truncation, set sizes)
# ---------------------------------------------------------------------------


@dataclass
class QueryStats:
    """Per-session demand-query counters (one
    :class:`~repro.service.queries.QuerySession` each), surfaced
    through :func:`collect_perf` alongside the analysis counters."""

    counts: dict[str, int] = field(default_factory=dict)

    def record(self, kind: str) -> None:
        self.counts[kind] = self.counts.get(kind, 0) + 1

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def as_dict(self) -> dict:
        return {
            "total": self.total,
            "counts": dict(sorted(self.counts.items())),
        }


@dataclass
class PerfRow:
    """Per-run performance counters: invocation-graph memo-table
    traffic plus the points-to-set size peak, reported alongside the
    wall-clock timings of ``benchmarks/bench_perf.py``.  When the run
    served demand queries or consulted the result store, those
    counters ride along too."""

    benchmark: str
    statements: int = 0
    memo_hits: int = 0
    memo_misses: int = 0
    memo_evictions: int = 0
    recursion_truncations: int = 0
    peak_triples: int = 0
    #: Per-function {hits, misses, hit_rate} over that function's
    #: invocation nodes (``MemoStats.per_function_rates()``).
    memo_per_function: dict = field(default_factory=dict)
    #: Slice-keyed memo traffic: lookups that used a reachable-slice
    #: key, how many hit, and the summed key/passthrough pair counts
    #: (from which the average slice size falls out).
    slice_hits: int = 0
    slice_lookups: int = 0
    slice_key_pairs: int = 0
    slice_passthrough_pairs: int = 0
    #: ``QueryStats.as_dict()`` of the serving session, when any.
    query_stats: dict | None = None
    #: ``StoreStats.as_dict()`` of the result store, when one was used.
    store_stats: dict | None = None
    #: ``Tracer.snapshot()`` of the run's tracer, when the caller
    #: passed an active one as ``tracer=``.
    metrics: dict | None = None
    #: Table 3 headline precision fractions, when the caller passed
    #: the run's ``table3=`` (the benchmark report does; collecting
    #: Table 3 scans every point, which a perf row otherwise skips).
    single_definite_fraction: float | None = None
    single_target_fraction: float | None = None

    @property
    def memo_lookups(self) -> int:
        return self.memo_hits + self.memo_misses

    @property
    def memo_hit_rate(self) -> float:
        lookups = self.memo_lookups
        return self.memo_hits / lookups if lookups else 0.0

    @property
    def slice_hit_rate(self) -> float:
        return (
            self.slice_hits / self.slice_lookups if self.slice_lookups else 0.0
        )

    @property
    def avg_slice_key_pairs(self) -> float:
        return (
            self.slice_key_pairs / self.slice_lookups
            if self.slice_lookups
            else 0.0
        )

    @property
    def avg_slice_passthrough_pairs(self) -> float:
        return (
            self.slice_passthrough_pairs / self.slice_lookups
            if self.slice_lookups
            else 0.0
        )

    def as_dict(self) -> dict:
        result = {
            "benchmark": self.benchmark,
            "statements": self.statements,
            "memo_hits": self.memo_hits,
            "memo_misses": self.memo_misses,
            "memo_evictions": self.memo_evictions,
            "memo_hit_rate": round(self.memo_hit_rate, 4),
            "memo_per_function": self.memo_per_function,
            "slice": {
                "hits": self.slice_hits,
                "lookups": self.slice_lookups,
                "hit_rate": round(self.slice_hit_rate, 4),
                "avg_key_pairs": round(self.avg_slice_key_pairs, 2),
                "avg_passthrough_pairs": round(
                    self.avg_slice_passthrough_pairs, 2
                ),
            },
            "recursion_truncations": self.recursion_truncations,
            "peak_triples": self.peak_triples,
        }
        if self.query_stats is not None:
            result["queries"] = self.query_stats
        if self.store_stats is not None:
            result["store"] = self.store_stats
        if self.metrics is not None:
            result["metrics"] = self.metrics
        if self.single_definite_fraction is not None:
            result["single_definite_fraction"] = round(
                self.single_definite_fraction, 4
            )
        if self.single_target_fraction is not None:
            result["single_target_fraction"] = round(
                self.single_target_fraction, 4
            )
        return result


def collect_perf(
    analysis: PointsToAnalysis,
    name: str,
    queries: QueryStats | None = None,
    store=None,
    tracer=None,
    table3: Table3Row | None = None,
) -> PerfRow:
    """Performance counters of one run.

    Accepts a live :class:`~repro.core.analysis.PointsToAnalysis` or a
    decoded cached result (which has no program — its statement count
    travels in the payload).  ``queries`` is a session's
    :class:`QueryStats`; ``store`` a service
    :class:`~repro.service.store.ResultStore` (anything exposing
    ``stats.as_dict()``); ``tracer`` a
    :class:`~repro.obs.Tracer` whose counter/gauge/histogram snapshot
    should ride along in the row's ``metrics`` block; ``table3`` the
    run's :class:`Table3Row`, from which the headline precision
    fractions (single-definite, single-target) ride along in the
    benchmark report.
    """
    stats = analysis.stats
    peak = max(
        (len(info) for info in analysis.point_info.values() if info is not None),
        default=0,
    )
    program = getattr(analysis, "program", None)
    if program is not None:
        statements = program.count_basic_stmts()
    else:
        statements = getattr(analysis, "statements", 0)
    return PerfRow(
        benchmark=name,
        statements=statements,
        memo_hits=stats.hits,
        memo_misses=stats.misses,
        memo_evictions=stats.evictions,
        recursion_truncations=stats.recursion_truncations,
        peak_triples=peak,
        memo_per_function=stats.per_function_rates(),
        slice_hits=stats.slice_hits,
        slice_lookups=stats.slice_lookups,
        slice_key_pairs=stats.slice_key_pairs,
        slice_passthrough_pairs=stats.slice_passthrough_pairs,
        query_stats=queries.as_dict() if queries is not None else None,
        store_stats=(
            store.stats.as_dict() if store is not None else None
        ),
        metrics=(
            tracer.snapshot()
            if tracer is not None and tracer.enabled
            else None
        ),
        single_definite_fraction=(
            table3.single_definite_fraction if table3 is not None else None
        ),
        single_target_fraction=(
            table3.single_target_fraction if table3 is not None else None
        ),
    )


# ---------------------------------------------------------------------------
# Suite-level summary (the headline percentages of Section 6)
# ---------------------------------------------------------------------------


@dataclass
class SuiteSummary:
    total_indirect_refs: int = 0
    total_pairs_used: int = 0
    total_one_definite: int = 0
    total_single_target: int = 0
    total_scalar_replaceable: int = 0
    total_pairs_to_heap: int = 0

    @property
    def overall_average(self) -> float:
        if self.total_indirect_refs == 0:
            return 0.0
        return self.total_pairs_used / self.total_indirect_refs

    @property
    def pct_definite_single(self) -> float:
        if self.total_indirect_refs == 0:
            return 0.0
        return 100.0 * self.total_one_definite / self.total_indirect_refs

    @property
    def pct_scalar_replaceable(self) -> float:
        if self.total_indirect_refs == 0:
            return 0.0
        return 100.0 * self.total_scalar_replaceable / self.total_indirect_refs

    @property
    def pct_single_target(self) -> float:
        if self.total_indirect_refs == 0:
            return 0.0
        return 100.0 * self.total_single_target / self.total_indirect_refs

    @property
    def pct_heap_pairs(self) -> float:
        if self.total_pairs_used == 0:
            return 0.0
        return 100.0 * self.total_pairs_to_heap / self.total_pairs_used


def summarize_suite(rows: list[Table3Row]) -> SuiteSummary:
    summary = SuiteSummary()
    for row in rows:
        summary.total_indirect_refs += row.indirect_refs
        summary.total_pairs_used += row.pairs_total
        summary.total_one_definite += row.one_definite.total
        summary.total_single_target += (
            row.one_definite.total + row.one_possible.total
        )
        summary.total_scalar_replaceable += row.scalar_replaceable
        summary.total_pairs_to_heap += row.pairs_to_heap
    return summary
