"""Deep and long inputs: linear work, and a structured failure past
the recursion limits.

The count tests monkeypatch-count the work of each statement or
expression walk instead of timing it: parsing binary expressions,
typing a long sum, the side-effect and may-trap probes of a nested
``&&`` chain, the invocation graph's call-site scans, and the location
lookups and single-pair adds of the call boundary on ``fanout`` and
``relay``.
Each count is linear in the input, where the old walks were quadratic
or worse.

Inputs deeper than a recursive phase can follow must come back from
``handle_request`` as ``{"error": "too_deep", "phase": ...}``, and the
process must go on serving.
"""

from __future__ import annotations

import dataclasses
from collections import Counter

import pytest

from repro.benchsuite import PERF_BENCHMARKS
from repro.core import analysis, invocation_graph, locations, pointsto
from repro.core.analysis import TooDeepError, analyze_source
from repro.frontend import cast, parser
from repro.frontend.parser import parse
from repro.service.commands import SessionCache, handle_request
from repro.service.store import ResultStore
from repro.simple import simplify
from repro.simple.simplify import simplify_program, simplify_source

from tests.interp.test_golden_digests import corpus as golden_corpus


def chain_program(depth: int) -> str:
    """``main -> f1 -> ... -> f<depth>`` passing one pointer down."""
    parts = ["int g; int *gp;"]
    parts += [f"void f{i}(int *p);" for i in range(1, depth + 1)]
    for i in range(1, depth + 1):
        call = f"f{i + 1}(q);" if i < depth else "gp = q;"
        parts.append(f"void f{i}(int *p) {{ int *q; q = p; {call} }}")
    parts.append("int main() { f1(&g); END: return 0; }")
    return "\n".join(parts) + "\n"


def nested_program(depth: int) -> str:
    """``depth`` nested ifs around one pointer store."""
    body = "p = &a; INNER: q = p;"
    for level in range(depth):
        body = f"if (x > {level}) {{ {body} }}"
    return (
        "int a; int x;\n"
        f"int main() {{ int *p; int *q; p = 0; q = 0; x = {depth + 1}; "
        f"{body} END: return 0; }}\n"
    )


def sum_program(terms: int) -> str:
    """One expression of ``terms`` additions, then a pointer store."""
    total = " + ".join(f"v{i % 8}" for i in range(terms))
    return (
        "int v0, v1, v2, v3, v4, v5, v6, v7;\n"
        f"int main() {{ int s; int *p; s = {total}; p = &s; END: return 0; }}\n"
    )


def logical_chain_program(depth: int) -> str:
    """``a && (a && (... && a))``: ``depth`` operators, each right
    operand one parenthesized level deeper."""
    chain = "a"
    for _ in range(depth):
        chain = f"a && ({chain})"
    return (
        "int a;\n"
        f"int main() {{ int x; int *p; x = {chain}; p = &x; END: return 0; }}\n"
    )


def parens_program(depth: int) -> str:
    """One constant wrapped in ``depth`` pairs of parentheses."""
    return (
        "int main() { int x; x = " + "(" * depth + "1" + ")" * depth
        + "; END: return 0; }"
    )


def count_exprs(unit: cast.TranslationUnit) -> int:
    """Expression nodes in a translation unit (explicit stack)."""
    count = 0
    stack: list = [fn.body for fn in unit.functions]
    while stack:
        item = stack.pop()
        if isinstance(item, (list, tuple)):
            stack.extend(item)
        elif isinstance(item, cast.Node):
            count += isinstance(item, cast.Expr)
            stack.extend(
                getattr(item, f.name) for f in dataclasses.fields(item)
            )
    return count


def counting(monkeypatch, owner, name: str, key=lambda *args: None):
    """Wrap ``owner.name`` to count calls (by ``key(*args)``)."""
    calls: Counter = Counter()
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls[key(*args)] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


# ---------------------------------------------------------------------------
# Linear work
# ---------------------------------------------------------------------------


def test_stype_types_each_expression_once(monkeypatch):
    unit = parse(sum_program(400))
    nodes = count_exprs(unit)
    assert nodes > 800
    calls = counting(monkeypatch, simplify._FunctionSimplifier, "stype")
    simplify_program(unit)
    assert 0 < calls[None] <= 2 * nodes


def test_binary_expressions_parse_in_one_call_per_operator(monkeypatch):
    """Precedence climbing: one ``_parse_binary`` call per conditional
    expression plus one per binary operator.  On the cold-suite corpus
    (the golden corpus minus ``relay`` and ``fanout``), descending one
    call per precedence level per operand made 122,022 calls."""
    programs = [
        source for name, source in golden_corpus().items()
        if name not in PERF_BENCHMARKS
    ]
    assert len(programs) == 74
    calls = counting(monkeypatch, parser.Parser, "_parse_binary")
    for source in programs:
        parse(source)
    assert 0 < calls[None] <= 20_000


def test_logical_chain_probes_each_operand_once(monkeypatch):
    """``&&``/``||`` ask whether their right operand has side effects
    or may trap; the answer is kept per node, so a right-nested chain
    is probed in linear work, not 2n² calls."""
    depth = 100
    unit = parse(logical_chain_program(depth))
    calls = counting(monkeypatch, simplify._FunctionSimplifier, "hazards")
    program = simplify_program(unit)
    assert 0 < calls[None] <= 4 * depth + 10
    result = analysis.analyze(program)
    assert ("p", "x", "D") in result.triples_at("END")


def test_call_sites_listed_once_per_function(monkeypatch):
    calls = counting(
        monkeypatch,
        invocation_graph,
        "direct_call_sites",
        key=lambda fn: fn.name,
    )
    result = analyze_source(PERF_BENCHMARKS["relay"].source)
    functions = result.ig.functions_called() | {result.ig.root.func}
    assert result.ig.node_count() > 10 * len(functions)
    assert set(calls) == functions
    assert set(calls.values()) == {1}


def test_call_boundary_moves_rows_not_pairs(monkeypatch):
    """Map, slice split, memo-hit replay and unmap carry whole bitset
    rows: analyzing ``fanout`` and ``relay`` looks up a location id or
    adds a single pair a few thousand times at most (pair at a time,
    fanout made 135,478 ``id_of`` and 39,813 ``add`` calls, relay
    over 53,000 ``id_of`` calls)."""
    id_of = counting(monkeypatch, locations.LocTable, "id_of")
    add = counting(monkeypatch, pointsto.PointsToSet, "add")
    analyze_source(PERF_BENCHMARKS["fanout"].source)
    assert 0 < id_of[None] <= 10_000
    assert 0 < add[None] <= 1_000
    id_of.clear()
    analyze_source(PERF_BENCHMARKS["relay"].source)
    assert 0 < id_of[None] <= 6_000


def test_invocation_graph_of_a_long_chain():
    """The invocation graph is built and walked on explicit stacks: a
    2,000-function chain (far past the interpreter's recursion limit)
    gives 2,001 nodes, one per function, in chain order."""
    program = simplify_source(chain_program(2000))
    graph = invocation_graph.InvocationGraph(program)
    nodes = graph.nodes()
    assert len(nodes) == graph.node_count() == 2001
    assert [node.func for node in nodes] == ["main"] + [
        f"f{i}" for i in range(1, 2001)
    ]


def test_deep_parentheses_are_served(tmp_path):
    """A 100-deep parenthesized expression parses: the parser spends
    eight frames per level (about 122 levels fit the default stack)."""
    response = handle_request(
        {"source": parens_program(100), "query": "labels"},
        ResultStore(tmp_path),
        SessionCache(),
    )
    assert response["ok"] and set(response["result"]) == {"END"}


# ---------------------------------------------------------------------------
# Structured failure past the recursion limits
# ---------------------------------------------------------------------------

TOO_DEEP = [
    ("chain90", chain_program(90), "analyze"),
    ("nested175", nested_program(175), "analyze"),
    ("sum500", sum_program(500), "simplify"),
    ("parens400", parens_program(400), "parse"),
]


@pytest.mark.parametrize(
    "source,phase", [case[1:] for case in TOO_DEEP], ids=[c[0] for c in TOO_DEEP]
)
def test_too_deep_is_a_structured_error(tmp_path, source, phase):
    store = ResultStore(tmp_path)
    sessions = SessionCache()
    response = handle_request(
        {"source": source, "query": "labels"}, store, sessions
    )
    assert response == {"ok": False, "error": "too_deep", "phase": phase}
    # The process keeps serving: the next request succeeds.
    response = handle_request(
        {"source": nested_program(10), "query": "labels"}, store, sessions
    )
    assert response["ok"] and set(response["result"]) == {"END", "INNER"}


def test_deep_nesting_is_served(tmp_path):
    """140 nested ``if``s analyze: each compound statement costs the
    body walk a few stack frames (about 155 levels fit under pytest)."""
    response = handle_request(
        {"source": nested_program(140), "query": "labels"},
        ResultStore(tmp_path),
        SessionCache(),
    )
    assert response["ok"] and set(response["result"]) == {"END", "INNER"}


def test_too_deep_error_names_the_phase():
    with pytest.raises(TooDeepError) as info:
        analyze_source(sum_program(500))
    assert info.value.phase == "simplify"
    assert isinstance(info.value, RecursionError)
