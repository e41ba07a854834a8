"""Figure 2: invocation graph construction."""

import gc
import json
import random
from collections import Counter
from pathlib import Path

import pytest

from repro.benchsuite import PERF_BENCHMARKS
from repro.core.analysis import AnalysisOptions, Analyzer, analyze
from repro.core.invocation_graph import (
    GraphQueries,
    IGNode,
    IGNodeKind,
    InvocationGraph,
    call_site_count,
    direct_call_sites,
    indirect_call_sites,
    root_of_table,
    subtree_table,
)
from repro.service.gcpause import gc_paused
from repro.service.queries import QuerySession
from repro.service.serialize import (
    decode_analysis,
    encode_analysis,
    encode_analysis_bytes,
)
from repro.simple import simplify_source

from ..integration.test_deep_inputs import chain_program
from ..interp.test_golden_digests import corpus, flat_ig
from .test_funcptr import PROGRAMS as FUNCPTR_PROGRAMS


def build(source):
    return InvocationGraph(simplify_source(source))


class TestNonRecursive:
    # Figure 2(a): main calls f and g; g calls f from two chains.
    SOURCE = """
    void f(void) { }
    void g(void) { f(); }
    int main() { f(); g(); g(); return 0; }
    """

    def test_every_chain_is_a_unique_path(self):
        ig = build(self.SOURCE)
        paths = sorted("->".join(n.path()) for n in ig.nodes())
        assert paths == [
            "main",
            "main->f",
            "main->g",
            "main->g",
            "main->g->f",
            "main->g->f",
        ]

    def test_same_call_site_different_chains_distinct_nodes(self):
        ig = build(self.SOURCE)
        f_nodes = [n for n in ig.nodes() if n.func == "f"]
        assert len(f_nodes) == 3

    def test_no_recursive_or_approximate_nodes(self):
        ig = build(self.SOURCE)
        assert ig.count_kind(IGNodeKind.RECURSIVE) == 0
        assert ig.count_kind(IGNodeKind.APPROXIMATE) == 0

    def test_functions_called(self):
        ig = build(self.SOURCE)
        assert ig.functions_called() == {"f", "g"}


class TestSimpleRecursion:
    # Figure 2(b): main -> f -> f...
    SOURCE = """
    int f(int n) { if (n > 0) f(n - 1); return n; }
    int main() { return f(5); }
    """

    def test_recursive_and_approximate_pair(self):
        ig = build(self.SOURCE)
        assert ig.count_kind(IGNodeKind.RECURSIVE) == 1
        assert ig.count_kind(IGNodeKind.APPROXIMATE) == 1

    def test_back_edge_pairs_nodes(self):
        ig = build(self.SOURCE)
        approx = next(
            n for n in ig.nodes() if n.kind is IGNodeKind.APPROXIMATE
        )
        assert approx.rec_partner is not None
        assert approx.rec_partner.kind is IGNodeKind.RECURSIVE
        assert approx.rec_partner.func == approx.func == "f"

    def test_approximate_node_has_no_children(self):
        ig = build(self.SOURCE)
        approx = next(
            n for n in ig.nodes() if n.kind is IGNodeKind.APPROXIMATE
        )
        assert not approx.children


class TestMutualRecursion:
    # Figure 2(c): main -> f <-> g, with f also calling itself via g.
    SOURCE = """
    void g(void);
    void f(void) { g(); }
    void g(void) { f(); }
    int main() { f(); g(); return 0; }
    """

    def test_both_entry_points_expanded(self):
        ig = build(self.SOURCE)
        paths = sorted("->".join(n.path()) for n in ig.nodes())
        assert "main->f->g" in paths
        assert "main->g->f" in paths

    def test_cycle_terminates_with_approximate_nodes(self):
        ig = build(self.SOURCE)
        assert ig.count_kind(IGNodeKind.APPROXIMATE) == 2
        assert ig.count_kind(IGNodeKind.RECURSIVE) == 2

    def test_approximate_matches_nearest_ancestor(self):
        ig = build(self.SOURCE)
        for approx in ig.nodes():
            if approx.kind is not IGNodeKind.APPROXIMATE:
                continue
            assert approx.rec_partner in list(approx.ancestors())


class TestStructure:
    def test_missing_main_raises(self):
        with pytest.raises(ValueError):
            build("void f(void) { }")

    def test_external_calls_have_no_nodes(self):
        ig = build("int main() { printf(\"x\"); return 0; }")
        assert ig.node_count() == 1

    def test_call_site_count_includes_indirect(self):
        source = """
        void f(void) { }
        int main() {
            void (*fp)(void);
            fp = f;
            f();
            fp();
            printf("ignored");
            return 0;
        }
        """
        program = simplify_source(source)
        assert call_site_count(program) == 2

    def test_render_marks_recursion(self):
        ig = build(TestSimpleRecursion.SOURCE)
        text = ig.render()
        assert "(R)" in text and "(A)" in text

    def test_three_level_chain(self):
        source = """
        void c(void) { }
        void b(void) { c(); }
        void a(void) { b(); }
        int main() { a(); return 0; }
        """
        ig = build(source)
        assert "main->a->b->c" in {"->".join(n.path()) for n in ig.nodes()}

    def test_diamond_creates_two_subtrees(self):
        source = """
        void leaf(void) { }
        void left(void) { leaf(); }
        void right(void) { leaf(); }
        int main() { left(); right(); return 0; }
        """
        ig = build(source)
        leaf_nodes = [n for n in ig.nodes() if n.func == "leaf"]
        assert len(leaf_nodes) == 2


# ---------------------------------------------------------------------------
# Explicit-stack build and walk, against recursive references
# ---------------------------------------------------------------------------


def recursive_walk(node):
    yield node
    for site_children in node.children.values():
        for child in site_children.values():
            yield from recursive_walk(child)


def recursive_build(program, node):
    """The static graph under ``node`` as a recursive depth-first build
    makes it."""
    for site, callee in direct_call_sites(program.functions[node.func]):
        if callee not in program.functions:
            continue
        partner = next(
            (n for n in (node, *node.ancestors()) if n.func == callee), None
        )
        if partner is not None:
            partner.kind = IGNodeKind.RECURSIVE
            node.add_child(
                site,
                IGNode(callee, IGNodeKind.APPROXIMATE, rec_partner=partner),
            )
        else:
            recursive_build(program, node.add_child(site, IGNode(callee)))
    return node


def recursive_render(root):
    """``InvocationGraph.render`` as the recursive walk printed it."""
    lines = []

    def visit(node, depth):
        marker = ""
        if node.kind is IGNodeKind.RECURSIVE:
            marker = " (R)"
        elif node.kind is IGNodeKind.APPROXIMATE:
            marker = " (A)"
            if node.rec_partner is not None:
                marker += f" ~> {node.rec_partner.func}"
        lines.append("  " * depth + node.func + marker)
        for site in sorted(node.children):
            for child in node.children[site].values():
                visit(child, depth + 1)

    visit(root, 0)
    return "\n".join(lines)


def shape(node):
    """A subtree as nested (func, kind, partner, [(site, child)])."""
    partner = node.rec_partner.path() if node.rec_partner else None
    return (
        node.func,
        node.kind,
        partner,
        [
            (site, shape(child))
            for site, site_children in node.children.items()
            for child in site_children.values()
        ],
    )


def explicit_stack_programs():
    programs = dict(corpus())
    for path in sorted(Path(__file__).parents[2].glob("examples/*.c")):
        programs[path.name] = path.read_text()
    return programs


PROGRAMS = explicit_stack_programs()


def test_explicit_stack_corpus():
    assert len(PROGRAMS) == 78


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_build_and_walk_match_recursive_references(name):
    program = simplify_source(PROGRAMS[name])
    static = InvocationGraph(program)
    reference = recursive_build(program, IGNode("main"))
    assert shape(static.root) == shape(reference)
    assert list(static.root.walk()) == list(recursive_walk(static.root))
    assert static.render() == recursive_render(static.root)
    # After the analysis, with the function-pointer call sites bound.
    graph = analyze(program).ig
    assert list(graph.root.walk()) == list(recursive_walk(graph.root))
    assert graph.render() == recursive_render(graph.root)


def test_render_of_a_long_chain():
    """A 2,000-function chain renders one line per function, each one
    level deeper (the recursive walk runs out of stack long before)."""
    graph = InvocationGraph(simplify_source(chain_program(2000)))
    expected = ["main"] + [f"{'  ' * i}f{i}" for i in range(1, 2001)]
    assert graph.render() == "\n".join(expected)


# ---------------------------------------------------------------------------
# The lazy graph against the eager builder it replaced
# ---------------------------------------------------------------------------


def eager_attach(parent, site, callee):
    """The child for ``callee`` at ``site``, and whether it is new and
    still needs its subtree grown (the eager builder's ``_attach``)."""
    existing = parent.child(site, callee)
    if existing is not None:
        return existing, False
    partner = next(
        (n for n in (parent, *parent.ancestors()) if n.func == callee), None
    )
    if partner is not None:
        partner.kind = IGNodeKind.RECURSIVE
        node = IGNode(callee, IGNodeKind.APPROXIMATE, rec_partner=partner)
        return parent.add_child(site, node), False
    return parent.add_child(site, IGNode(callee)), True


def eager_build(program, node):
    """Every static context under ``node``, made at once depth-first on
    an explicit stack, each node's children before any grandchild."""
    stack = [node]
    while stack:
        parent = stack.pop()
        fresh = []
        for site, callee in direct_call_sites(program.functions[parent.func]):
            if callee not in program.functions:
                continue
            child, grow = eager_attach(parent, site, callee)
            if grow:
                fresh.append(child)
        stack.extend(reversed(fresh))
    return node


class EagerGraph(InvocationGraph):
    """The reference: every static context made before the analysis
    starts, and each function-pointer binding's subtree grown at once."""

    def __init__(self, program, root_func="main"):
        self.program = program
        self.root_func = root_func
        self.root = eager_build(program, IGNode(root_func))

    def attach_call(self, parent, call_site, callee):
        node, grow = eager_attach(parent, call_site, callee)
        if grow:
            eager_build(self.program, node)
        return node


def flat(root):
    """Every context in pre-order as ``(func, kind, partner position,
    [(site, child position), ...])``, children in insertion order."""
    nodes = list(root.walk())
    position = {id(node): i for i, node in enumerate(nodes)}
    return [
        (
            node.func,
            node.kind,
            position[id(node.rec_partner)] if node.rec_partner else -1,
            [
                (site, position[id(child)])
                for site, by_callee in node.children.items()
                for child in by_callee.values()
            ],
        )
        for node in nodes
    ]


def walked_answers(root, functions):
    """Counts and call-site answers from a full walk."""
    nodes = list(root.walk())
    sites, callers = {}, {}
    for node in nodes:
        for site, by_callee in node.children.items():
            sites.setdefault(site, set()).update(by_callee)
            for callee in by_callee:
                callers.setdefault(callee, set()).add(node.func)
    kinds = Counter(node.kind for node in nodes)
    return {
        "node_count": len(nodes),
        "kinds": {kind: kinds[kind] for kind in IGNodeKind},
        "functions_called": {node.func for node in nodes[1:]},
        "call_sites": sites,
        "callers": {func: callers.get(func, set()) for func in functions},
    }


def graph_answers(graph, functions):
    return {
        "node_count": graph.node_count(),
        "kinds": {kind: graph.count_kind(kind) for kind in IGNodeKind},
        "functions_called": graph.functions_called(),
        "call_sites": graph.call_sites(),
        "callers": {func: graph.callers_of(func) for func in functions},
    }


def session_answers(session, functions, sites):
    return (
        session.call_sites(),
        {site: session.callees_at(site) for site in sites},
        {func: session.callers_of(func) for func in functions},
    )


def call_graph_program(seed):
    """Five functions calling each other (and main) directly and
    through one function pointer, seeded."""
    rng = random.Random(seed)
    names = [f"f{i}" for i in range(5)]
    lines = ["int k;", "void (*fp)(void);"]
    lines += [f"void {name}(void);" for name in names]
    lines.append("int main();")
    for name in names:
        calls = []
        for _ in range(rng.randint(0, 2)):
            roll = rng.random()
            if roll < 0.2:
                calls.append(f"fp = {rng.choice(names)};")
            elif roll < 0.35:
                calls.append("if (k) { fp(); }")
            elif roll < 0.4:
                calls.append("if (k) { main(); }")
            else:
                calls.append(f"if (k) {{ {rng.choice(names)}(); }}")
        lines.append(f"void {name}(void) {{ {' '.join(calls)} }}")
    calls = " ".join(f"{rng.choice(names)}();" for _ in range(2))
    lines.append(f"int main() {{ fp = f0; {calls} fp(); return 0; }}")
    return "\n".join(lines) + "\n"


def equivalence_cases():
    cases = {name: (source, "precise") for name, source in corpus().items()}
    for name, source in FUNCPTR_PROGRAMS.items():
        for strategy in ("precise", "address_taken", "all_functions"):
            cases[f"funcptr-{name}-{strategy}"] = (source, strategy)
    for seed in range(24):
        cases[f"callgraph-s{seed}"] = (call_graph_program(seed), "precise")
    return cases


EQUIVALENCE = equivalence_cases()


@pytest.mark.parametrize("name", sorted(EQUIVALENCE))
def test_lazy_graph_matches_the_eager_builder(name):
    source, strategy = EQUIVALENCE[name]
    options = AnalysisOptions(function_pointer_strategy=strategy)
    eager_program = simplify_source(source)
    eager = Analyzer(
        eager_program, options, ig=EagerGraph(eager_program)
    ).run()
    analysis = Analyzer(simplify_source(source), options).run()
    functions = sorted(eager_program.functions)
    expected = walked_answers(eager.ig.root, functions)
    expected_flat = flat(eager.ig.root)
    sites = {site: sorted(c) for site, c in expected["call_sites"].items()}
    expected_session = (
        sites,
        sites,
        {func: sorted(expected["callers"][func]) for func in functions},
    )
    artifact = encode_analysis_bytes(analysis)
    decoded = decode_analysis(artifact)
    for graph, result in ((analysis.ig, analysis), (decoded.ig, decoded)):
        # The counts and call-site queries first, before any walk
        # creates the contexts the analysis never entered.
        assert graph_answers(graph, functions) == expected, name
        assert session_answers(
            QuerySession(result), functions, sorted(expected["call_sites"])
        ) == expected_session, name
        assert flat(graph.root) == expected_flat, name
        assert graph.render() == eager.ig.render(), name
        assert graph.to_dot() == eager.ig.to_dot(), name
        assert graph_answers(graph, functions) == expected, name
    # The v6 table spells the same contexts as the v5 node list, and
    # does not depend on which contexts exist.
    payload = json.loads(artifact)
    assert flat_ig(payload["ig"]) == [
        [func, kind.value, partner, [list(edge) for edge in edges]]
        for func, kind, partner, edges in expected_flat
    ], name
    assert encode_analysis_bytes(analysis) == artifact, name
    assert subtree_table(decoded.ig.root) == payload["ig"], name


def test_relay_creates_only_the_contexts_it_enters():
    """relay's tree has 5,301 contexts in 10 distinct subtrees; the
    analysis enters 249 of them, and a warm decode makes one."""

    def live_nodes():
        return sum(1 for obj in gc.get_objects() if type(obj) is IGNode)

    source = PERF_BENCHMARKS["relay"].source
    with gc_paused():
        before = live_nodes()
        analysis = analyze(simplify_source(source))
        created = live_nodes() - before
        assert analysis.ig.node_count() == 5301
        assert created <= 350
        payload = encode_analysis(analysis)
        assert len(payload["ig"]) == 10
        before = live_nodes()
        decoded = decode_analysis(json.dumps(payload))
        assert live_nodes() - before == 1
        assert decoded.ig.node_count() == 5301


def test_a_graph_builds_no_shape_until_its_root_is_read():
    """A detached ``context_tree`` (what an incremental splice's mini
    run flows) interns only its own function's shapes, not ``main``'s
    whole tree."""
    graph = InvocationGraph(simplify_source(PERF_BENCHMARKS["relay"].source))
    assert graph._builder is None
    graph.context_tree("ping")
    assert {func for func, _ in graph._builder._shapes} == {"ping"}
    root = graph.root
    assert root is graph.root and root.func == "main"
    assert graph.node_count() == 5301


def test_call_site_queries_index_the_graph_once(monkeypatch):
    """``callees_at`` and ``callers_of`` read one call-site index, made
    by a single visit of the distinct subtrees."""
    analysis = analyze(simplify_source(PERF_BENCHMARKS["relay"].source))
    visits = []
    distinct_subtrees = GraphQueries.distinct_subtrees

    def counted(self):
        visits.append(self)
        return distinct_subtrees(self)

    monkeypatch.setattr(GraphQueries, "distinct_subtrees", counted)
    session = QuerySession(analysis)
    site, callee = direct_call_sites(analysis.program.functions["main"])[0]
    assert session.callees_at(site) == [callee]
    assert session.callees_at(site) == [callee]
    assert "main" in session.callers_of(callee)
    assert len(visits) == 1


def test_call_site_index_follows_graph_changes():
    """A function-pointer binding through ``attach_call`` and a
    splice's ``renumber_sites`` each drop the index: answers name the
    new callees and sites."""
    source = """
    void f(void) { }
    void g(void) { }
    void (*fp)(void);
    int main() { f(); fp = g; fp(); return 0; }
    """
    graph = build(source)
    main = graph.program.functions["main"]
    ((direct, _),) = direct_call_sites(main)
    ((indirect, _),) = indirect_call_sites(main)
    assert graph.call_sites() == {direct: {"f"}}
    assert graph.callers_of("g") == set()
    graph.attach_call(graph.root, indirect, "g")
    assert graph.call_sites() == {direct: {"f"}, indirect: {"g"}}
    assert graph.callers_of("g") == {"main"}
    graph.renumber_sites({direct: direct + 100, indirect: indirect + 100})
    assert graph.call_sites() == {direct + 100: {"f"}, indirect + 100: {"g"}}
    assert graph.callers_of("f") == {"main"}


# ---------------------------------------------------------------------------
# Deep and wide shapes
# ---------------------------------------------------------------------------


def binary_tree_program(levels):
    """``main`` calls ``t1`` at two sites, ``t1`` calls ``t2`` at two,
    and so on: ``2**levels - 1`` contexts over ``levels`` functions."""
    parts = [f"void t{i}(void);" for i in range(1, levels)]
    for i in range(1, levels):
        calls = f"t{i + 1}(); t{i + 1}();" if i < levels - 1 else ""
        parts.append(f"void t{i}(void) {{ {calls} }}")
    parts.append("int main() { t1(); t1(); return 0; }")
    return "\n".join(parts) + "\n"


def round_trip(graph):
    table = subtree_table(graph.root)
    decoded = root_of_table(json.loads(json.dumps(table)))
    return table, decoded


def test_a_3000_function_chain_builds_counts_and_round_trips():
    graph = InvocationGraph(simplify_source(chain_program(3000)))
    assert graph.node_count() == 3001
    assert graph.count_kind(IGNodeKind.ORDINARY) == 3001
    assert len(graph.functions_called()) == 3000
    table, decoded = round_trip(graph)
    assert len(table) == 3001
    assert sum(1 for _ in decoded.walk()) == 3001
    assert subtree_table(decoded) == table


def test_a_16_level_binary_tree_is_16_subtrees():
    graph = InvocationGraph(simplify_source(binary_tree_program(16)))
    assert graph.node_count() == 65535
    assert graph.count_kind(IGNodeKind.ORDINARY) == 65535
    assert graph.call_sites() and graph.callers_of("t15") == {"t14"}
    table, decoded = round_trip(graph)
    assert len(table) == 16
    assert [func for func, _, _ in table] == ["main"] + [
        f"t{i}" for i in range(1, 16)
    ]
    assert sum(1 for _ in decoded.walk()) == 65535
    # Every context created, the table is still 16 entries.
    assert subtree_table(decoded) == table
