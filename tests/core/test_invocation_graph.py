"""Figure 2: invocation graph construction."""

from pathlib import Path

import pytest

from repro.core.analysis import analyze
from repro.core.invocation_graph import (
    IGNode,
    IGNodeKind,
    InvocationGraph,
    call_site_count,
    direct_call_sites,
)
from repro.simple import simplify_source

from ..integration.test_deep_inputs import chain_program
from ..interp.test_golden_digests import corpus


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
