"""Invocation graphs (Section 4, Figure 2).

Every procedure invocation chain from ``main`` is a unique path in the
graph.  Recursion is approximated with matched pairs of *recursive*
and *approximate* nodes: the depth-first construction stops when a
function name repeats on the chain from ``main``; the leaf becomes an
approximate node whose back-edge identifies its recursive partner.

Indirect (function-pointer) call-sites cannot be bound statically, so
the builder leaves them *incomplete*; :mod:`repro.core.funcptr`
completes them during the analysis (Section 5), using exactly the same
recursion check against the ancestor chain.

The tree grows exponentially with call depth but has few distinct
subtrees: a node's static subtree depends only on its function and on
which of its ancestors' functions that subtree can reach.  So the
graph is kept as interned, immutable subtree *shapes*
(:class:`IGShape`), and a calling context (:class:`IGNode`) is created
only when something reads its parent's ``children``: the analysis
enters it, or a caller walks the tree.  Counting, the call-site queries
and the artifact encoding visit each distinct subtree once
(:class:`GraphQueries`); only :meth:`IGNode.walk` and the renderings
visit every context.
"""

from __future__ import annotations

import enum
import weakref
import zlib
from functools import cached_property
from typing import Iterator

from repro.core.pointsto import PointsToSet
from repro.simple.ir import BasicKind, BasicStmt, SimpleFunction, SimpleProgram


class IGNodeKind(enum.Enum):
    ORDINARY = "ordinary"
    RECURSIVE = "recursive"
    APPROXIMATE = "approximate"

    def __init__(self, value: str) -> None:
        self._crc = zlib.crc32(value.encode())

    # Content hash, not the default object-id hash: keeps iteration
    # order of kind-keyed containers identical across runs (see
    # LocKind.__hash__).  Computed once per member: the update path
    # hashes kinds tens of thousands of times per splice.
    def __hash__(self) -> int:
        return self._crc


#: The kinds as plain module globals, for hot paths (see ``LocKind``'s
#: aliases in repro.core.locations).
ORDINARY_NODE = IGNodeKind.ORDINARY
RECURSIVE_NODE = IGNodeKind.RECURSIVE
APPROXIMATE_NODE = IGNodeKind.APPROXIMATE


#: The empty ancestor context (a root's, or a function outside every
#: call cycle).
_NO_ANCESTORS: frozenset = frozenset()


class IGShape:
    """One distinct invocation subtree: its root's function and kind
    and, per call site, the shapes of the callees bound there, in the
    order the builder attaches them.

    Shapes are shared by every context with that subtree and refer only
    to their children, never to a node or a graph; once built they do
    not change.
    """

    __slots__ = ("func", "kind", "sites", "_totals")

    def __init__(
        self,
        func: str,
        kind: IGNodeKind,
        sites: tuple[tuple[int, tuple["IGShape", ...]], ...] = (),
    ) -> None:
        self.func = func
        self.kind = kind
        #: ``((call_site, (callee shape, ...)), ...)``
        self.sites = sites
        self._totals: tuple[int, int, int] | None = None

    def totals(self) -> tuple[int, int, int]:
        """``(nodes, recursive nodes, approximate nodes)`` of the
        subtree, computed once per shape, bottom-up on an explicit
        stack."""
        if self._totals is None:
            stack = [self]
            while stack:
                shape = stack[-1]
                if shape._totals is not None:
                    stack.pop()
                    continue
                pending = [
                    callee
                    for _, callees in shape.sites
                    for callee in callees
                    if callee._totals is None
                ]
                if pending:
                    stack.extend(pending)
                    continue
                stack.pop()
                nodes = 1
                recursive = int(shape.kind is RECURSIVE_NODE)
                approximate = int(shape.kind is APPROXIMATE_NODE)
                for _, callees in shape.sites:
                    for callee in callees:
                        n, r, a = callee._totals  # type: ignore[misc]
                        nodes += n
                        recursive += r
                        approximate += a
                shape._totals = (nodes, recursive, approximate)
        return self._totals  # type: ignore[return-value]


class IGNode:
    """One procedure invocation context.

    The graph owns its nodes through ``children`` alone: the links back
    up the tree, ``parent`` and an approximate node's ``rec_partner``,
    are weak references.  A finished analysis is therefore a tree that
    reference counting frees as soon as its last user drops it; a
    back-link reads None once the ancestor it names is gone.

    A node made from a shape creates all of its children from that
    shape the first time ``children`` is read.  While the node keeps
    its shape, its whole subtree is exactly that shape; a node whose
    subtree departs from it (a function-pointer child, an ancestor
    turned recursive) drops the shape, and so do its ancestors.
    """

    __slots__ = (
        "func", "kind", "_parent", "_children", "_shape", "_rec_partner",
        "stored_input", "stored_output", "memo", "pending_inputs",
        "in_progress", "map_info", "__weakref__",
    )

    def __init__(
        self,
        func: str,
        kind: IGNodeKind = IGNodeKind.ORDINARY,
        rec_partner: "IGNode | None" = None,
        shape: IGShape | None = None,
    ) -> None:
        self.func = func
        self.kind = kind
        self._parent: weakref.ref | None = None
        self._shape = shape
        #: call-site id -> callee name -> child node (None until made
        #: from the shape).  Indirect call-sites may bind several
        #: callees; direct sites exactly one.
        self._children: dict[int, dict[str, IGNode]] | None = (
            None if shape is not None else {}
        )
        self._rec_partner: weakref.ref | None = None
        if rec_partner is not None:
            self.rec_partner = rec_partner
        # Memoization / fixed-point state (Figure 4).
        self.stored_input: PointsToSet | None = None
        self.stored_output: PointsToSet | None = None
        #: Ordinary-node memo table: input fingerprint -> output set.  A
        #: bounded generalization of Figure 4's single stored pair
        #: (insertion order is recency order), for calls the slice memo
        #: does not serve (see repro.core.interproc).
        self.memo: dict[frozenset, PointsToSet] = {}
        self.pending_inputs: list[PointsToSet] = []
        #: True while the recursive fixed point for this node is running.
        self.in_progress = False
        #: Map information deposited by the mapping process (Section
        #: 4.1): symbolic-name root -> caller location roots it
        #: represents.
        self.map_info: dict | None = None

    @property
    def parent(self) -> "IGNode | None":
        ref = self._parent
        return ref() if ref is not None else None

    @property
    def rec_partner(self) -> "IGNode | None":
        """For APPROXIMATE nodes: the matching RECURSIVE ancestor."""
        ref = self._rec_partner
        return ref() if ref is not None else None

    @rec_partner.setter
    def rec_partner(self, node: "IGNode | None") -> None:
        self._rec_partner = weakref.ref(node) if node is not None else None

    @property
    def children(self) -> dict[int, dict[str, "IGNode"]]:
        children = self._children
        if children is None:
            children = self._children = self._expand()
        return children

    def _expand(self) -> dict[int, dict[str, "IGNode"]]:
        """This context's children, made from its shape."""
        children: dict[int, dict[str, IGNode]] = {}
        ref = weakref.ref(self)
        for site, shapes in self._shape.sites:  # type: ignore[union-attr]
            by_callee: dict[str, IGNode] = {}
            children[site] = by_callee
            for shape in shapes:
                child = IGNode(shape.func, shape.kind, shape=shape)
                if shape.kind is APPROXIMATE_NODE:
                    child.rec_partner = self._nearest(shape.func)
                child._parent = ref
                by_callee[shape.func] = child
        return children

    def _nearest(self, func: str) -> "IGNode | None":
        """This node or its nearest ancestor running ``func``."""
        if self.func == func:
            return self
        for ancestor in self.ancestors():
            if ancestor.func == func:
                return ancestor
        return None

    def child(self, call_site: int, callee: str) -> "IGNode | None":
        by_callee = self.children.get(call_site)
        return by_callee.get(callee) if by_callee is not None else None

    def add_child(self, call_site: int, node: "IGNode") -> "IGNode":
        self._leave_shape()
        node._parent = weakref.ref(self)
        self.children.setdefault(call_site, {})[node.func] = node
        return node

    def _leave_shape(self) -> None:
        """Drop the shape of this node and of its ancestors, whose
        subtrees are about to depart from them; each keeps the
        children its shape made."""
        node: IGNode | None = self
        while node is not None and node._shape is not None:
            node.children
            node._shape = None
            node = node.parent

    def ancestors(self) -> Iterator["IGNode"]:
        node = self.parent
        while node is not None:
            yield node
            node = node.parent

    def path(self) -> list[str]:
        names = [self.func]
        for ancestor in self.ancestors():
            names.append(ancestor.func)
        return list(reversed(names))

    def walk(self) -> Iterator["IGNode"]:
        """The subtree in pre-order, children in insertion order (an
        explicit stack, so chains of any depth).  Creates every context
        it reaches."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            for site_children in reversed(node.children.values()):
                stack.extend(reversed(site_children.values()))

    def __repr__(self) -> str:
        return f"<IGNode {'->'.join(self.path())} {self.kind.value}>"


# ---------------------------------------------------------------------------
# Distinct subtrees
# ---------------------------------------------------------------------------


def _unit(node: IGNode):
    shape = node._shape
    return node if shape is None else shape


def _unit_sites(unit) -> tuple:
    """``((call_site, (callee unit, ...)), ...)`` of a unit."""
    if type(unit) is IGShape:
        return unit.sites
    return tuple(
        (site, tuple(_unit(child) for child in by_callee.values()))
        for site, by_callee in unit._children.items()
    )


def subtree_table(root: IGNode) -> list:
    """The graph under ``root`` as each distinct subtree once:
    ``[func, kind, [[call_site, [child entry ids]], ...]]`` in the
    pre-order of first appearance (entry 0 is the root).

    Subtrees are told apart by content, not by shape object, so the
    table is the same whichever contexts were created.  An approximate
    node's partner is implied: its nearest ancestor running the same
    function.
    """
    # Content numbers, bottom-up over the distinct units.
    number_of: dict[int, int] = {}
    numbers: dict[tuple, int] = {}
    contents: list[tuple] = []
    stack: list[tuple] = [(_unit(root), None)]
    while stack:
        unit, sites = stack.pop()
        if id(unit) in number_of:
            continue
        if sites is None:
            sites = _unit_sites(unit)
            stack.append((unit, sites))
            stack.extend(
                (callee, None)
                for _, callees in sites
                for callee in callees
                if id(callee) not in number_of
            )
            continue
        content = (
            unit.func,
            unit.kind.value,
            tuple(
                (site, tuple(number_of[id(callee)] for callee in callees))
                for site, callees in sites
            ),
        )
        number = numbers.get(content)
        if number is None:
            number = numbers[content] = len(contents)
            contents.append(content)
        number_of[id(unit)] = number
    # Entry ids in pre-order of first appearance: a subtree seen before
    # brings nothing new below it, so its children are not revisited.
    position: dict[int, int] = {}
    order = [number_of[id(_unit(root))]]
    while order:
        number = order.pop()
        if number in position:
            continue
        position[number] = len(position)
        for _, callees in reversed(contents[number][2]):
            order.extend(reversed(callees))
    entries: list = [None] * len(position)
    for number, entry_id in position.items():
        func, kind, sites = contents[number]
        entries[entry_id] = [
            func,
            kind,
            [
                [site, [position[callee] for callee in callees]]
                for site, callees in sites
            ],
        ]
    return entries


def root_of_table(entries: list) -> IGNode:
    """The lazy graph a :func:`subtree_table` describes: one shape per
    entry, and a root node made from the first."""
    shapes = [IGShape(func, IGNodeKind(kind)) for func, kind, _ in entries]
    for shape, (_, _, sites) in zip(shapes, entries):
        shape.sites = tuple(
            (site, tuple(shapes[callee] for callee in callees))
            for site, callees in sites
        )
    return IGNode(shapes[0].func, shapes[0].kind, shape=shapes[0])


class GraphQueries:
    """Read-only queries over the graph under ``self.root``, shared by
    live and decoded graphs.  The counts and call-site queries visit
    each distinct subtree once and create no context; ``nodes``,
    ``render`` and ``to_dot`` walk (and so create) every one."""

    root: IGNode
    #: ``(call site -> callees, callee -> callers)``, made on first use
    #: and dropped whenever the graph changes (see :meth:`_call_maps`).
    _calls: tuple | None = None

    def nodes(self) -> list[IGNode]:
        return list(self.root.walk())

    def _totals(self) -> tuple[int, int, int]:
        nodes = recursive = approximate = 0
        stack = [self.root]
        while stack:
            node = stack.pop()
            shape = node._shape
            if shape is not None:
                n, r, a = shape.totals()
            else:
                n = 1
                r = int(node.kind is RECURSIVE_NODE)
                a = int(node.kind is APPROXIMATE_NODE)
                for by_callee in node._children.values():  # type: ignore[union-attr]
                    stack.extend(by_callee.values())
            nodes += n
            recursive += r
            approximate += a
        return nodes, recursive, approximate

    def node_count(self) -> int:
        return self._totals()[0]

    def count_kind(self, kind: IGNodeKind) -> int:
        nodes, recursive, approximate = self._totals()
        if kind is RECURSIVE_NODE:
            return recursive
        if kind is APPROXIMATE_NODE:
            return approximate
        return nodes - recursive - approximate

    def distinct_subtrees(self) -> Iterator[tuple]:
        """``(func, kind, ((call_site, (callee, ...)), ...))`` of each
        distinct subtree once, the root's first."""
        seen: set[int] = set()
        stack = [_unit(self.root)]
        while stack:
            unit = stack.pop()
            if id(unit) in seen:
                continue
            seen.add(id(unit))
            sites = _unit_sites(unit)
            yield unit.func, unit.kind, tuple(
                (site, tuple(callee.func for callee in callees))
                for site, callees in sites
            )
            for _, callees in reversed(sites):
                stack.extend(reversed(callees))

    def functions_called(self) -> set[str]:
        subtrees = self.distinct_subtrees()
        next(subtrees)  # the root is called only if it recurs below
        return {func for func, _, _ in subtrees}

    def _call_maps(self) -> tuple[dict[int, set[str]], dict[str, set[str]]]:
        """``(call site -> callees bound there, callee -> callers)`` over
        every context, from one visit of the distinct subtrees.  Kept
        until the graph next changes: ``attach_call`` binding a new
        callee, or ``renumber_sites``."""
        maps = self._calls
        if maps is None:
            bound: dict[int, set[str]] = {}
            callers: dict[str, set[str]] = {}
            for caller, _, sites in self.distinct_subtrees():
                for site, callees in sites:
                    bound.setdefault(site, set()).update(callees)
                    for callee in callees:
                        callers.setdefault(callee, set()).add(caller)
            maps = self._calls = (bound, callers)
        return maps

    def call_sites(self) -> dict[int, set[str]]:
        """call-site id -> every callee bound there in some context
        (shared; do not mutate)."""
        return self._call_maps()[0]

    def callers_of(self, func: str) -> set[str]:
        """Functions with an edge into ``func`` in some context."""
        return set(self._call_maps()[1].get(func, ()))

    def call_graph(self) -> dict[str, set[str]]:
        """Function -> the functions it calls in some context, for
        every function with a context."""
        graph: dict[str, set[str]] = {}
        for func, _, sites in self.distinct_subtrees():
            bucket = graph.setdefault(func, set())
            for _, callees in sites:
                bucket.update(callees)
        return graph

    def to_dot(self) -> str:
        """Graphviz rendering: tree edges solid, the approximate-to-
        recursive back-edges dashed (the Figure 2 pairing edges)."""
        lines = [
            "digraph invocation_graph {",
            "  node [shape=box, fontname=monospace];",
        ]
        ids: dict[int, str] = {}
        for index, node in enumerate(self.root.walk()):
            ids[id(node)] = f"n{index}"
            label = node.func
            attrs = ""
            if node.kind is IGNodeKind.RECURSIVE:
                label += " (R)"
                attrs = ", peripheries=2"
            elif node.kind is IGNodeKind.APPROXIMATE:
                label += " (A)"
                attrs = ", style=dashed"
            lines.append(f'  {ids[id(node)]} [label="{label}"{attrs}];')
        for node in self.root.walk():
            for site, children in sorted(node.children.items()):
                for child in children.values():
                    lines.append(
                        f"  {ids[id(node)]} -> {ids[id(child)]} "
                        f'[label="s{site}"];'
                    )
        for node in self.root.walk():
            if node.kind is IGNodeKind.APPROXIMATE and node.rec_partner:
                partner_id = ids.get(id(node.rec_partner))
                if partner_id is not None:
                    lines.append(
                        f"  {ids[id(node)]} -> {partner_id} "
                        "[style=dashed, constraint=false];"
                    )
        lines.append("}")
        return "\n".join(lines)

    def render(self) -> str:
        """ASCII rendering of the graph (Figure 2 style): one line per
        node in pre-order, children by call site, indented by depth.
        Walked on an explicit stack, so a call chain of any depth
        renders."""
        lines: list[str] = []
        stack = [(self.root, 0)]
        while stack:
            node, depth = stack.pop()
            marker = ""
            if node.kind is IGNodeKind.RECURSIVE:
                marker = " (R)"
            elif node.kind is IGNodeKind.APPROXIMATE:
                marker = " (A)"
                if node.rec_partner is not None:
                    marker += f" ~> {node.rec_partner.func}"
            lines.append("  " * depth + node.func + marker)
            children = [
                child
                for site in sorted(node.children)
                for child in node.children[site].values()
            ]
            stack.extend((child, depth + 1) for child in reversed(children))
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------


class _ShapeBuilder:
    """The subtree shapes of one program.

    The static subtree of a context running ``f`` is fixed by ``f`` and
    by its *context* ``K``: the functions on its ancestor chain that
    ``f`` can reach through direct calls.  Those decide which callees
    below become approximate, and so which nodes become recursive.  An
    ancestor linked to ``f`` by direct calls also reaches ``f``, so it
    is in ``K`` exactly when it shares ``f``'s strongly connected
    component of the direct-call graph.  Only the ancestors of a
    function-pointer call need the reachability of other components,
    which is computed for those alone.
    """

    def __init__(self, program: SimpleProgram) -> None:
        self.program = program
        self._sites: dict[str, tuple[tuple[int, str], ...]] = {}
        #: function -> its component's representative (a member).
        self._component: dict[str, str] = {}
        #: component -> the components reachable from it.
        self._reach: dict[str, frozenset[str]] = {}
        self._shapes: dict[tuple[str, frozenset], IGShape] = {}
        #: (func, K) -> functions of the approximate nodes in the
        #: subtree whose partner lies above its root.
        self._open: dict[tuple[str, frozenset], frozenset] = {}
        self._approximate: dict[str, IGShape] = {}

    def sites(self, func: str) -> tuple[tuple[int, str], ...]:
        """``(call_site, callee)`` for the direct calls of ``func`` to
        defined functions (external functions have no context).  Each
        body is scanned once per program."""
        sites = self._sites.get(func)
        if sites is None:
            functions = self.program.functions
            sites = self._sites[func] = tuple(
                (site, callee)
                for site, callee in direct_call_sites(functions[func])
                if callee in functions
            )
        return sites

    def component(self, func: str) -> str:
        found = self._component.get(func)
        if found is None:
            self._tarjan(func)
            found = self._component[func]
        return found

    def _tarjan(self, start: str) -> None:
        """Assign the components reachable from ``start`` (Tarjan's
        algorithm on an explicit stack)."""
        done = self._component
        index = {start: 0}
        low = {start: 0}
        members = [start]
        open_members = {start}
        work = [(start, iter(self.sites(start)))]
        while work:
            func, calls = work[-1]
            for _, callee in calls:
                if callee in done:
                    continue
                if callee not in index:
                    index[callee] = low[callee] = len(index)
                    members.append(callee)
                    open_members.add(callee)
                    work.append((callee, iter(self.sites(callee))))
                    break
                if callee in open_members and index[callee] < low[func]:
                    low[func] = index[callee]
            else:
                work.pop()
                if work:
                    caller = work[-1][0]
                    if low[func] < low[caller]:
                        low[caller] = low[func]
                if low[func] == index[func]:
                    while True:
                        member = members.pop()
                        open_members.discard(member)
                        done[member] = func
                        if member == func:
                            break

    def _reaches(self, component: str) -> frozenset[str]:
        """The components reachable from ``component`` (itself too)."""
        reach = self._reach.get(component)
        if reach is None:
            seen = {component}
            stack = [component]
            while stack:
                for _, callee in self.sites(stack.pop()):
                    if callee not in seen:
                        seen.add(callee)
                        stack.append(callee)
            reach = self._reach[component] = frozenset(
                self.component(func) for func in seen
            )
        return reach

    def context(self, func: str, ancestors) -> frozenset:
        """``K`` of a context running ``func`` below ``ancestors`` (the
        functions on its chain, none of them ``func``)."""
        reach = self._reaches(self.component(func))
        return frozenset(
            ancestor
            for ancestor in ancestors
            if self.component(ancestor) in reach
        )

    def _child_context(
        self, func: str, context: frozenset, callee: str
    ) -> frozenset:
        """``K`` of ``callee`` called from a context ``(func, context)``:
        the members of ``context | {func}`` that ``callee`` reaches."""
        target = self.component(callee)
        source = self.component(func)
        if not context:
            return frozenset((func,)) if source == target else _NO_ANCESTORS
        kept = []
        for ancestor in (*context, func):
            component = self.component(ancestor)
            # Nothing in func's own component is reachable from a
            # callee outside it, or that callee would be in it too.
            if component == target or (
                component != source and component in self._reaches(target)
            ):
                kept.append(ancestor)
        return frozenset(kept)

    def partners_above(self, func: str, context: frozenset) -> frozenset:
        """The functions of the approximate nodes in the subtree of
        ``shape(func, context)`` whose partners lie above its root."""
        self.shape(func, context)
        return self._open[(func, context)]

    def approximate(self, func: str) -> IGShape:
        shape = self._approximate.get(func)
        if shape is None:
            shape = self._approximate[func] = IGShape(func, APPROXIMATE_NODE)
        return shape

    def shape(self, func: str, context: frozenset) -> IGShape:
        """The shape of a context running ``func`` with ancestors
        ``context``, building it and the shapes below it bottom-up on an
        explicit stack."""
        shapes = self._shapes
        found = shapes.get((func, context))
        if found is not None:
            return found
        plans: dict[tuple, list] = {}
        stack = [(func, context)]
        while stack:
            key = stack[-1]
            if key in shapes:
                stack.pop()
                continue
            plan = plans.get(key)
            if plan is None:
                plan = plans[key] = self._plan(*key)
                pending = [
                    child
                    for _, _, child in plan
                    if child is not None and child not in shapes
                ]
                if pending:
                    stack.extend(pending)
                    continue
            stack.pop()
            del plans[key]
            self._finish(key, plan)
        return shapes[(func, context)]

    def _plan(self, func: str, context: frozenset) -> list:
        """``(call_site, callee, child key or None if approximate)``
        per direct call of ``func``, in the order they are attached."""
        plan = []
        for site, callee in self.sites(func):
            if callee == func or callee in context:
                plan.append((site, callee, None))
            else:
                plan.append(
                    (site, callee,
                     (callee, self._child_context(func, context, callee)))
                )
        return plan

    def _finish(self, key: tuple, plan: list) -> None:
        func = key[0]
        sites = []
        above: set[str] = set()
        for site, callee, child in plan:
            if child is None:
                shape = self.approximate(callee)
                above.add(callee)
            else:
                shape = self._shapes[child]
                above.update(self._open[child])
            sites.append((site, (shape,)))
        kind = RECURSIVE_NODE if func in above else ORDINARY_NODE
        above.discard(func)
        self._open[key] = frozenset(above)
        self._shapes[key] = IGShape(func, kind, tuple(sites))


class InvocationGraph(GraphQueries):
    """The invocation graph of a program, rooted at ``main``."""

    def __init__(self, program: SimpleProgram, root_func: str = "main"):
        self.program = program
        self.root_func = root_func
        if root_func not in program.functions:
            raise ValueError(f"program has no '{root_func}' function")
        self._builder: _ShapeBuilder | None = None

    @cached_property
    def root(self) -> IGNode:
        """The context of the entry function, made on first read (an
        incremental splice's mini run only needs detached
        :meth:`context_tree` contexts)."""
        return self.context_tree(self.root_func)

    def _shapes(self) -> _ShapeBuilder:
        # An incremental splice swaps in a new program: its shapes
        # start afresh.
        builder = self._builder
        if builder is None or builder.program is not self.program:
            builder = self._builder = _ShapeBuilder(self.program)
        return builder

    def context_tree(self, func: str) -> IGNode:
        """A parentless context running ``func`` with its static
        subtree (what a call with no ancestors would get)."""
        shape = self._shapes().shape(func, _NO_ANCESTORS)
        return IGNode(func, shape.kind, shape=shape)

    def attach_call(self, parent: IGNode, call_site: int, callee: str) -> IGNode:
        """Return the child node for ``callee`` at ``call_site`` under
        ``parent``, creating it if needed with the recursion check
        against the ancestor chain (the function-pointer expansion
        binds indirect sites this way)."""
        existing = parent.child(call_site, callee)
        if existing is not None:
            return existing
        partner = parent._nearest(callee)
        if partner is not None:
            node = IGNode(callee, APPROXIMATE_NODE, rec_partner=partner)
            # The partner is the parent or an ancestor: it leaves its
            # shape below, with the whole chain up to the root.
            partner.kind = RECURSIVE_NODE
        else:
            ancestors = {parent.func}
            ancestors.update(node.func for node in parent.ancestors())
            builder = self._shapes()
            context = builder.context(callee, ancestors)
            shape = builder.shape(callee, context)
            node = IGNode(callee, shape.kind, shape=shape)
            # The subtree's approximate nodes whose partners lie above
            # it turn those partners recursive now, as if made at once.
            for func in builder.partners_above(callee, context):
                parent._nearest(func).kind = RECURSIVE_NODE  # type: ignore[union-attr]
        parent.add_child(call_site, node)
        self._calls = None
        return node

    def renumber_sites(self, site_map: dict[int, int]) -> None:
        """Rename every call site through ``site_map`` (an incremental
        splice moves statement ids).  Each distinct shape is remapped
        once and every existing context keeps its (remapped) shape, so
        no context is created."""
        self._calls = None
        remapped: dict[int, IGShape] = {}
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node._shape is not None:
                node._shape = _remap_shape(node._shape, site_map, remapped)
            children = node._children
            if children is not None:
                node._children = {
                    site_map[site]: by_callee
                    for site, by_callee in children.items()
                }
                for by_callee in children.values():
                    stack.extend(by_callee.values())


def _remap_shape(
    shape: IGShape, site_map: dict[int, int], remapped: dict[int, IGShape]
) -> IGShape:
    """``shape`` with its call sites renamed through ``site_map``,
    memoized by shape identity in ``remapped`` and built bottom-up on an
    explicit stack."""
    stack = [shape]
    while stack:
        top = stack[-1]
        if id(top) in remapped:
            stack.pop()
            continue
        pending = [
            callee
            for _, callees in top.sites
            for callee in callees
            if id(callee) not in remapped
        ]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        copy = IGShape(
            top.func,
            top.kind,
            tuple(
                (site_map[site], tuple(remapped[id(c)] for c in callees))
                for site, callees in top.sites
            ),
        )
        copy._totals = top._totals
        remapped[id(top)] = copy
    return remapped[id(shape)]


def direct_call_sites(fn: SimpleFunction) -> list[tuple[int, str]]:
    """(call_site, callee) for every direct call in ``fn``."""
    result = []
    for stmt in fn.iter_stmts():
        if (
            isinstance(stmt, BasicStmt)
            and stmt.kind is BasicKind.CALL
            and stmt.callee is not None
        ):
            assert stmt.call_site is not None
            result.append((stmt.call_site, stmt.callee))
    return result


def indirect_call_sites(fn: SimpleFunction) -> list[tuple[int, str]]:
    """(call_site, function-pointer variable) for indirect calls."""
    result = []
    for stmt in fn.iter_stmts():
        if (
            isinstance(stmt, BasicStmt)
            and stmt.kind is BasicKind.CALL
            and stmt.callee_ptr is not None
        ):
            assert stmt.call_site is not None
            result.append((stmt.call_site, stmt.callee_ptr))
    return result


def call_site_count(program: SimpleProgram) -> int:
    """Number of syntactic call-sites to analyzed functions plus
    indirect call-sites (Table 6's 'call sites' column)."""
    count = 0
    for fn in program.functions.values():
        for stmt in fn.iter_stmts():
            if isinstance(stmt, BasicStmt) and stmt.kind is BasicKind.CALL:
                if stmt.callee is not None and stmt.callee not in program.functions:
                    continue
                count += 1
    return count
