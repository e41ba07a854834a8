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
"""

from __future__ import annotations

import enum
import weakref
import zlib
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


class IGNode:
    """One procedure invocation context.

    The graph owns its nodes through ``children`` alone: the links back
    up the tree, ``parent`` and an approximate node's ``rec_partner``,
    are weak references.  A finished analysis is therefore a tree that
    reference counting frees as soon as its last user drops it; a
    back-link reads None once the ancestor it names is gone.
    """

    __slots__ = (
        "func", "kind", "_parent", "children", "_rec_partner",
        "stored_input", "stored_output", "memo", "pending_inputs",
        "in_progress", "map_info", "__weakref__",
    )

    def __init__(
        self,
        func: str,
        kind: IGNodeKind = IGNodeKind.ORDINARY,
        rec_partner: "IGNode | None" = None,
    ) -> None:
        self.func = func
        self.kind = kind
        self._parent: weakref.ref | None = None
        #: call-site id -> callee name -> child node.  Indirect
        #: call-sites may bind several callees; direct sites exactly one.
        self.children: dict[int, dict[str, IGNode]] = {}
        self._rec_partner: weakref.ref | None = None
        if rec_partner is not None:
            self.rec_partner = rec_partner
        # Memoization / fixed-point state (Figure 4).
        self.stored_input: PointsToSet | None = None
        self.stored_output: PointsToSet | None = None
        #: Ordinary-node memo table: input fingerprint -> output set.  A
        #: bounded generalization of Figure 4's single stored pair
        #: (insertion order is recency order; see repro.core.interproc).
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

    def child(self, call_site: int, callee: str) -> "IGNode | None":
        return self.children.get(call_site, {}).get(callee)

    def add_child(self, call_site: int, node: "IGNode") -> "IGNode":
        node._parent = weakref.ref(self)
        self.children.setdefault(call_site, {})[node.func] = node
        return node

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
        explicit stack, so chains of any depth)."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            for site_children in reversed(node.children.values()):
                stack.extend(reversed(site_children.values()))

    def __repr__(self) -> str:
        return f"<IGNode {'->'.join(self.path())} {self.kind.value}>"


class InvocationGraph:
    """The invocation graph of a program, rooted at ``main``."""

    def __init__(
        self,
        program: SimpleProgram,
        root_func: str = "main",
        build: bool = True,
    ):
        self.program = program
        self.root_func = root_func
        if root_func not in program.functions:
            raise ValueError(f"program has no '{root_func}' function")
        self.root = IGNode(root_func)
        self._sites_program: SimpleProgram | None = None
        if build:
            self._build(self.root)

    # -- construction ----------------------------------------------------

    def _build(self, node: IGNode) -> None:
        """Grow ``node``'s static subtree depth-first, on an explicit
        stack.  A node's children are all attached before any of them
        is expanded; the tree and every node's child order are the
        same as a recursive build's, because a node's shape depends
        only on its ancestor chain."""
        stack = [node]
        while stack:
            parent = stack.pop()
            fresh = []
            for call_site, callee in self._direct_sites(parent.func):
                if callee not in self.program.functions:
                    continue  # external functions have no invocation node
                child, expand = self._attach(parent, call_site, callee)
                if expand:
                    fresh.append(child)
            stack.extend(reversed(fresh))

    def _direct_sites(self, func: str) -> list[tuple[int, str]]:
        # Each function's body is walked once per program, however many
        # nodes it gets (an incremental splice swaps in a new program).
        if self._sites_program is not self.program:
            self._sites_program, self._call_sites = self.program, {}
        sites = self._call_sites.get(func)
        if sites is None:
            sites = self._call_sites[func] = direct_call_sites(
                self.program.functions[func]
            )
        return sites

    def attach_call(self, parent: IGNode, call_site: int, callee: str) -> IGNode:
        """Create (or return) the child node for ``callee`` at
        ``call_site`` under ``parent``, performing the recursion check
        against the ancestor chain.  Used both by the static builder
        and by the dynamic function-pointer expansion."""
        node, expand = self._attach(parent, call_site, callee)
        if expand:
            self._build(node)
        return node

    def _attach(
        self, parent: IGNode, call_site: int, callee: str
    ) -> tuple[IGNode, bool]:
        """The child node, and whether it is new and still needs its
        subtree built (approximate nodes have none)."""
        existing = parent.child(call_site, callee)
        if existing is not None:
            return existing, False
        partner = self._find_recursive_ancestor(parent, callee)
        if partner is not None:
            node = IGNode(callee, IGNodeKind.APPROXIMATE, rec_partner=partner)
            partner.kind = IGNodeKind.RECURSIVE
            parent.add_child(call_site, node)
            return node, False
        node = IGNode(callee)
        parent.add_child(call_site, node)
        return node, True

    @staticmethod
    def _find_recursive_ancestor(parent: IGNode, callee: str) -> IGNode | None:
        if parent.func == callee:
            return parent
        for ancestor in parent.ancestors():
            if ancestor.func == callee:
                return ancestor
        return None

    # -- queries -----------------------------------------------------------

    def nodes(self) -> list[IGNode]:
        return list(self.root.walk())

    def node_count(self) -> int:
        return sum(1 for _ in self.root.walk())

    def count_kind(self, kind: IGNodeKind) -> int:
        return sum(1 for node in self.root.walk() if node.kind is kind)

    def functions_called(self) -> set[str]:
        result = {
            node.func for node in self.root.walk() if node is not self.root
        }
        return result

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
