"""Connection-matrix heap analysis (the paper's companion analysis).

The points-to analysis deliberately folds all dynamic storage into the
single ``heap`` location and defers heap *structure* to "a series of
practical approximations ... from simple connection matrices that
approximate the connectivity of nodes" (Section 8; Ghiya's ACAPS TR).
This module implements the simplest member of that family on top of a
finished points-to analysis:

Two heap-directed pointers ``p`` and ``q`` are **connected** at a
program point if they may point into the *same* connected heap data
structure.  Disconnected pointers can never alias through the heap and
their structures can be processed in parallel — the client the paper's
Section 6.1 anticipates.

Transfer functions (after Ghiya & Hendren):

* ``p = malloc()``       — p starts its own fresh structure;
* ``p = q``, ``p = q->f``— p joins q's structure;
* ``p->f = q``           — the structures of p and q merge;
* ``p = NULL`` / stack   — p leaves the heap domain;
* calls                  — handled conservatively: the structures of
  every heap-directed actual, global, and returned pointer may be
  linked by the callee, except for callees the points-to results show
  to be heap-inert.

The analysis reuses the compositional machinery (same loop fixed
points, same merge discipline) and resolves indirect references with
the per-point points-to information.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.core.analysis import PointsToAnalysis
from repro.core.env import FuncEnv
from repro.core.locations import GLOBAL_KIND, PARAM_KIND, SYMBOLIC_KIND, AbsLoc
from repro.core.lvalues import l_locations, r_locations_ref
from repro.core.pointsto import D, PointsToSet
from repro.simple.ir import (
    ALLOC_KIND,
    CALL_KIND,
    NOP_KIND,
    AddrOf,
    BasicStmt,
    Ref,
    SBlock,
    SBreak,
    SContinue,
    SDoWhile,
    SFor,
    SIf,
    SReturn,
    SSwitch,
    SWhile,
    Stmt,
)


class ConnectionMatrix:
    """A symmetric may-connection relation over heap-directed
    pointer locations.  Membership in ``_members`` means "currently
    heap-directed"; every member is implicitly connected to itself."""

    __slots__ = ("_pairs", "_members")

    def __init__(self) -> None:
        self._pairs: set[frozenset] = set()
        self._members: set[AbsLoc] = set()

    # -- construction -----------------------------------------------------

    def copy(self) -> "ConnectionMatrix":
        out = ConnectionMatrix()
        out._pairs = set(self._pairs)
        out._members = set(self._members)
        return out

    # -- mutation ----------------------------------------------------------

    def enter(self, loc: AbsLoc) -> None:
        self._members.add(loc)

    def leave(self, loc: AbsLoc) -> None:
        """Remove ``loc`` from the heap domain (it no longer points
        into the heap)."""
        self._members.discard(loc)
        self._pairs = {pair for pair in self._pairs if loc not in pair}

    def connect(self, a: AbsLoc, b: AbsLoc) -> None:
        self._members.add(a)
        self._members.add(b)
        if a != b:
            self._pairs.add(frozenset((a, b)))

    def connections_of(self, loc: AbsLoc) -> set[AbsLoc]:
        if loc not in self._members:
            return set()
        result = {loc}
        for pair in self._pairs:
            if loc in pair:
                result |= pair
        return result

    def join_structure(self, target: AbsLoc, source: AbsLoc) -> None:
        """``target = source``-style transfer: target joins source's
        structure (strongly: target's old connections were killed by
        the caller first)."""
        for other in self.connections_of(source):
            self.connect(target, other)

    def merge_structures(self, a: AbsLoc, b: AbsLoc) -> None:
        """``a->f = b``-style transfer: everything connected to a may
        now reach everything connected to b."""
        conn_a = self.connections_of(a)
        conn_b = self.connections_of(b)
        for x in conn_a:
            for y in conn_b:
                self.connect(x, y)

    # -- queries ------------------------------------------------------------

    def connected(self, a: AbsLoc, b: AbsLoc) -> bool:
        if a == b:
            return a in self._members
        return frozenset((a, b)) in self._pairs

    def members(self) -> set[AbsLoc]:
        return set(self._members)

    def pair_count(self) -> int:
        return len(self._pairs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ConnectionMatrix):
            return NotImplemented
        return self._pairs == other._pairs and self._members == other._members

    def __hash__(self):
        raise TypeError("ConnectionMatrix is unhashable")

    def merge(self, other: "ConnectionMatrix") -> "ConnectionMatrix":
        out = ConnectionMatrix()
        out._pairs = self._pairs | other._pairs
        out._members = self._members | other._members
        return out

    def __str__(self) -> str:
        names = sorted(str(m) for m in self._members)
        pairs = sorted(
            "{%s}" % ",".join(sorted(str(x) for x in pair))
            for pair in self._pairs
        )
        return f"members={{{', '.join(names)}}} pairs={pairs}"


def merge_all_matrices(
    items: Iterable["ConnectionMatrix | None"],
) -> "ConnectionMatrix | None":
    result = None
    for item in items:
        if item is None:
            continue
        result = item if result is None else result.merge(item)
    return result


@dataclass
class _Flow:
    out: ConnectionMatrix | None
    breaks: list = field(default_factory=list)
    continues: list = field(default_factory=list)
    returns: ConnectionMatrix | None = None


class HeapConnectionAnalysis:
    """Per-function connection matrices, computed over the finished
    points-to analysis (which supplies per-point indirect-reference
    resolution and the set of heap-directed locations)."""

    MAX_ITERATIONS = 100

    def __init__(self, analysis: PointsToAnalysis):
        self.analysis = analysis
        self.program = analysis.program
        #: stmt_id -> merged ConnectionMatrix before the statement.
        self.point_info: dict[int, ConnectionMatrix] = {}
        self._heap_inert: dict[str, bool] = {}

    # -- helpers -----------------------------------------------------------

    def pts_at(self, stmt: Stmt) -> PointsToSet | None:
        return self.analysis.at_stmt(stmt.stmt_id)

    def _points_into_heap(
        self, loc: AbsLoc, pts: PointsToSet
    ) -> bool:
        return any(t.is_heap for t, _ in pts.targets_of(loc))

    def function_is_heap_inert(self, name: str) -> bool:
        """A callee is heap-inert if no statement of it (or anything it
        calls, transitively through the points-to-resolved call graph)
        touches a heap-directed pointer."""
        cached = self._heap_inert.get(name)
        if cached is not None:
            return cached
        self._heap_inert[name] = True  # provisional (recursion)
        inert = self._compute_heap_inert(name, set())
        self._heap_inert[name] = inert
        return inert

    def _compute_heap_inert(self, name: str, visiting: set[str]) -> bool:
        if name in visiting:
            return True
        visiting.add(name)
        fn = self.program.functions.get(name)
        if fn is None:
            return True  # externals: modeled effects only
        for stmt in fn.iter_stmts():
            pts = self.pts_at(stmt)
            if pts is not None:
                for src, tgt, _ in pts.triples():
                    if tgt.is_heap or src.is_heap:
                        return False
            if not isinstance(stmt, BasicStmt):
                continue
            if stmt.kind is ALLOC_KIND:
                return False
            if stmt.kind is CALL_KIND:
                if stmt.callee is None:
                    return False  # indirect call: unknown effects
                if not self._compute_heap_inert(stmt.callee, visiting):
                    return False
        return True

    # -- per-function run ------------------------------------------------------

    def analyze_function(self, name: str) -> ConnectionMatrix | None:
        """Run the connection analysis over one function; entry state
        connects every pair of heap-directed inputs (formals/globals
        may arrive pointing into the same structure)."""
        fn = self.program.functions[name]
        env = self.analysis.env(name)
        entry = ConnectionMatrix()
        entry_pts = self._entry_points_to(fn)
        if entry_pts is not None:
            incoming = [
                loc
                for loc in entry_pts.sources()
                if loc.kind in (PARAM_KIND, GLOBAL_KIND, SYMBOLIC_KIND)
                and self._points_into_heap(loc, entry_pts)
            ]
            for i, a in enumerate(incoming):
                for b in incoming[i:]:
                    entry.connect(a, b)
        flow = self._process(fn.body, entry, env)
        return merge_all_matrices([flow.out, flow.returns])

    def _entry_points_to(self, fn) -> PointsToSet | None:
        for stmt in fn.iter_stmts():
            if isinstance(stmt, BasicStmt):
                return self.pts_at(stmt)
        return None

    def analyze_all(self) -> None:
        for name in self.program.functions:
            self.analyze_function(name)

    # -- flow ---------------------------------------------------------------

    def _record(self, stmt: Stmt, state: ConnectionMatrix) -> None:
        existing = self.point_info.get(stmt.stmt_id)
        if existing is None:
            self.point_info[stmt.stmt_id] = state  # never changed later
        else:
            self.point_info[stmt.stmt_id] = existing.merge(state)

    def _process(self, stmt: Stmt, state, env) -> _Flow:
        if state is None:
            return _Flow(None)
        if isinstance(stmt, SBlock):
            # Every basic statement sits in a block: the loop transfers
            # it in place, without a _Flow of its own.
            flow = _Flow(state)
            current = state
            for child in stmt.stmts:
                if current is None:
                    break  # the rest of the block is unreachable
                if isinstance(child, BasicStmt):
                    self._record(child, current)
                    current = self._process_basic(child, current, env)
                    continue
                step = self._process(child, current, env)
                flow.breaks.extend(step.breaks)
                flow.continues.extend(step.continues)
                if step.returns is not None:
                    flow.returns = merge_all_matrices(
                        [flow.returns, step.returns]
                    )
                current = step.out
            flow.out = current
            return flow
        if not isinstance(stmt, (SBreak, SContinue)):
            self._record(stmt, state)
        if isinstance(stmt, SIf):
            then_flow = self._process(stmt.then_block, state, env)
            if stmt.else_block is not None:
                else_flow = self._process(stmt.else_block, state, env)
                else_out = else_flow.out
            else:
                else_flow = _Flow(None)
                else_out = state
            flow = _Flow(merge_all_matrices([then_flow.out, else_out]))
            flow.breaks = then_flow.breaks + else_flow.breaks
            flow.continues = then_flow.continues + else_flow.continues
            flow.returns = merge_all_matrices(
                [then_flow.returns, else_flow.returns]
            )
            return flow
        if isinstance(stmt, (SWhile, SDoWhile, SFor)):
            return self._process_loop(stmt, state, env)
        if isinstance(stmt, SSwitch):
            return self._process_switch(stmt, state, env)
        if isinstance(stmt, SBreak):
            return _Flow(None, breaks=[state])
        if isinstance(stmt, SContinue):
            return _Flow(None, continues=[state])
        if isinstance(stmt, SReturn):
            return _Flow(None, returns=state)
        raise TypeError(type(stmt).__name__)

    def _process_loop(self, stmt, state, env) -> _Flow:
        result = _Flow(None)
        current = state
        if isinstance(stmt, SFor):
            # The initializer runs once, before the loop's fixed point.
            init = self._process(stmt.init, state, env)
            result.returns = init.returns
            current = init.out
        exits: list = []
        for _ in range(self.MAX_ITERATIONS):
            exits = []
            if isinstance(stmt, SDoWhile):
                body = self._process(stmt.body, current, env)
                exits.extend(body.breaks)
                cont = merge_all_matrices([body.out] + body.continues)
                evald = self._process(stmt.cond_eval, cont, env)
                back = evald.out
                if stmt.cond is not None and evald.out is not None:
                    exits.append(evald.out)
            else:
                evald = self._process(stmt.cond_eval, current, env)
                after = evald.out
                if stmt.cond is not None and after is not None:
                    exits.append(after)
                body = self._process(stmt.body, after, env)
                exits.extend(body.breaks)
                back_in = merge_all_matrices([body.out] + body.continues)
                if isinstance(stmt, SFor):
                    stepped = self._process(stmt.step, back_in, env)
                    back = stepped.out
                else:
                    back = back_in
            result.returns = merge_all_matrices(
                [result.returns, body.returns, evald.returns]
            )
            new_state = merge_all_matrices([current, back])
            if _matrices_equal(new_state, current):
                break
            current = new_state
        result.out = merge_all_matrices(exits) if exits else None
        return result

    def _process_switch(self, stmt: SSwitch, state, env) -> _Flow:
        result = _Flow(None)
        exits = []
        fall = None
        for case in stmt.cases:
            arm_in = merge_all_matrices([state, fall])
            arm = self._process(case.body, arm_in, env)
            result.continues.extend(arm.continues)
            result.returns = merge_all_matrices([result.returns, arm.returns])
            exits.extend(arm.breaks)
            if case.falls_through:
                fall = arm.out
            else:
                if arm.out is not None:
                    exits.append(arm.out)
                fall = None
        if fall is not None:
            exits.append(fall)
        if not stmt.has_default:
            exits.append(state)
        result.out = merge_all_matrices(exits)
        return result

    # -- transfer functions -------------------------------------------------------

    def _process_basic(
        self, stmt: BasicStmt, state: ConnectionMatrix, env: FuncEnv
    ) -> ConnectionMatrix:
        pts = self.pts_at(stmt)
        if pts is None:
            return state
        # Matrices are never changed once a transfer returns them, so a
        # statement that connects nothing passes its state on as is.
        kind = stmt.kind
        if kind is ALLOC_KIND:
            out = state.copy()
            self._assign_fresh(stmt, out, pts, env)
            return out
        if kind is CALL_KIND:
            out = state.copy()
            self._process_call(stmt, out, pts, env)
            return out
        if kind is NOP_KIND or stmt.lhs is None or stmt.lhs_type is None:
            return state
        if not stmt.lhs_type.involves_pointers():
            return state
        out = state.copy()

        lhs_locs = self._pointer_roots(stmt.lhs, pts, env, write=True)
        strong = (
            len(lhs_locs) == 1
            and lhs_locs[0][1] is D
            and not lhs_locs[0][0].represents_multiple()
        )

        if stmt.lhs.deref:
            # (*p).f = q  — a store into the heap structure p points to:
            # the structures of p and q's connections merge.
            base = env.var_loc(stmt.lhs.base)
            rhs_roots = self._rhs_heap_roots(stmt, pts, env)
            if self._points_into_heap(base, pts):
                for root in rhs_roots:
                    out.merge_structures(base, root)
            # *p = q with p pointing to *stack* storage: each possible
            # target location becomes heap-directed itself (this is how
            # an allocation escapes through an output parameter).
            if rhs_roots:
                for loc, _ in l_locations(stmt.lhs, pts, env):
                    if loc.is_null or loc.is_heap:
                        continue
                    out.enter(loc)
                    for root in rhs_roots:
                        out.join_structure(loc, root)
            return out

        # Direct assignment p = ... : p joins the rhs structure.
        target = lhs_locs[0][0] if lhs_locs else None
        if target is None:
            return out
        rhs_roots = self._rhs_heap_roots(stmt, pts, env)
        if strong:
            out.leave(target)
        for root in rhs_roots:
            out.enter(target)
            out.join_structure(target, root)
        return out

    def _assign_fresh(self, stmt, out, pts, env) -> None:
        if stmt.lhs is None:
            return
        lhs_locs = self._pointer_roots(stmt.lhs, pts, env, write=True)
        if (
            len(lhs_locs) == 1
            and lhs_locs[0][1] is D
            and not lhs_locs[0][0].represents_multiple()
            and not stmt.lhs.deref
        ):
            out.leave(lhs_locs[0][0])
            out.enter(lhs_locs[0][0])
        elif lhs_locs and not stmt.lhs.deref:
            for loc, _ in lhs_locs:
                out.enter(loc)
        elif stmt.lhs.deref:
            # storing a fresh cell into an existing structure keeps the
            # structure connected through the base pointer
            base = env.var_loc(stmt.lhs.base)
            if self._points_into_heap(base, pts):
                out.enter(base)

    def _process_call(self, stmt, out, pts, env) -> None:
        if stmt.callee and self.function_is_heap_inert(stmt.callee):
            pass_through = True
        else:
            pass_through = False
        touched: list[AbsLoc] = []
        if not pass_through:
            for arg in stmt.args:
                if isinstance(arg, Ref) and arg.is_plain_var:
                    loc = env.var_loc(arg.base)
                    if self._points_into_heap(loc, pts):
                        touched.append(loc)
            for src in pts.sources():
                if src.kind is GLOBAL_KIND and self._points_into_heap(
                    src, pts
                ):
                    touched.append(src)
            for i, a in enumerate(touched):
                for b in touched[i:]:
                    out.merge_structures(a, b)
        if (
            stmt.lhs is not None
            and stmt.lhs_type is not None
            and stmt.lhs_type.involves_pointers()
            and not stmt.lhs.deref
        ):
            lhs_locs = self._pointer_roots(stmt.lhs, pts, env, write=True)
            if len(lhs_locs) == 1 and lhs_locs[0][1] is D:
                out.leave(lhs_locs[0][0])
            # The returned pointer may reference any structure the
            # callee saw (or a fresh one).
            for loc, _ in lhs_locs:
                out.enter(loc)
                for other in touched:
                    out.merge_structures(loc, other)

    def _pointer_roots(self, ref: Ref, pts, env, write: bool):
        if not ref.deref and not ref.path:
            return [(env.var_loc(ref.base), D)]
        return [
            (loc, d)
            for loc, d in l_locations(ref, pts, env)
            if not loc.is_null
        ]

    def _rhs_heap_roots(self, stmt: BasicStmt, pts, env) -> list[AbsLoc]:
        """Stack locations on the rhs whose structure the lhs joins."""
        roots = []
        operands = []
        if stmt.rvalue is not None:
            operands.append(stmt.rvalue)
        operands.extend(stmt.operands)
        for operand in operands:
            if isinstance(operand, Ref):
                base = env.var_loc(operand.base)
                if self._points_into_heap(base, pts):
                    roots.append(base)
                elif operand.deref or operand.path:
                    # the value loaded may itself be heap-directed
                    for tgt, _ in r_locations_ref(operand, pts, env):
                        if tgt.is_heap:
                            roots.append(base)
                            break
                    else:
                        continue
            elif isinstance(operand, AddrOf):
                continue
        return roots

    # -- public queries ------------------------------------------------------

    def connected_at(self, label: str, var_a: str, var_b: str) -> bool:
        """May the named pointers (in the label's function) point into
        the same heap structure at that point?"""
        func, stmt_id = self.program.labels[label]
        matrix = self.point_info.get(stmt_id)
        if matrix is None:
            return False
        env = self.analysis.env(func)
        return matrix.connected(env.var_loc(var_a), env.var_loc(var_b))

    def matrix_at(self, label: str) -> ConnectionMatrix | None:
        _, stmt_id = self.program.labels[label]
        return self.point_info.get(stmt_id)

    def disconnection_ratio(self) -> float:
        """Across all recorded points: the fraction of heap-directed
        pointer pairs proven disconnected (the win over the single
        'heap' location, which connects everything)."""
        possible = 0
        disconnected = 0
        for matrix in self.point_info.values():
            members = sorted(matrix.members(), key=str)
            for i, a in enumerate(members):
                for b in members[i + 1 :]:
                    possible += 1
                    if not matrix.connected(a, b):
                        disconnected += 1
        if possible == 0:
            return 0.0
        return disconnected / possible


def _matrices_equal(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return a == b


def analyze_heap_connections(
    analysis: PointsToAnalysis,
) -> HeapConnectionAnalysis:
    """Run the connection analysis over every function."""
    heap = HeapConnectionAnalysis(analysis)
    heap.analyze_all()
    return heap
