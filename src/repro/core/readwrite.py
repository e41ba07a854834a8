"""Read/write set computation (Section 6.1).

The paper lists read/write sets (as used to build McCAT's ALPHA
representation) as a direct client of points-to information: with
every indirect reference resolved to named abstract locations, the
locations read and written by each statement fall out of the L-/R-
location machinery.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.analysis import PointsToAnalysis
from repro.core.locations import FUNCTION_KIND, GLOBAL_KIND, HEAP_KIND, AbsLoc
from repro.core.lvalues import l_locations
from repro.core.pointsto import D
from repro.simple.ir import CALL_KIND, BasicStmt, Ref, SReturn


@dataclass
class ReadWriteSets:
    """May/must read and write sets of one statement."""

    stmt_id: int
    func: str
    must_write: set[AbsLoc] = field(default_factory=set)
    may_write: set[AbsLoc] = field(default_factory=set)
    reads: set[AbsLoc] = field(default_factory=set)

    def conflicts_with(self, other: "ReadWriteSets") -> bool:
        """True when the two statements cannot be reordered (any
        write/write or read/write overlap)."""
        writes = self.may_write
        other_writes = other.may_write
        return bool(
            writes & other_writes
            or writes & other.reads
            or self.reads & other_writes
        )


def _add_reads(operand, info, env, reads: set[AbsLoc]) -> None:
    """Add the locations evaluating ``operand`` reads.  Constants read
    nothing, and neither does taking an address (it evaluates the
    lvalue)."""
    if not isinstance(operand, Ref):
        return
    if not operand.deref and not operand.path:
        # A named variable: its own location, never NULL, whatever the
        # points-to set holds.
        reads.add(env.var_loc(operand.base))
        return
    for loc, _ in l_locations(operand, info, env):
        if not loc.is_null:
            reads.add(loc)
    if operand.deref:
        reads.add(env.var_loc(operand.base))  # the pointer itself is read


def statement_read_write(
    analysis: PointsToAnalysis, fn_name: str, stmt,
    callee_effects: bool = True,
) -> ReadWriteSets | None:
    """Read/write sets of one basic statement (None if unreachable).

    For calls, the sets include the *visible* effects (globals and the
    heap) of every callee the invocation graph binds at the call site —
    for an indirect call, exactly the functions the points-to analysis
    resolved the function pointer to, not an all-functions fallback.
    ``callee_effects=False`` restricts a call to its own argument
    evaluation (used internally while summarizing callees).
    """
    info = analysis.at_stmt(stmt.stmt_id)
    if info is None:
        return None
    env = analysis.env(fn_name)
    reads: set[AbsLoc] = set()
    sets = ReadWriteSets(stmt.stmt_id, fn_name, set(), set(), reads)

    if isinstance(stmt, SReturn):
        _add_reads(stmt.value, info, env, reads)
        return sets
    if not isinstance(stmt, BasicStmt):
        return sets

    lhs = stmt.lhs
    if lhs is not None:
        if not lhs.deref and not lhs.path:
            # A named variable is one definite, single location.
            loc = env.var_loc(lhs.base)
            if loc.kind is not FUNCTION_KIND:
                sets.may_write.add(loc)
                sets.must_write.add(loc)
        else:
            llocs = l_locations(lhs, info, env)
            writable = [
                (l, d) for l, d in llocs if not l.is_null and not l.is_function
            ]
            sets.may_write.update([loc for loc, _ in writable])
            definite = [
                loc
                for loc, d in writable
                if d is D and not loc.represents_multiple()
            ]
            if len(definite) == 1 and len(writable) == 1:
                sets.must_write.add(definite[0])
            if lhs.deref:
                reads.add(env.var_loc(lhs.base))

    if stmt.rvalue is not None:
        _add_reads(stmt.rvalue, info, env, reads)
    for operand in stmt.operands:
        _add_reads(operand, info, env, reads)
    for operand in stmt.args:
        _add_reads(operand, info, env, reads)

    if stmt.kind is CALL_KIND:
        if stmt.callee is None and stmt.callee_ptr is not None:
            # Dispatching through a function pointer reads the pointer.
            reads.add(env.var_loc(stmt.callee_ptr))
        if callee_effects:
            _add_callee_effects(
                analysis, resolved_callees(analysis, stmt), sets
            )
    return sets


def _add_callee_effects(analysis, callees, sets: ReadWriteSets) -> None:
    for callee in callees:
        callee_reads, callee_writes = _visible_effects(analysis, callee)
        # Callee effects are may-effects from the caller's view (the
        # call may take any path through the callee).
        sets.reads |= callee_reads
        sets.may_write |= callee_writes


def _is_call(stmt) -> bool:
    return isinstance(stmt, BasicStmt) and stmt.kind is CALL_KIND


def resolved_callees(analysis: PointsToAnalysis, stmt) -> list[str]:
    """Defined functions the invocation graph binds at the statement's
    call site.  For a direct call that is the named callee; for an
    indirect call it is exactly the set the points-to analysis resolved
    the function pointer to (every IG node for the caller contributes
    its bindings, covering all calling contexts)."""
    if not _is_call(stmt):
        return []
    functions = analysis.program.functions
    if stmt.callee is not None:
        return [stmt.callee] if stmt.callee in functions else []
    if stmt.call_site is None:
        return []
    bound = _effects(analysis).site_callees(analysis)
    return list(bound.get(stmt.call_site, ()))


class _Effects:
    """Per-analysis read/write state, each piece built once, on first
    use: ``site_callees`` (every call site's bound, defined callees,
    from one visit of each distinct invocation subtree; only indirect
    calls read it), ``own`` (each function's basic statements with their
    callee-free sets, None when unreachable) and ``visible`` (each
    function's visible effects).  It holds no reference back to the
    analysis, which owns it: a finished analysis stays acyclic."""

    __slots__ = ("_site_callees", "own", "visible")

    def __init__(self) -> None:
        self._site_callees: dict[int, list[str]] | None = None
        self.own: dict[str, list] = {}
        self.visible: dict[str, tuple] | None = None

    def site_callees(self, analysis: PointsToAnalysis) -> dict[int, list[str]]:
        if self._site_callees is None:
            bound = analysis.ig.call_sites()
            functions = analysis.program.functions.keys()
            self._site_callees = {
                site: sorted(callees & functions)
                for site, callees in bound.items()
            }
        return self._site_callees


def _effects(analysis: PointsToAnalysis) -> _Effects:
    effects = getattr(analysis, "_readwrite_effects", None)
    if effects is None:
        effects = analysis._readwrite_effects = _Effects()
    return effects


def _own_sets(analysis: PointsToAnalysis, fn_name: str) -> list:
    """``[(callee-free sets or None, resolved callees)]`` for the basic
    statements of ``fn_name`` (None when unreachable); each statement
    is evaluated once per analysis."""
    own = _effects(analysis).own
    entries = own.get(fn_name)
    if entries is None:
        entries = [
            (
                statement_read_write(
                    analysis, fn_name, stmt, callee_effects=False
                ),
                resolved_callees(analysis, stmt),
            )
            for stmt in analysis.program.functions[fn_name].iter_stmts()
            if isinstance(stmt, (BasicStmt, SReturn))
        ]
        own[fn_name] = entries
    return entries


#: The kinds of the locations a caller sees a callee touch: the
#: visible-everywhere kinds less NULL and the functions.
_EFFECT_KINDS = (GLOBAL_KIND, HEAP_KIND)


def _visible_effects(
    analysis: PointsToAnalysis, fn_name: str
) -> tuple[frozenset[AbsLoc], frozenset[AbsLoc]]:
    """(reads, may-writes) of ``fn_name`` and everything it can call,
    restricted to locations the caller can see — globals and the heap.

    A function's visible effects are the union of the *own* effects of
    every function reachable from it, so one pass over the call
    graph's strongly connected components computes them all."""
    effects = _effects(analysis)
    if effects.visible is None:
        own: dict[str, tuple[set, set]] = {}
        calls: dict[str, list[str]] = {}
        for name in sorted(analysis.program.functions):
            reads: set[AbsLoc] = set()
            writes: set[AbsLoc] = set()
            callees: set[str] = set()
            for sets, stmt_callees in _own_sets(analysis, name):
                if sets is not None:
                    reads |= sets.reads
                    writes |= sets.may_write
                callees.update(stmt_callees)
            own[name] = (
                {loc for loc in reads if loc.kind in _EFFECT_KINDS},
                {loc for loc in writes if loc.kind in _EFFECT_KINDS},
            )
            calls[name] = sorted(callees)
        effects.visible = _reachable_unions(own, calls)
    return effects.visible[fn_name]


def _reachable_unions(
    own: dict[str, tuple[set, set]], calls: dict[str, list[str]]
) -> dict[str, tuple[frozenset, frozenset]]:
    """For every function, the union of ``own`` over the functions
    reachable from it (itself included).

    Tarjan's algorithm, iterative so call chains of any depth are
    safe: components complete callees-first, so a component's union is
    its members' own effects plus its callees' finished unions."""
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    stack: list[str] = []
    done: dict[str, tuple[frozenset, frozenset]] = {}
    for root in own:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        work = [(root, iter(calls[root]))]
        while work:
            node, callees = work[-1]
            for callee in callees:
                if callee not in index:
                    index[callee] = low[callee] = len(index)
                    stack.append(callee)
                    work.append((callee, iter(calls[callee])))
                    break
                if callee not in done:  # on the stack
                    low[node] = min(low[node], index[callee])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] != index[node]:
                    continue
                members = []
                while not members or members[-1] != node:
                    members.append(stack.pop())
                reads: set[AbsLoc] = set()
                writes: set[AbsLoc] = set()
                for member in members:
                    finished = [done[c] for c in calls[member] if c in done]
                    for member_reads, member_writes in [own[member], *finished]:
                        reads |= member_reads
                        writes |= member_writes
                result = (frozenset(reads), frozenset(writes))
                for member in members:
                    done[member] = result
    return done


def function_read_write(
    analysis: PointsToAnalysis, fn_name: str
) -> list[ReadWriteSets]:
    """Read/write sets for every reachable basic statement of ``fn``."""
    result = []
    for own, callees in _own_sets(analysis, fn_name):
        if own is None:
            continue
        sets = ReadWriteSets(
            own.stmt_id, own.func,
            set(own.must_write), set(own.may_write), set(own.reads),
        )
        _add_callee_effects(analysis, callees, sets)
        result.append(sets)
    return result
