"""Program-shape facts the checkers need, in encodable form.

Checkers must give identical verdicts on a live analysis and on a
:class:`~repro.service.serialize.DecodedAnalysis` reconstituted from
the content-addressed store (the SARIF byte-identity gate in the test
suite).  A decoded result has no :class:`SimpleProgram`, so everything
the checkers read off the IR — dereference sites, pointer uses,
return statements, allocation sites, loop bodies, heap liveness at
function exits — is extracted here once, on the live side, and
serialized as the payload's ``"checkfacts"`` section.

The facts are *syntactic* except for ``heap_alive``, which bakes in
the heap-connection analysis (:mod:`repro.core.heapconn`) verdict at
each function's exit points so the leak checker needs no live matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.frontend.ctypes import PointerType, decay
from repro.simple.ir import (
    AddrOf,
    BasicKind,
    BasicStmt,
    Ref,
    SDoWhile,
    SFor,
    SReturn,
    SWhile,
    iter_stmts,
)

#: Schema version of the encoded section (independent of the payload's
#: FORMAT_VERSION so readers can evolve the two separately).
FACTS_VERSION = 1

USE_COPY = "copy"
USE_ARG = "arg"
USE_RETURN = "return"


@dataclass(frozen=True)
class DerefSite:
    """A statement that loads or stores through pointer ``name``."""

    stmt: int
    func: str
    name: str
    line: int
    write: bool


@dataclass(frozen=True)
class UseSite:
    """A plain pointer-typed variable consumed as a value (copied,
    passed as a call argument, or returned).  ``assigned`` is True when
    the variable is ever assigned / address-taken / a parameter in its
    function — the uninitialized-use checker only looks at the rest."""

    stmt: int
    func: str
    name: str
    line: int
    kind: str
    assigned: bool


@dataclass(frozen=True)
class ReturnSite:
    """A ``return`` statement.  ``name`` is the returned variable when
    the value is a plain reference; ``addr`` is the variable whose
    address is returned directly (``return &x``); ``ptr`` is whether
    the function's return type involves pointers at all."""

    stmt: int
    func: str
    line: int
    name: str | None
    addr: str | None
    ptr: bool


@dataclass(frozen=True)
class AllocSite:
    """A heap allocation; ``name`` is the receiving variable when the
    left side is a plain reference."""

    stmt: int
    func: str
    line: int
    name: str | None


@dataclass(frozen=True)
class LoopSite:
    """One loop: the basic statements of its body (plus condition
    re-evaluation and step), for the interference checker."""

    func: str
    line: int
    stmts: tuple[int, ...]


@dataclass
class CheckFacts:
    derefs: list[DerefSite] = field(default_factory=list)
    uses: list[UseSite] = field(default_factory=list)
    returns: list[ReturnSite] = field(default_factory=list)
    allocs: list[AllocSite] = field(default_factory=list)
    loops: list[LoopSite] = field(default_factory=list)
    #: statement id -> source line, for every basic/return statement.
    lines: dict[int, int] = field(default_factory=dict)
    #: function -> is any heap-directed relationship still live at some
    #: exit point?  Only functions containing allocations appear; a
    #: function with no ``return`` statement reads as True (unknown).
    heap_alive: dict[str, bool] = field(default_factory=dict)

    @property
    def deref_stmts(self) -> frozenset[int]:
        return frozenset(d.stmt for d in self.derefs)

    # -- payload round-trip ------------------------------------------------

    def encode(self) -> dict:
        """JSON-safe section.  ``None`` name fields become ``""`` so
        rows stay sortable."""
        return {
            "version": FACTS_VERSION,
            "derefs": sorted(
                [d.stmt, d.func, d.name, d.line, 1 if d.write else 0]
                for d in self.derefs
            ),
            "uses": sorted(
                [u.stmt, u.func, u.name, u.line, u.kind,
                 1 if u.assigned else 0]
                for u in self.uses
            ),
            "returns": sorted(
                [r.stmt, r.func, r.line, r.name or "", r.addr or "",
                 1 if r.ptr else 0]
                for r in self.returns
            ),
            "allocs": sorted(
                [a.stmt, a.func, a.line, a.name or ""]
                for a in self.allocs
            ),
            "loops": sorted(
                [loop.func, loop.line, sorted(loop.stmts)]
                for loop in self.loops
            ),
            "lines": sorted([k, v] for k, v in self.lines.items()),
            "heap_alive": {
                func: bool(alive)
                for func, alive in sorted(self.heap_alive.items())
            },
        }

    @classmethod
    def decode(cls, section: dict) -> "CheckFacts":
        facts = cls()
        for stmt, func, name, line, write in section.get("derefs", ()):
            facts.derefs.append(
                DerefSite(stmt, func, name, line, bool(write))
            )
        for stmt, func, name, line, kind, assigned in section.get("uses", ()):
            facts.uses.append(
                UseSite(stmt, func, name, line, kind, bool(assigned))
            )
        for stmt, func, line, name, addr, ptr in section.get("returns", ()):
            facts.returns.append(
                ReturnSite(stmt, func, line, name or None, addr or None,
                           bool(ptr))
            )
        for stmt, func, line, name in section.get("allocs", ()):
            facts.allocs.append(AllocSite(stmt, func, line, name or None))
        for func, line, stmts in section.get("loops", ()):
            facts.loops.append(LoopSite(func, line, tuple(stmts)))
        facts.lines = {stmt: line for stmt, line in section.get("lines", ())}
        facts.heap_alive = {
            func: bool(alive)
            for func, alive in section.get("heap_alive", {}).items()
        }
        return facts


# ---------------------------------------------------------------------------
# Extraction (live side)
# ---------------------------------------------------------------------------


def _is_pointer_var(program, func: str, name: str) -> bool:
    ctype = program.var_type(func, name)
    if ctype is None:
        return False
    return isinstance(decay(ctype), PointerType)


def _operands(stmt: BasicStmt) -> Iterable:
    if stmt.rvalue is not None:
        yield stmt.rvalue
    yield from stmt.operands
    yield from stmt.args


def _assigned_names(fn) -> set[str]:
    """Variables that are assigned, address-taken (so a callee may
    write them), or parameters — everything the uninitialized-use
    checker should *not* flag."""
    assigned = set(fn.param_names)
    for stmt in fn.iter_stmts():
        if not isinstance(stmt, BasicStmt):
            continue
        if stmt.lhs is not None and not stmt.lhs.deref:
            assigned.add(stmt.lhs.base)
        for op in _operands(stmt):
            if isinstance(op, AddrOf):
                assigned.add(op.ref.base)
    return assigned


def _chase_temp(fn, name: str) -> str | None:
    """The user variable an allocation lands in: casts lower
    ``h = (int *) malloc(4)`` to ``__t = malloc(4); h = __t`` — follow
    the copy chain out of lowering temps (None if it dead-ends)."""
    from repro.core.analysis import _is_temp_name

    for _ in range(4):  # copy chains from lowering are short
        if not _is_temp_name(name):
            return name
        for stmt in fn.iter_stmts():
            if (
                isinstance(stmt, BasicStmt)
                and stmt.kind is BasicKind.COPY
                and isinstance(stmt.rvalue, Ref)
                and stmt.rvalue.is_plain_var
                and stmt.rvalue.base == name
                and stmt.lhs is not None
                and stmt.lhs.is_plain_var
            ):
                name = stmt.lhs.base
                break
        else:
            return None
    return None if _is_temp_name(name) else name


def _loop_stmt_ids(loop) -> tuple[int, ...]:
    """Basic statements re-executed on every iteration: the body, the
    condition re-evaluation, and (for ``for``) the step."""
    blocks = [loop.body, loop.cond_eval]
    if isinstance(loop, SFor):
        blocks.append(loop.step)
    ids = []
    for block in blocks:
        if block is None:
            continue
        for stmt in iter_stmts(block):
            if isinstance(stmt, BasicStmt) and stmt.kind is not BasicKind.NOP:
                ids.append(stmt.stmt_id)
            elif isinstance(stmt, SReturn):
                ids.append(stmt.stmt_id)
    return tuple(dict.fromkeys(ids))


def _heap_alive(analysis, funcs_with_allocs: set[str]) -> dict[str, bool]:
    """Per allocating function: does any heap-directed relationship
    survive to some exit point?  Functions without an explicit
    ``return`` read as alive (we never see their exit state)."""
    if not funcs_with_allocs:
        return {}
    from repro.core.analysis import _is_temp_name
    from repro.core.heapconn import HeapConnectionAnalysis

    # The connection analysis is per-function (entry state comes from
    # the function's own points-to rows; callees contribute only their
    # heap-inertness verdict), so run it only where allocations live —
    # the differential engine restricts this to the dirty set.
    heap = HeapConnectionAnalysis(analysis)
    alive_map: dict[str, bool] = {}
    for func in sorted(funcs_with_allocs):
        fn = analysis.program.functions.get(func)
        if fn is None:
            continue
        heap.analyze_function(func)
        exits = [s for s in fn.iter_stmts() if isinstance(s, SReturn)]
        if not exits:
            alive_map[func] = True
            continue
        alive = False
        for stmt in exits:
            matrix = heap.point_info.get(stmt.stmt_id)
            if matrix is None:
                continue
            # Lowering temps are dead after their single use; a heap
            # connection only a temp still holds cannot be freed.
            if any(not _is_temp_name(m.base) for m in matrix.members()):
                alive = True
                break
        alive_map[func] = alive
    return alive_map


def collect_facts(analysis, funcs=None) -> CheckFacts:
    """Extract checker facts from a live analysis (requires
    ``analysis.program``).

    ``funcs`` restricts extraction to the named functions — the
    differential engine (:mod:`repro.checkers.diff`) passes the dirty
    set so detectors and the heap-connection sweep only pay for what an
    edit actually invalidated.  ``None`` extracts everything.
    """
    program = analysis.program
    facts = CheckFacts()
    funcs_with_allocs: set[str] = set()

    names = sorted(program.functions) if funcs is None else sorted(
        set(funcs) & set(program.functions)
    )
    for fname in names:
        fn = program.functions[fname]
        assigned = _assigned_names(fn)
        loop_nodes = []

        for stmt in fn.iter_stmts():
            if isinstance(stmt, (SWhile, SDoWhile, SFor)):
                loop_nodes.append(stmt)
                continue

            if isinstance(stmt, SReturn):
                line = stmt.loc.line
                facts.lines[stmt.stmt_id] = line
                value = stmt.value
                if value is None:
                    continue
                ptr = fn.return_type.involves_pointers()
                name = addr = None
                if isinstance(value, Ref):
                    if value.deref:
                        facts.derefs.append(
                            DerefSite(stmt.stmt_id, fname, value.base,
                                      line, write=False)
                        )
                    elif value.is_plain_var:
                        name = value.base
                        if _is_pointer_var(program, fname, name):
                            facts.uses.append(
                                UseSite(stmt.stmt_id, fname, name, line,
                                        USE_RETURN, name in assigned)
                            )
                elif isinstance(value, AddrOf):
                    addr = value.ref.base
                facts.returns.append(
                    ReturnSite(stmt.stmt_id, fname, line, name, addr, ptr)
                )
                continue

            if not isinstance(stmt, BasicStmt):
                continue
            line = stmt.loc.line
            facts.lines[stmt.stmt_id] = line

            if stmt.lhs is not None and stmt.lhs.deref:
                facts.derefs.append(
                    DerefSite(stmt.stmt_id, fname, stmt.lhs.base, line,
                              write=True)
                )
            for op in _operands(stmt):
                # AddrOf never loads memory (&(*p).f computes an
                # address), so it is not a dereference site.
                if isinstance(op, Ref) and op.deref:
                    facts.derefs.append(
                        DerefSite(stmt.stmt_id, fname, op.base, line,
                                  write=False)
                    )

            if stmt.kind is BasicKind.CALL and stmt.callee_ptr is not None:
                # An indirect call loads the function-pointer variable.
                facts.derefs.append(
                    DerefSite(stmt.stmt_id, fname, stmt.callee_ptr, line,
                              write=False)
                )

            if stmt.kind is BasicKind.ALLOC:
                funcs_with_allocs.add(fname)
                name = None
                if stmt.lhs is not None and stmt.lhs.is_plain_var:
                    name = _chase_temp(fn, stmt.lhs.base)
                facts.allocs.append(
                    AllocSite(stmt.stmt_id, fname, line, name)
                )

            if stmt.kind is BasicKind.COPY and isinstance(stmt.rvalue, Ref):
                ref = stmt.rvalue
                if ref.is_plain_var and _is_pointer_var(program, fname,
                                                        ref.base):
                    facts.uses.append(
                        UseSite(stmt.stmt_id, fname, ref.base, line,
                                USE_COPY, ref.base in assigned)
                    )
            for arg in stmt.args:
                if isinstance(arg, Ref) and arg.is_plain_var and \
                        _is_pointer_var(program, fname, arg.base):
                    facts.uses.append(
                        UseSite(stmt.stmt_id, fname, arg.base, line,
                                USE_ARG, arg.base in assigned)
                    )

        # Loop sites last: their fallback line (structured statements
        # often carry NO_LOC) needs the body lines collected above.
        for loop in loop_nodes:
            body_ids = _loop_stmt_ids(loop)
            if not body_ids:
                continue
            body_lines = [facts.lines[s] for s in body_ids
                          if facts.lines.get(s)]
            line = loop.loc.line or (min(body_lines) if body_lines else 0)
            facts.loops.append(LoopSite(fname, line, body_ids))

    facts.heap_alive = _heap_alive(analysis, funcs_with_allocs)
    return facts
