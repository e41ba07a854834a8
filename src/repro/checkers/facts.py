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

from repro.frontend.ctypes import PointerType, decay
from repro.simple.ir import (
    ALLOC_KIND,
    CALL_KIND,
    COPY_KIND,
    NOP_KIND,
    AddrOf,
    BasicStmt,
    Ref,
    SDoWhile,
    SFor,
    SReturn,
    SWhile,
    child_stmts,
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


def _chase_temp(copies: dict[str, str], name: str) -> str | None:
    """The user variable an allocation lands in: casts lower
    ``h = (int *) malloc(4)`` to ``__t = malloc(4); h = __t`` — follow
    the copy chain out of lowering temps (None if it dead-ends).
    ``copies`` maps a variable to the variable its first plain copy in
    the function assigns it to."""
    from repro.core.analysis import _is_temp_name

    for _ in range(4):  # copy chains from lowering are short
        if not _is_temp_name(name):
            return name
        name = copies.get(name)
        if name is None:
            return None
    return None if _is_temp_name(name) else name


def _loop_parts(loop) -> list:
    """The blocks a loop re-executes on every iteration, in the order
    its facts list their statements: the body, the condition
    re-evaluation, and (for ``for``) the step."""
    parts = [loop.body, loop.cond_eval]
    if isinstance(loop, SFor):
        parts.append(loop.step)
    return [part for part in parts if part is not None]


def _heap_alive(analysis, exits: dict[str, list]) -> dict[str, bool]:
    """Per allocating function (the keys of ``exits``, each with its
    ``return`` statements): does any heap-directed relationship survive
    to some exit point?  Functions without an explicit ``return`` read
    as alive (we never see their exit state)."""
    if not exits:
        return {}
    from repro.core.analysis import _is_temp_name
    from repro.core.heapconn import HeapConnectionAnalysis

    # The connection analysis is per-function (entry state comes from
    # the function's own points-to rows; callees contribute only their
    # heap-inertness verdict), so run it only where allocations live —
    # the differential engine restricts this to the dirty set.
    heap = HeapConnectionAnalysis(analysis)
    alive_map: dict[str, bool] = {}
    for func in sorted(exits):
        heap.analyze_function(func)
        if not exits[func]:
            alive_map[func] = True
            continue
        alive = False
        for stmt in exits[func]:
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


def _function_facts(program, fname: str, fn, facts: CheckFacts) -> list | None:
    """Add ``fn``'s facts to ``facts`` from one walk of its body.
    Returns its ``return`` statements when it allocates, else None.

    Whatever needs the whole function first — which names are ever
    assigned, where a lowering temp is copied, the statements of each
    loop — is gathered during the walk and applied after it."""
    # Variables assigned, address-taken (so a callee may write them)
    # or parameters: the uninitialized-use checker skips them.
    assigned = set(fn.param_names)
    copies: dict[str, str] = {}  # see _chase_temp
    pointers: dict[str, bool] = {}
    uses: list[tuple] = []  # UseSite fields but ``assigned``
    allocs: list[tuple] = []  # (stmt, line, receiving variable)
    exits: list[SReturn] = []
    loops: list = []
    # The ids of the statements a loop re-executes (basic but ``nop``,
    # and returns) in walk order; each loop part's are a slice of it,
    # ``spans[id(part)]``, closed when the walk leaves the part.
    repeated: list[int] = []
    spans: dict[int, list[int] | None] = {}

    def is_pointer(name: str) -> bool:
        pointer = pointers.get(name)
        if pointer is None:
            pointer = pointers[name] = _is_pointer_var(program, fname, name)
        return pointer

    lines = facts.lines
    derefs = facts.derefs
    stack: list = [fn.body]
    while stack:
        stmt = stack.pop()
        if isinstance(stmt, BasicStmt):
            stmt_id = stmt.stmt_id
            line = stmt.loc.line
            lines[stmt_id] = line
            kind = stmt.kind
            if kind is not NOP_KIND:
                repeated.append(stmt_id)
            lhs = stmt.lhs
            if lhs is not None:
                if lhs.deref:
                    derefs.append(
                        DerefSite(stmt_id, fname, lhs.base, line, write=True)
                    )
                else:
                    assigned.add(lhs.base)
            rvalue = stmt.rvalue
            for op in (rvalue, *stmt.operands, *stmt.args):
                if isinstance(op, Ref):
                    # AddrOf never loads memory (&(*p).f computes an
                    # address), so it is not a dereference site.
                    if op.deref:
                        derefs.append(
                            DerefSite(stmt_id, fname, op.base, line,
                                      write=False)
                        )
                elif isinstance(op, AddrOf):
                    assigned.add(op.ref.base)

            if kind is CALL_KIND and stmt.callee_ptr is not None:
                # An indirect call loads the function-pointer variable.
                derefs.append(
                    DerefSite(stmt_id, fname, stmt.callee_ptr, line,
                              write=False)
                )
            elif kind is ALLOC_KIND:
                name = lhs.base if lhs is not None and lhs.is_plain_var \
                    else None
                allocs.append((stmt_id, line, name))
            elif kind is COPY_KIND and isinstance(rvalue, Ref) \
                    and rvalue.is_plain_var:
                if lhs is not None and lhs.is_plain_var:
                    copies.setdefault(rvalue.base, lhs.base)
                if is_pointer(rvalue.base):
                    uses.append((stmt_id, rvalue.base, line, USE_COPY))
            for arg in stmt.args:
                if isinstance(arg, Ref) and arg.is_plain_var and \
                        is_pointer(arg.base):
                    uses.append((stmt_id, arg.base, line, USE_ARG))
            continue

        if isinstance(stmt, SReturn):
            stmt_id = stmt.stmt_id
            line = stmt.loc.line
            lines[stmt_id] = line
            repeated.append(stmt_id)
            exits.append(stmt)
            value = stmt.value
            if value is None:
                continue
            name = addr = None
            if isinstance(value, Ref):
                if value.deref:
                    derefs.append(
                        DerefSite(stmt_id, fname, value.base, line,
                                  write=False)
                    )
                elif value.is_plain_var:
                    name = value.base
                    if is_pointer(name):
                        uses.append((stmt_id, name, line, USE_RETURN))
            elif isinstance(value, AddrOf):
                addr = value.ref.base
            facts.returns.append(
                ReturnSite(stmt_id, fname, line, name, addr,
                           fn.return_type.involves_pointers())
            )
            continue

        if isinstance(stmt, list):  # the end of a loop part
            stmt[1] = len(repeated)
            continue
        if isinstance(stmt, (SWhile, SDoWhile, SFor)):
            loops.append(stmt)
            for part in _loop_parts(stmt):
                spans[id(part)] = None
        elif id(stmt) in spans:
            span = spans[id(stmt)] = [len(repeated), 0]
            stack.append(span)
        stack.extend(reversed(child_stmts(stmt)))

    for stmt_id, name, line, kind in uses:
        facts.uses.append(
            UseSite(stmt_id, fname, name, line, kind, name in assigned)
        )
    for stmt_id, line, name in allocs:
        if name is not None:
            name = _chase_temp(copies, name)
        facts.allocs.append(AllocSite(stmt_id, fname, line, name))
    # Loop sites last: their fallback line (structured statements
    # often carry NO_LOC) needs the body lines.
    for loop in loops:
        body_ids = tuple(
            stmt_id
            for part in _loop_parts(loop)
            for stmt_id in repeated[slice(*spans[id(part)])]
        )
        if not body_ids:
            continue
        body_lines = [lines[s] for s in body_ids if lines.get(s)]
        line = loop.loc.line or (min(body_lines) if body_lines else 0)
        facts.loops.append(LoopSite(fname, line, body_ids))
    return exits if allocs else None


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
    names = sorted(program.functions) if funcs is None else sorted(
        set(funcs) & set(program.functions)
    )
    exits: dict[str, list] = {}
    for fname in names:
        found = _function_facts(
            program, fname, program.functions[fname], facts
        )
        if found is not None:
            exits[fname] = found
    facts.heap_alive = _heap_alive(analysis, exits)
    return facts


def analysis_facts(analysis) -> CheckFacts:
    """:func:`collect_facts` of a whole live analysis, extracted once
    and kept on the analysis: the encoder and a checker run on the same
    cold request share one extraction.  Read it, never change it."""
    facts = getattr(analysis, "_checkfacts", None)
    if facts is None:
        facts = analysis._checkfacts = collect_facts(analysis)
    return facts
