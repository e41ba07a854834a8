"""Node definitions for the SIMPLE intermediate representation.

The grammar of SIMPLE *references* mirrors Table 1 of the paper: a
reference names a base variable, optionally dereferenced once, followed
by a selector path of field accesses and array subscripts:

    a,  a.f,  a[i],  *a,  (*a).f,  (*a)[i],  a.f[i], ...

Every basic statement contains at most one level of pointer
indirection per reference; the simplifier introduces temporaries to
enforce this.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.frontend.ctypes import CType
from repro.frontend.errors import NO_LOC, SourceLoc


class IndexClass(enum.Enum):
    """Classification of an array subscript (Table 1 row selection)."""

    ZERO = "0"  # provably index 0            -> a_head
    POSITIVE = "+"  # provably index > 0        -> a_tail
    UNKNOWN = "?"  # anything else              -> {a_head, a_tail}

    def __str__(self) -> str:
        return self.value


class Selector:
    """Base class for reference selectors."""


@dataclass(frozen=True)
class FieldSel(Selector):
    """A structure field access ``.name``."""

    name: str

    def __str__(self) -> str:
        return f".{self.name}"


@dataclass(frozen=True)
class IndexSel(Selector):
    """An array subscript, abstracted to its :class:`IndexClass`.

    ``expr`` optionally carries the concrete index operand (a Const or
    a plain variable Ref).  The analysis never reads it — abstraction
    happens through ``index`` — but the concrete interpreter
    (:mod:`repro.interp`) needs the value.  It is excluded from
    equality so references compare structurally.
    """

    index: IndexClass
    expr: object | None = field(default=None, compare=False, hash=False)

    def __str__(self) -> str:
        return f"[{self.index}]"


@dataclass(frozen=True)
class Ref:
    """A SIMPLE variable reference.

    ``deref`` applies to the base variable (at most one level, as in the
    paper); ``path`` is the selector chain applied afterwards.
    """

    base: str
    deref: bool = False
    path: tuple[Selector, ...] = ()

    def __str__(self) -> str:
        text = f"(*{self.base})" if self.deref else self.base
        return text + "".join(str(s) for s in self.path)

    def with_field(self, name: str) -> "Ref":
        return Ref(self.base, self.deref, self.path + (FieldSel(name),))

    def with_index(self, index: IndexClass, expr: object | None = None) -> "Ref":
        return Ref(self.base, self.deref, self.path + (IndexSel(index, expr),))

    @property
    def is_plain_var(self) -> bool:
        return not self.deref and not self.path


@dataclass(frozen=True)
class Const:
    """A constant operand.  ``value`` may be int/float/str; a pointer
    context with value 0 means NULL."""

    value: object

    def __str__(self) -> str:
        return repr(self.value)

    @property
    def is_null(self) -> bool:
        return self.value == 0


@dataclass(frozen=True)
class AddrOf:
    """``&ref`` — only legal as the rhs of an address assignment."""

    ref: Ref

    def __str__(self) -> str:
        return f"&{self.ref}"


#: An operand of a basic statement.
Operand = Ref | Const | AddrOf


class Stmt:
    """Base class of all SIMPLE statements.

    ``stmt_id`` is the statement's position in its program, assigned
    when the :class:`SimpleProgram` is built; 0 until then."""

    stmt_id: int
    loc: SourceLoc
    labels: tuple[str, ...]


def _init_stmt(stmt: "Stmt", loc: SourceLoc) -> None:
    stmt.stmt_id = 0
    stmt.loc = loc
    stmt.labels = ()


class BasicKind(enum.Enum):
    """The basic (non-compositional) statement forms."""

    COPY = "copy"  # lhs = ref
    ADDR = "addr"  # lhs = &ref
    CONST = "const"  # lhs = const
    BINOP = "binop"  # lhs = a op b
    UNOP = "unop"  # lhs = op a
    CALL = "call"  # [lhs =] f(args) / [lhs =] (*fp)(args)
    ALLOC = "alloc"  # lhs = malloc(...)
    NOP = "nop"


#: The kinds as plain module globals, for hot paths (see ``LocKind``'s
#: aliases in repro.core.locations).
COPY_KIND = BasicKind.COPY
ADDR_KIND = BasicKind.ADDR
CONST_KIND = BasicKind.CONST
BINOP_KIND = BasicKind.BINOP
UNOP_KIND = BasicKind.UNOP
CALL_KIND = BasicKind.CALL
ALLOC_KIND = BasicKind.ALLOC
NOP_KIND = BasicKind.NOP


@dataclass
class BasicStmt(Stmt):
    """A basic statement.

    The shape depends on ``kind``:

    * ``COPY``: ``lhs = rvalue`` with ``rvalue`` a :class:`Ref`;
    * ``ADDR``: ``rvalue`` an :class:`AddrOf`;
    * ``CONST``: ``rvalue`` a :class:`Const`;
    * ``BINOP``/``UNOP``: ``operands`` holds the simplified operands and
      ``op`` the operator; pointer arithmetic is detected from types;
    * ``CALL``: ``callee`` is the function name for direct calls, or
      None with ``callee_ptr`` naming the function-pointer variable for
      indirect calls; ``args`` are constants or plain variable refs;
    * ``ALLOC``: a heap allocation (``malloc``/``calloc``/...).
    """

    kind: BasicKind
    lhs: Ref | None = None
    rvalue: Operand | None = None
    op: str | None = None
    operands: tuple[Operand, ...] = ()
    callee: str | None = None
    callee_ptr: str | None = None
    args: tuple[Operand, ...] = ()
    #: Static type of the lhs reference (None when no lhs).
    lhs_type: CType | None = None
    #: Call-site identifier, unique per syntactic call (CALL/ALLOC only).
    call_site: int | None = None

    def __post_init__(self) -> None:
        _init_stmt(self, NO_LOC)

    def __str__(self) -> str:
        if self.kind is BasicKind.NOP:
            return "nop"
        if self.kind is BasicKind.CALL or self.kind is BasicKind.ALLOC:
            target = self.callee if self.callee else f"(*{self.callee_ptr})"
            call = f"{target}({', '.join(str(a) for a in self.args)})"
            return f"{self.lhs} = {call}" if self.lhs else call
        if self.kind in (BasicKind.COPY, BasicKind.ADDR, BasicKind.CONST):
            return f"{self.lhs} = {self.rvalue}"
        if self.kind is BasicKind.UNOP:
            return f"{self.lhs} = {self.op}{self.operands[0]}"
        return f"{self.lhs} = {self.operands[0]} {self.op} {self.operands[1]}"


@dataclass
class SBlock(Stmt):
    """A statement sequence."""

    stmts: list[Stmt] = field(default_factory=list)

    def __post_init__(self) -> None:
        _init_stmt(self, NO_LOC)


@dataclass
class SIf(Stmt):
    cond: Operand | None
    then_block: SBlock
    else_block: SBlock | None = None

    def __post_init__(self) -> None:
        _init_stmt(self, NO_LOC)


@dataclass
class SWhile(Stmt):
    """``while``: each iteration runs ``cond_eval`` (side effects hoisted
    out of the source condition; usually empty), tests ``cond``, then the
    body.  ``continue`` transfers to ``cond_eval``."""

    cond: Operand | None
    body: SBlock
    cond_eval: SBlock = field(default_factory=lambda: SBlock([]))

    def __post_init__(self) -> None:
        _init_stmt(self, NO_LOC)


@dataclass
class SDoWhile(Stmt):
    """``do``: body, then ``cond_eval``, then the test.  ``continue``
    transfers to ``cond_eval``."""

    body: SBlock
    cond: Operand | None
    cond_eval: SBlock = field(default_factory=lambda: SBlock([]))

    def __post_init__(self) -> None:
        _init_stmt(self, NO_LOC)


@dataclass
class SFor(Stmt):
    """``for``: init once; each iteration runs ``cond_eval``, tests
    ``cond``, runs the body, then ``step``.  ``continue`` transfers to
    ``step``."""

    init: SBlock
    cond: Operand | None
    step: SBlock
    body: SBlock
    cond_eval: SBlock = field(default_factory=lambda: SBlock([]))

    def __post_init__(self) -> None:
        _init_stmt(self, NO_LOC)


@dataclass
class SSwitchCase:
    """One arm of a switch; ``values`` empty means ``default``."""

    values: tuple[int, ...]
    body: SBlock
    falls_through: bool = False


@dataclass
class SSwitch(Stmt):
    cond: Operand | None
    cases: list[SSwitchCase] = field(default_factory=list)
    has_default: bool = False

    def __post_init__(self) -> None:
        _init_stmt(self, NO_LOC)


@dataclass
class SBreak(Stmt):
    def __post_init__(self) -> None:
        _init_stmt(self, NO_LOC)


@dataclass
class SContinue(Stmt):
    def __post_init__(self) -> None:
        _init_stmt(self, NO_LOC)


@dataclass
class SReturn(Stmt):
    value: Operand | None = None

    def __post_init__(self) -> None:
        _init_stmt(self, NO_LOC)


# ---------------------------------------------------------------------------
# Functions and programs
# ---------------------------------------------------------------------------


@dataclass
class SimpleFunction:
    """A function lowered to SIMPLE."""

    name: str
    return_type: CType
    params: list[tuple[str, CType]]
    local_types: dict[str, CType]
    body: SBlock
    variadic: bool = False
    source_lines: int = 0

    @property
    def param_names(self) -> list[str]:
        return [name for name, _ in self.params]

    def var_type(self, name: str) -> CType | None:
        for pname, ptype in self.params:
            if pname == name:
                return ptype
        return self.local_types.get(name)

    def iter_stmts(self):
        """Every statement in the body, in pre-order."""
        return iter_stmts(self.body)

    def count_basic_stmts(self) -> int:
        return sum(1 for s in self.iter_stmts() if isinstance(s, BasicStmt))


def child_stmts(stmt: Stmt) -> list[Stmt]:
    """The direct sub-statements of ``stmt``, in traversal order."""
    if isinstance(stmt, SBlock):
        return stmt.stmts
    if isinstance(stmt, SIf):
        return [b for b in (stmt.then_block, stmt.else_block) if b is not None]
    if isinstance(stmt, SWhile):
        return [stmt.cond_eval, stmt.body]
    if isinstance(stmt, SDoWhile):
        return [stmt.body, stmt.cond_eval]
    if isinstance(stmt, SFor):
        return [stmt.init, stmt.cond_eval, stmt.step, stmt.body]
    if isinstance(stmt, SSwitch):
        return [case.body for case in stmt.cases]
    return []


def iter_stmts(stmt: Stmt):
    """Pre-order traversal over a SIMPLE statement tree.

    An explicit stack, not recursion: each yield costs O(1) whatever
    the nesting depth, and no depth hits the recursion limit."""
    stack = [stmt]
    while stack:
        stmt = stack.pop()
        yield stmt
        if not isinstance(stmt, BasicStmt):
            stack.extend(reversed(child_stmts(stmt)))


@dataclass
class SimpleProgram:
    """A whole program in SIMPLE form.

    Building one numbers its statements by position: global
    initializers first, then the functions in sorted name order, each
    body in pre-order, from 1.  Ids are therefore a function of the
    program text alone, and each function's ids form one contiguous
    range (``stmt_ids``), so a statement's ordinal within its function
    is its id minus the range's start."""

    functions: dict[str, SimpleFunction]
    global_types: dict[str, CType]
    #: Prototypes of declared-but-undefined (external) functions.
    externals: dict[str, CType]
    #: Global-variable initializers, run once before ``main``.
    global_init: SBlock = field(default_factory=lambda: SBlock([]))
    #: Total source lines (for Table 2).
    source_lines: int = 0
    #: Label name -> (function name, stmt_id) for program-point queries.
    labels: dict[str, tuple[str, int]] = field(init=False)
    #: Function name -> the ids of its statements, in pre-order.
    stmt_ids: dict[str, range] = field(init=False)
    #: Function name -> its scan (:func:`repro.core.slices.scan_program`),
    #: made on first use.  A scan reads names only, which nothing
    #: changes once the program is built (an incremental splice
    #: renumbers statements but renames nothing).
    scans: dict | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        next_id = 1
        for stmt in iter_stmts(self.global_init):
            stmt.stmt_id = next_id
            next_id += 1
        self.labels = {}
        self.stmt_ids = {}
        for name in sorted(self.functions):
            first = next_id
            for stmt in self.functions[name].iter_stmts():
                stmt.stmt_id = next_id
                next_id += 1
                for label in stmt.labels:
                    self.labels[label] = (name, stmt.stmt_id)
            self.stmt_ids[name] = range(first, next_id)

    def function(self, name: str) -> SimpleFunction:
        return self.functions[name]

    def count_basic_stmts(self) -> int:
        return sum(f.count_basic_stmts() for f in self.functions.values())

    def var_type(self, func: str | None, name: str) -> CType | None:
        """Resolve a variable's type: function locals first, then globals."""
        if func is not None and func in self.functions:
            local = self.functions[func].var_type(name)
            if local is not None:
                return local
        return self.global_types.get(name)
