"""Lowering from the C AST to the SIMPLE intermediate representation.

The pass enforces the SIMPLE invariants the paper's analysis rules rely
on (Section 2):

* every variable reference in a basic statement has at most one level
  of pointer indirection (temporaries are introduced otherwise);
* conditions of ``if``/``while``/... are side-effect free (side effects
  are hoisted into the loop's ``cond_eval`` block);
* procedure arguments are constants or plain variable names;
* variable initializations are moved from declarations into the body;
* local names are made unique per function (block scoping/shadowing is
  resolved by renaming), since abstract stack locations are named by
  variables.
"""

from __future__ import annotations

from repro.frontend import cast
from repro.frontend.cast import TranslationUnit
from repro.frontend.ctypes import (
    CHAR,
    DOUBLE,
    INT,
    ArrayType,
    CType,
    FunctionType,
    IntType,
    PointerType,
    StructType,
    VOID,
    VoidType,
    decay,
)
from repro.frontend.errors import CFrontendError, SourceLoc
from repro.frontend.parser import parse
from repro.simple.ir import (
    AddrOf,
    BasicKind,
    BasicStmt,
    Const,
    IndexClass,
    Operand,
    Ref,
    SBlock,
    SBreak,
    SContinue,
    SDoWhile,
    SFor,
    SIf,
    SReturn,
    SSwitch,
    SSwitchCase,
    SWhile,
    SimpleFunction,
    SimpleProgram,
    Stmt,
)

#: Functions treated as heap allocators (R-locations ``{(heap, P)}``).
HEAP_ALLOCATORS = frozenset(
    {"malloc", "calloc", "realloc", "valloc", "memalign", "strdup", "alloca"}
)

#: Name of the abstract location shared by all string literals.
STRING_LIT_VAR = "__strlit"

#: Known pointer-returning library functions: used when a benchmark
#: calls them without a prototype (C89 implicit declaration would
#: otherwise type the result ``int`` and lose the pointer value).
_POINTER_RETURNING_EXTERNALS = frozenset(
    {
        "getenv", "strerror", "ctime", "asctime", "getcwd", "gets",
        "fgets", "strcpy", "strncpy", "strcat", "strncat", "memcpy",
        "memmove", "memset", "fopen", "tmpfile", "strchr", "strrchr",
        "strstr", "strtok",
    }
)


class SimplifyError(CFrontendError):
    """Raised when a construct cannot be lowered to SIMPLE."""


def _is_pointerish(ctype: CType) -> bool:
    return isinstance(decay(ctype), PointerType)


class _FunctionSimplifier:
    """Lowers one function body; owns renaming, temps, and emission."""

    def __init__(self, program: "_ProgramSimplifier", fn: cast.FunctionDef):
        self.program = program
        self.fn = fn
        self.scopes: list[dict[str, str]] = [
            {p.name: p.name for p in fn.params}
        ]
        self.param_types = {p.name: p.type for p in fn.params}
        self.local_types: dict[str, CType] = {}
        self.used_names: set[str] = set(self.param_types)
        self.temp_counter = 0
        self.blocks: list[list[Stmt]] = []
        #: id(node) -> (node, type); holding the node pins its id.
        self._types: dict[int, tuple[cast.Expr, CType]] = {}
        #: id(node) -> (node, (side effects, may trap)), likewise.
        self._hazards: dict[int, tuple[cast.Expr, tuple[bool, bool]]] = {}

    # -- emission ------------------------------------------------------

    def emit(self, stmt: Stmt, loc: SourceLoc | None = None) -> Stmt:
        if loc is not None:
            stmt.loc = loc
        self.blocks[-1].append(stmt)
        return stmt

    def collect(self, fn) -> SBlock:
        """Run ``fn`` with a fresh emission buffer; return it as a block."""
        self.blocks.append([])
        try:
            fn()
        finally:
            stmts = self.blocks.pop()
        return SBlock(stmts)

    # -- names and types -------------------------------------------------

    def fresh_temp(self, ctype: CType) -> str:
        self.temp_counter += 1
        name = f"__t{self.temp_counter}"
        self.local_types[name] = ctype
        self.used_names.add(name)
        return name

    def declare_local(self, name: str, ctype: CType) -> str:
        unique = name
        suffix = 1
        while unique in self.used_names or unique in self.program.global_types:
            suffix += 1
            unique = f"{name}__{suffix}"
        self.used_names.add(unique)
        self.scopes[-1][name] = unique
        self.local_types[unique] = ctype
        return unique

    def resolve(self, name: str) -> str | None:
        for scope in reversed(self.scopes):
            if name in scope:
                return scope[name]
        return None

    def var_type(self, unique: str) -> CType | None:
        if unique in self.param_types:
            return self.param_types[unique]
        if unique in self.local_types:
            return self.local_types[unique]
        return self.program.global_types.get(unique)

    # -- expression typing ------------------------------------------------

    def stype(self, expr: cast.Expr) -> CType:
        """Static type of an AST expression in the current scope,
        computed once per node: re-typing a left-nested sum's spine
        for every operand would be quadratic in its length."""
        entry = self._types.get(id(expr))
        if entry is None:
            entry = self._types[id(expr)] = (expr, self._stype(expr))
        return entry[1]

    def _stype(self, expr: cast.Expr) -> CType:
        if isinstance(expr, cast.IntLit):
            return INT
        if isinstance(expr, cast.FloatLit):
            return DOUBLE
        if isinstance(expr, cast.StringLit):
            return PointerType(CHAR)
        if isinstance(expr, cast.Ident):
            unique = self.resolve(expr.name)
            if unique is not None:
                ctype = self.var_type(unique)
                if ctype is not None:
                    return ctype
            if expr.name in self.program.global_types:
                return self.program.global_types[expr.name]
            fn_type = self.program.function_type(expr.name)
            if fn_type is not None:
                return fn_type
            return self.program.implicit_function(expr.name, expr.loc)
        if isinstance(expr, cast.Unary):
            if expr.op == "*":
                inner = decay(self.stype(expr.operand))
                if isinstance(inner, PointerType):
                    return inner.pointee
                raise SimplifyError(
                    f"cannot dereference non-pointer type {inner}", expr.loc
                )
            if expr.op == "&":
                return PointerType(self.stype(expr.operand))
            if expr.op == "!":
                return INT
            return self.stype(expr.operand)
        if isinstance(expr, cast.Binary):
            if expr.op in ("==", "!=", "<", ">", "<=", ">=", "&&", "||"):
                return INT
            left = decay(self.stype(expr.left))
            right = decay(self.stype(expr.right))
            if isinstance(left, PointerType) and isinstance(right, PointerType):
                return INT  # pointer difference
            if isinstance(left, PointerType):
                return left
            if isinstance(right, PointerType):
                return right
            if isinstance(left, IntType) and not isinstance(right, IntType):
                return right
            return left
        if isinstance(expr, cast.Assign):
            return self.stype(expr.target)
        if isinstance(expr, cast.Conditional):
            then_t = decay(self.stype(expr.then_expr))
            if isinstance(then_t, VoidType):
                return decay(self.stype(expr.else_expr))
            return then_t
        if isinstance(expr, cast.Call):
            callee_t = decay(self.stype(expr.func))
            if isinstance(callee_t, PointerType):
                callee_t = callee_t.pointee
            if isinstance(callee_t, FunctionType):
                return callee_t.return_type
            raise SimplifyError(f"call of non-function type {callee_t}", expr.loc)
        if isinstance(expr, cast.Subscript):
            base_t = decay(self.stype(expr.base))
            if isinstance(base_t, PointerType):
                return base_t.pointee
            raise SimplifyError(f"cannot index type {base_t}", expr.loc)
        if isinstance(expr, cast.Member):
            base_t = self.stype(expr.base)
            if expr.arrow:
                base_t = decay(base_t)
                if not isinstance(base_t, PointerType):
                    raise SimplifyError(
                        f"'->' on non-pointer type {base_t}", expr.loc
                    )
                base_t = base_t.pointee
            if not isinstance(base_t, StructType):
                raise SimplifyError(
                    f"member access on non-struct type {base_t}", expr.loc
                )
            field_t = base_t.field_type(expr.field)
            if field_t is None:
                raise SimplifyError(
                    f"no field '{expr.field}' in {base_t}", expr.loc
                )
            return field_t
        if isinstance(expr, cast.Cast):
            return expr.to_type
        if isinstance(expr, (cast.SizeofType, cast.SizeofExpr)):
            return INT
        if isinstance(expr, cast.Comma):
            return self.stype(expr.exprs[-1])
        raise SimplifyError(f"cannot type expression {type(expr).__name__}")

    # -- lvalue lowering ---------------------------------------------------

    def lvalue(self, expr: cast.Expr) -> tuple[Ref, CType]:
        """Lower an lvalue expression to a SIMPLE reference."""
        if isinstance(expr, cast.Ident):
            unique = self.resolve(expr.name)
            if unique is None:
                if expr.name in self.program.global_types:
                    unique = expr.name
                else:
                    raise SimplifyError(
                        f"'{expr.name}' is not an assignable variable", expr.loc
                    )
            ctype = self.var_type(unique)
            assert ctype is not None
            return Ref(unique), ctype

        if isinstance(expr, cast.Unary) and expr.op == "*":
            pointee = self.stype(expr)
            var = self.plain_var_value(expr.operand)
            return Ref(var, deref=True), pointee

        if isinstance(expr, cast.Member):
            field_t = self.stype(expr)
            if expr.arrow:
                var = self.plain_var_value(expr.base)
                return Ref(var, deref=True).with_field(expr.field), field_t
            base_ref, _ = self.lvalue(expr.base)
            return base_ref.with_field(expr.field), field_t

        if isinstance(expr, cast.Subscript):
            elem_t = self.stype(expr)
            base_t = self.stype(expr.base)
            index_class = self.classify_index(expr.index)
            # The concrete index operand rides along for the
            # interpreter (side effects in the index are emitted here).
            index_op = self.operand(expr.index)
            if isinstance(base_t, ArrayType):
                base_ref, _ = self.lvalue(expr.base)
                return base_ref.with_index(index_class, index_op), elem_t
            # Pointer indexing: *(p + i), staying within the target.
            var = self.plain_var_value(expr.base)
            return Ref(var, deref=True).with_index(index_class, index_op), elem_t

        if isinstance(expr, cast.Cast):
            ref, _ = self.lvalue(expr.operand)
            return ref, expr.to_type

        # Fall back: materialize the value in a temporary (e.g. the
        # struct result of a call used as `f().x`).
        op = self.operand(expr)
        ctype = self.stype(expr)
        if isinstance(op, Ref):
            return op, ctype
        temp = self.fresh_temp(ctype)
        self._emit_assign(Ref(temp), ctype, op)
        return Ref(temp), ctype

    def plain_var_value(self, expr: cast.Expr) -> str:
        """Get the value of a pointer expression into a *plain* variable."""
        if isinstance(expr, cast.Ident):
            unique = self.resolve(expr.name)
            if unique is None and expr.name in self.program.global_types:
                unique = expr.name
            if unique is not None:
                ctype = self.var_type(unique)
                if ctype is not None and not isinstance(ctype, ArrayType):
                    return unique
        op = self.operand(expr)
        if isinstance(op, Ref) and op.is_plain_var:
            return op.base
        ctype = decay(self.stype(expr))
        temp = self.fresh_temp(ctype)
        self._emit_assign(Ref(temp), ctype, op)
        return temp

    def classify_index(self, expr: cast.Expr) -> IndexClass:
        if isinstance(expr, cast.IntLit):
            if expr.value == 0:
                return IndexClass.ZERO
            if expr.value > 0:
                return IndexClass.POSITIVE
        return IndexClass.UNKNOWN

    # -- rvalue lowering -----------------------------------------------

    def operand(self, expr: cast.Expr) -> Operand:
        """Lower an rvalue expression, emitting side effects; return the
        operand holding its value."""
        if isinstance(expr, cast.IntLit):
            return Const(expr.value)
        if isinstance(expr, cast.FloatLit):
            return Const(expr.value)
        if isinstance(expr, cast.StringLit):
            self.program.ensure_string_literal_var()
            return AddrOf(Ref(STRING_LIT_VAR))

        if isinstance(expr, cast.Ident):
            unique = self.resolve(expr.name)
            if unique is None and expr.name in self.program.global_types:
                unique = expr.name
            if unique is not None:
                return Ref(unique)
            fn_type = self.program.function_type(expr.name)
            if fn_type is not None:
                return AddrOf(Ref(expr.name))
            raise SimplifyError(f"undeclared identifier '{expr.name}'", expr.loc)

        if isinstance(expr, cast.Unary):
            return self._operand_unary(expr)
        if isinstance(expr, cast.Binary):
            return self._operand_binary(expr)
        if isinstance(expr, cast.Assign):
            return self._operand_assign(expr)
        if isinstance(expr, cast.Conditional):
            return self._operand_conditional(expr)
        if isinstance(expr, cast.Call):
            op = self.handle_call(expr, want_value=True)
            assert op is not None
            return op
        if isinstance(expr, (cast.Subscript, cast.Member)):
            ref, _ = self.lvalue(expr)
            return ref
        if isinstance(expr, cast.Cast):
            if isinstance(expr.operand, cast.Call) and _is_pointerish(
                expr.to_type
            ):
                # `(T *) f()` with an implicitly-declared f: the result
                # temporary must carry the pointer type, or the value
                # is lost to the analysis.
                op = self.handle_call(
                    expr.operand, want_value=True, result_type=expr.to_type
                )
                assert op is not None
                return op
            return self.operand(expr.operand)
        if isinstance(expr, (cast.SizeofType, cast.SizeofExpr)):
            return Const(4)
        if isinstance(expr, cast.Comma):
            result: Operand = Const(0)
            for item in expr.exprs:
                result = self.operand(item)
            return result
        if isinstance(expr, cast.InitList):
            raise SimplifyError(
                "initializer list outside a declaration", expr.loc
            )
        raise SimplifyError(f"cannot lower {type(expr).__name__}")

    def _operand_unary(self, expr: cast.Unary) -> Operand:
        op = expr.op
        if op == "&":
            inner = expr.operand
            if isinstance(inner, cast.Unary) and inner.op == "*":
                return self.operand(inner.operand)  # &*e == e
            if isinstance(inner, cast.Ident):
                if (
                    self.resolve(inner.name) is None
                    and inner.name not in self.program.global_types
                    and self.program.function_type(inner.name) is not None
                ):
                    return AddrOf(Ref(inner.name))  # &f == f
            ref, _ = self.lvalue(inner)
            if ref.deref and not ref.path:
                return Ref(ref.base)  # &(*p) == p
            return AddrOf(ref)
        if op == "*":
            ref, _ = self.lvalue(expr)
            return ref
        if op in ("++pre", "--pre", "++post", "--post"):
            return self._operand_incdec(expr)
        # Arithmetic/logical unary operators.
        inner_op = self.operand(expr.operand)
        if isinstance(inner_op, Const) and isinstance(inner_op.value, (int, float)):
            value = inner_op.value
            if op == "-":
                return Const(-value)
            if op == "+":
                return Const(value)
            if op == "~" and isinstance(value, int):
                return Const(~value)
            if op == "!":
                return Const(int(not value))
        ctype = self.stype(expr)
        temp = self.fresh_temp(ctype)
        stmt = BasicStmt(
            BasicKind.UNOP,
            lhs=Ref(temp),
            op=op,
            operands=(inner_op,),
            lhs_type=ctype,
        )
        self.emit(stmt, expr.loc)
        return Ref(temp)

    def _operand_incdec(self, expr: cast.Unary) -> Operand:
        ref, ctype = self.lvalue(expr.operand)
        delta_op = "+" if expr.op in ("++pre", "++post") else "-"
        if expr.op in ("++post", "--post"):
            temp = self.fresh_temp(ctype)
            self._emit_assign(Ref(temp), ctype, ref)
            self._emit_incdec(ref, ctype, delta_op, expr.loc)
            return Ref(temp)
        self._emit_incdec(ref, ctype, delta_op, expr.loc)
        return ref

    def _emit_incdec(
        self, ref: Ref, ctype: CType, delta_op: str, loc: SourceLoc
    ) -> None:
        stmt = BasicStmt(
            BasicKind.BINOP,
            lhs=ref,
            op=delta_op,
            operands=(ref, Const(1)),
            lhs_type=ctype,
        )
        self.emit(stmt, loc)

    def _operand_binary(self, expr: cast.Binary) -> Operand:
        if expr.op in ("&&", "||"):
            return self._operand_logical(expr)
        left = self.operand(expr.left)
        right = self.operand(expr.right)
        if (
            isinstance(left, Const)
            and isinstance(right, Const)
            and isinstance(left.value, (int, float))
            and isinstance(right.value, (int, float))
        ):
            folded = _fold_binary(expr.op, left.value, right.value)
            if folded is not None:
                return Const(folded)
        ctype = self.stype(expr)
        temp = self.fresh_temp(ctype)
        stmt = BasicStmt(
            BasicKind.BINOP,
            lhs=Ref(temp),
            op=expr.op,
            operands=(left, right),
            lhs_type=ctype,
        )
        self.emit(stmt, expr.loc)
        return Ref(temp)

    def hazards(self, expr: cast.Expr) -> tuple[bool, bool]:
        """Whether evaluating ``expr`` has side effects, and whether it
        may fault (dereference, member access through a pointer,
        indexing, a call) — such expressions must stay behind a
        short-circuit.  Computed once per node: ``&&``/``||`` probe
        their right operand, and re-probing a right-nested chain's
        tail at every level would be quadratic in its length."""
        entry = self._hazards.get(id(expr))
        if entry is None:
            entry = self._hazards[id(expr)] = (expr, self._hazards_of(expr))
        return entry[1]

    def _hazards_of(self, expr: cast.Expr) -> tuple[bool, bool]:
        if isinstance(expr, cast.Call):
            return True, True
        if isinstance(expr, cast.Assign):
            return True, False
        if isinstance(expr, cast.Unary):
            effects, traps = self.hazards(expr.operand)
            if expr.op in ("++pre", "--pre", "++post", "--post"):
                effects = True
            elif expr.op == "*":
                traps = True
            elif expr.op == "&":
                traps = False  # &e computes an address, no access
            return effects, traps
        if isinstance(expr, cast.Member):
            effects, traps = self.hazards(expr.base)
            return effects, expr.arrow or traps
        if isinstance(expr, cast.Subscript):
            return self.hazards(expr.base)[0] or self.hazards(expr.index)[0], True
        if isinstance(expr, cast.Cast):
            return self.hazards(expr.operand)
        if isinstance(expr, cast.Binary):
            parts = (expr.left, expr.right)
        elif isinstance(expr, cast.Conditional):
            parts = (expr.cond, expr.then_expr, expr.else_expr)
        elif isinstance(expr, cast.Comma):
            parts = expr.exprs
        else:
            return False, False
        effects = traps = False
        for part in parts:
            part_effects, part_traps = self.hazards(part)
            effects = effects or part_effects
            traps = traps or part_traps
        return effects, traps

    def _operand_logical(self, expr: cast.Binary) -> Operand:
        """Short-circuit && and ||, preserving conditional side effects
        and keeping possibly-trapping operands behind the guard."""
        if self.hazards(expr.right) == (False, False):
            left = self.operand(expr.left)
            right = self.operand(expr.right)
            temp = self.fresh_temp(INT)
            stmt = BasicStmt(
                BasicKind.BINOP,
                lhs=Ref(temp),
                op=expr.op,
                operands=(left, right),
                lhs_type=INT,
            )
            self.emit(stmt, expr.loc)
            return Ref(temp)
        left = self.operand(expr.left)
        temp = self.fresh_temp(INT)

        def eval_right() -> None:
            right = self.operand(expr.right)
            self.emit(
                BasicStmt(
                    BasicKind.UNOP,
                    lhs=Ref(temp),
                    op="!",
                    operands=(right,),
                    lhs_type=INT,
                ),
                expr.loc,
            )
            self.emit(
                BasicStmt(
                    BasicKind.UNOP,
                    lhs=Ref(temp),
                    op="!",
                    operands=(Ref(temp),),
                    lhs_type=INT,
                ),
                expr.loc,
            )

        def const_result(value: int) -> None:
            self.emit(
                BasicStmt(
                    BasicKind.CONST,
                    lhs=Ref(temp),
                    rvalue=Const(value),
                    lhs_type=INT,
                ),
                expr.loc,
            )

        then_block = self.collect(
            eval_right if expr.op == "&&" else lambda: const_result(1)
        )
        else_block = self.collect(
            (lambda: const_result(0)) if expr.op == "&&" else eval_right
        )
        self.emit(SIf(left, then_block, else_block), expr.loc)
        return Ref(temp)

    def _operand_assign(self, expr: cast.Assign) -> Operand:
        self.do_assign(expr)
        ref, _ = self.lvalue(expr.target)
        return ref

    def _operand_conditional(self, expr: cast.Conditional) -> Operand:
        cond = self.operand(expr.cond)
        ctype = decay(self.stype(expr))
        if isinstance(ctype, VoidType):
            then_block = self.collect(lambda: self.operand(expr.then_expr))
            else_block = self.collect(lambda: self.operand(expr.else_expr))
            self.emit(SIf(cond, then_block, else_block), expr.loc)
            return Const(0)
        temp = self.fresh_temp(ctype)

        def arm(sub: cast.Expr):
            def run() -> None:
                value = self.operand(sub)
                self._emit_assign(Ref(temp), ctype, value)

            return run

        then_block = self.collect(arm(expr.then_expr))
        else_block = self.collect(arm(expr.else_expr))
        self.emit(SIf(cond, then_block, else_block), expr.loc)
        return Ref(temp)

    # -- assignments -----------------------------------------------------

    def _emit_assign(
        self, lhs: Ref, lhs_type: CType, value: Operand, loc: SourceLoc | None = None
    ) -> None:
        if isinstance(value, AddrOf):
            kind = BasicKind.ADDR
        elif isinstance(value, Const):
            kind = BasicKind.CONST
        else:
            kind = BasicKind.COPY
        stmt = BasicStmt(kind, lhs=lhs, rvalue=value, lhs_type=lhs_type)
        self.emit(stmt, loc or stmt.loc)

    def do_assign(self, expr: cast.Assign) -> None:
        """Lower an assignment (simple or compound)."""
        if expr.op == "=":
            if isinstance(expr.value, cast.Call):
                lhs, lhs_t = self.lvalue(expr.target)
                self.handle_call(expr.value, want_value=False, lhs=lhs, lhs_type=lhs_t)
                return
            value = self.operand(expr.value)
            lhs, lhs_t = self.lvalue(expr.target)
            self._emit_assign(lhs, lhs_t, value, expr.loc)
            return
        # Compound assignment: lhs = lhs op rhs.
        binop = expr.op[:-1]
        value = self.operand(expr.value)
        lhs, lhs_t = self.lvalue(expr.target)
        stmt = BasicStmt(
            BasicKind.BINOP,
            lhs=lhs,
            op=binop,
            operands=(lhs, value),
            lhs_type=lhs_t,
        )
        self.emit(stmt, expr.loc)

    # -- calls -----------------------------------------------------------

    def handle_call(
        self,
        expr: cast.Call,
        want_value: bool,
        lhs: Ref | None = None,
        lhs_type: CType | None = None,
        result_type: CType | None = None,
    ) -> Operand | None:
        callee = expr.func
        # (*fp)(...) and (**fp)(...) are the same call as fp(...).
        while isinstance(callee, cast.Unary) and callee.op == "*":
            callee = callee.operand

        callee_name: str | None = None
        callee_ptr: str | None = None
        return_type: CType

        if isinstance(callee, cast.Ident) and self.resolve(callee.name) is None and (
            callee.name not in self.program.global_types
        ):
            fn_type = self.program.function_type(callee.name)
            if fn_type is None:
                fn_type = self.program.implicit_function(callee.name, callee.loc)
            callee_name = callee.name
            return_type = fn_type.return_type
        else:
            callee_t = decay(self.stype(callee))
            if isinstance(callee_t, PointerType) and isinstance(
                callee_t.pointee, FunctionType
            ):
                return_type = callee_t.pointee.return_type
            else:
                raise SimplifyError(
                    f"call through non-function-pointer type {callee_t}",
                    expr.loc,
                )
            callee_ptr = self.plain_var_value(callee)

        if lhs is not None and isinstance(return_type, VoidType):
            raise SimplifyError("using the value of a void call", expr.loc)

        args = tuple(self.plain_operand(arg) for arg in expr.args)

        is_alloc = callee_name in HEAP_ALLOCATORS
        kind = BasicKind.ALLOC if is_alloc else BasicKind.CALL

        if lhs is None and (want_value or is_alloc) and not isinstance(
            return_type, VoidType
        ):
            result_t = result_type or return_type
            temp = self.fresh_temp(result_t)
            lhs = Ref(temp)
            lhs_type = result_t

        stmt = BasicStmt(
            kind,
            lhs=lhs,
            callee=callee_name,
            callee_ptr=callee_ptr,
            args=args,
            lhs_type=lhs_type,
            call_site=self.program.next_call_site(),
        )
        self.emit(stmt, expr.loc)
        if want_value:
            if lhs is None:
                raise SimplifyError("using the value of a void call", expr.loc)
            return lhs
        return None

    def plain_operand(self, expr: cast.Expr) -> Operand:
        """Lower an argument to a constant or a plain variable name."""
        op = self.operand(expr)
        if isinstance(op, Const):
            return op
        if isinstance(op, Ref) and op.is_plain_var:
            ctype = self.var_type(op.base)
            if ctype is not None and not isinstance(ctype, ArrayType):
                return op
        ctype = decay(self.stype(expr))
        temp = self.fresh_temp(ctype)
        if isinstance(op, Ref) and op.is_plain_var and isinstance(
            self.var_type(op.base), ArrayType
        ):
            # Passing an array decays to a pointer to its first element.
            op = AddrOf(Ref(op.base).with_index(IndexClass.ZERO, Const(0)))
        self._emit_assign(Ref(temp), ctype, op)
        return Ref(temp)

    # -- statements --------------------------------------------------------

    def simplify_stmt(self, stmt: cast.Stmt) -> None:
        if isinstance(stmt, cast.ExprStmt):
            self._simplify_expr_stmt(stmt.expr)
        elif isinstance(stmt, cast.DeclStmt):
            self._simplify_decls(stmt.decls)
        elif isinstance(stmt, cast.Compound):
            self.scopes.append({})
            try:
                for child in stmt.stmts:
                    self.simplify_stmt(child)
            finally:
                self.scopes.pop()
        elif isinstance(stmt, cast.If):
            self._simplify_if(stmt)
        elif isinstance(stmt, cast.While):
            self._simplify_while(stmt)
        elif isinstance(stmt, cast.DoWhile):
            self._simplify_do_while(stmt)
        elif isinstance(stmt, cast.For):
            self._simplify_for(stmt)
        elif isinstance(stmt, cast.Switch):
            self._simplify_switch(stmt)
        elif isinstance(stmt, cast.Break):
            self.emit(SBreak(), stmt.loc)
        elif isinstance(stmt, cast.Continue):
            self.emit(SContinue(), stmt.loc)
        elif isinstance(stmt, cast.Return):
            value = None
            if stmt.value is not None:
                value = self.operand(stmt.value)
            self.emit(SReturn(value), stmt.loc)
        elif isinstance(stmt, cast.Label):
            self._simplify_label(stmt)
        elif isinstance(stmt, cast.Empty):
            pass
        elif isinstance(stmt, (cast.Case, cast.Default)):
            raise SimplifyError("'case' label outside a switch", stmt.loc)
        else:
            raise SimplifyError(f"cannot lower {type(stmt).__name__}", stmt.loc)

    def _simplify_expr_stmt(self, expr: cast.Expr) -> None:
        if isinstance(expr, cast.Assign):
            self.do_assign(expr)
        elif isinstance(expr, cast.Call):
            self.handle_call(expr, want_value=False)
        elif isinstance(expr, cast.Comma):
            for item in expr.exprs:
                self._simplify_expr_stmt(item)
        elif isinstance(expr, cast.Unary) and expr.op in (
            "++pre",
            "--pre",
            "++post",
            "--post",
        ):
            ref, ctype = self.lvalue(expr.operand)
            delta_op = "+" if "++" in expr.op else "-"
            self._emit_incdec(ref, ctype, delta_op, expr.loc)
        elif self.hazards(expr)[0]:
            self.operand(expr)
        # A pure expression statement is a no-op.

    def _simplify_decls(self, decls: list[cast.VarDecl]) -> None:
        for decl in decls:
            unique = self.declare_local(decl.name, decl.type)
            if decl.init is not None:
                self._init_ref(Ref(unique), decl.type, decl.init)

    def _init_ref(self, ref: Ref, ctype: CType, init: cast.Expr) -> None:
        if isinstance(init, cast.InitList):
            if isinstance(ctype, ArrayType):
                for position, item in enumerate(init.items):
                    index = IndexClass.ZERO if position == 0 else IndexClass.POSITIVE
                    self._init_ref(
                        ref.with_index(index, Const(position)),
                        ctype.element,
                        item,
                    )
                return
            if isinstance(ctype, StructType):
                for field, item in zip(ctype.fields, init.items):
                    self._init_ref(ref.with_field(field.name), field.type, item)
                return
            if len(init.items) == 1:
                self._init_ref(ref, ctype, init.items[0])
                return
            raise SimplifyError("bad initializer list", init.loc)
        if isinstance(init, cast.Call):
            self.handle_call(init, want_value=False, lhs=ref, lhs_type=ctype)
            return
        value = self.operand(init)
        self._emit_assign(ref, ctype, value, init.loc)

    def _lower_condition(self, cond: cast.Expr) -> tuple[SBlock, Operand]:
        """Lower a condition; return (evaluation block, test operand)."""
        block = [None]

        def run() -> None:
            block[0] = self.operand(cond)

        eval_block = self.collect(run)
        return eval_block, block[0]

    def _simplify_if(self, stmt: cast.If) -> None:
        cond = self.operand(stmt.cond)
        then_block = self.collect(lambda: self.simplify_stmt(stmt.then_stmt))
        else_block = None
        if stmt.else_stmt is not None:
            else_block = self.collect(lambda: self.simplify_stmt(stmt.else_stmt))
        self.emit(SIf(cond, then_block, else_block), stmt.loc)

    @staticmethod
    def _const_truth(op: Operand) -> bool | None:
        if isinstance(op, Const) and isinstance(op.value, (int, float)):
            return bool(op.value)
        return None

    def _simplify_while(self, stmt: cast.While) -> None:
        cond_eval, cond = self._lower_condition(stmt.cond)
        body = self.collect(lambda: self.simplify_stmt(stmt.body))
        if self._const_truth(cond) is True:
            cond = None
        self.emit(SWhile(cond, body, cond_eval), stmt.loc)

    def _simplify_do_while(self, stmt: cast.DoWhile) -> None:
        body = self.collect(lambda: self.simplify_stmt(stmt.body))
        cond_eval, cond = self._lower_condition(stmt.cond)
        if self._const_truth(cond) is True:
            cond = None
        self.emit(SDoWhile(body, cond, cond_eval), stmt.loc)

    def _simplify_for(self, stmt: cast.For) -> None:
        self.scopes.append({})
        try:
            def run_init() -> None:
                if stmt.init_decls is not None:
                    self._simplify_decls(stmt.init_decls)
                elif stmt.init is not None:
                    self._simplify_expr_stmt(stmt.init)

            init_block = self.collect(run_init)
            if stmt.cond is not None:
                cond_eval, cond = self._lower_condition(stmt.cond)
                if self._const_truth(cond) is True:
                    cond = None
            else:
                cond_eval, cond = SBlock([]), None
            step_block = self.collect(
                lambda: stmt.step is not None and self._simplify_expr_stmt(stmt.step)
            )
            body = self.collect(lambda: self.simplify_stmt(stmt.body))
            self.emit(SFor(init_block, cond, step_block, body, cond_eval), stmt.loc)
        finally:
            self.scopes.pop()

    def _simplify_switch(self, stmt: cast.Switch) -> None:
        cond = self.operand(stmt.cond)
        switch = SSwitch(cond)
        body_stmts: list[cast.Stmt]
        if isinstance(stmt.body, cast.Compound):
            body_stmts = stmt.body.stmts
        else:
            body_stmts = [stmt.body]

        self.scopes.append({})
        try:
            arms: list[list] = []  # [values, is_default, stmts]
            current: list[cast.Stmt] | None = None
            for item in body_stmts:
                values, is_default, inner = self._peel_case_labels(item)
                if values or is_default:
                    if arms and not arms[-1][2]:
                        # `case 1: case 2: ...` — empty label folds into
                        # the next arm.
                        arms[-1][0] = arms[-1][0] + values
                        arms[-1][1] = arms[-1][1] or is_default
                        current = arms[-1][2]
                        current.extend(inner)
                    else:
                        current = list(inner) if inner else []
                        arms.append([values, is_default, current])
                elif current is not None:
                    current.append(item)
                # Statements before the first case label are unreachable.

            for values, is_default, stmts in arms:
                def run(stmts=stmts) -> None:
                    for child in stmts:
                        self.simplify_stmt(child)

                block = self.collect(run)
                falls_through = not _ends_with_jump(block)
                if block.stmts and isinstance(block.stmts[-1], SBreak):
                    block.stmts.pop()
                    falls_through = False
                switch.cases.append(
                    SSwitchCase(values, block, falls_through)
                )
                if is_default:
                    switch.has_default = True
        finally:
            self.scopes.pop()
        self.emit(switch, stmt.loc)

    def _peel_case_labels(
        self, stmt: cast.Stmt
    ) -> tuple[tuple[int, ...], bool, list[cast.Stmt]]:
        """Collect chained case/default labels and the labeled statement."""
        values: list[int] = []
        is_default = False
        current = stmt
        while True:
            if isinstance(current, cast.Case):
                value = _eval_case_const(current.value)
                if value is None:
                    raise SimplifyError("non-constant case label", current.loc)
                values.append(value)
                if current.stmt is None:
                    return tuple(values), is_default, []
                current = current.stmt
            elif isinstance(current, cast.Default):
                is_default = True
                if current.stmt is None:
                    return tuple(values), is_default, []
                current = current.stmt
            else:
                if values or is_default:
                    return tuple(values), is_default, [current]
                return (), False, []

    def _simplify_label(self, stmt: cast.Label) -> None:
        before = len(self.blocks[-1])
        if stmt.stmt is not None:
            self.simplify_stmt(stmt.stmt)
        if len(self.blocks[-1]) == before:
            self.emit(BasicStmt(BasicKind.NOP), stmt.loc)
        target = self.blocks[-1][before]
        self.program.register_label(stmt.name)
        target.labels = target.labels + (stmt.name,)

    # -- driver ------------------------------------------------------------

    def run(self) -> SimpleFunction:
        def run_body() -> None:
            for child in self.fn.body.stmts:
                self.simplify_stmt(child)

        body = self.collect(run_body)
        params = [(p.name, p.type) for p in self.fn.params]
        return SimpleFunction(
            name=self.fn.name,
            return_type=self.fn.return_type,
            params=params,
            local_types=self.local_types,
            body=body,
            variadic=self.fn.variadic,
        )


def _ends_with_jump(block: SBlock) -> bool:
    if not block.stmts:
        return False
    last = block.stmts[-1]
    return isinstance(last, (SBreak, SContinue, SReturn))


def _eval_case_const(expr: cast.Expr) -> int | None:
    if isinstance(expr, cast.IntLit):
        return expr.value
    if isinstance(expr, cast.Unary) and expr.op == "-":
        inner = _eval_case_const(expr.operand)
        return None if inner is None else -inner
    return None


def _fold_binary(op: str, left, right):
    try:
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            if right == 0:
                return None
            if isinstance(left, int) and isinstance(right, int):
                return left // right
            return left / right
        if op == "%":
            if right == 0 or not isinstance(left, int):
                return None
            return left % right
        if op == "<<":
            return left << right
        if op == ">>":
            return left >> right
        if op == "&":
            return left & right
        if op == "|":
            return left | right
        if op == "^":
            return left ^ right
        if op == "==":
            return int(left == right)
        if op == "!=":
            return int(left != right)
        if op == "<":
            return int(left < right)
        if op == ">":
            return int(left > right)
        if op == "<=":
            return int(left <= right)
        if op == ">=":
            return int(left >= right)
    except TypeError:
        return None
    return None


class _ProgramSimplifier:
    """Lowers a whole translation unit."""

    def __init__(self, unit: TranslationUnit, source_lines: int = 0):
        self.unit = unit
        self.global_types: dict[str, CType] = {
            g.name: g.type for g in unit.globals
        }
        self.externals: dict[str, CType] = {}
        self.label_names: set[str] = set()
        self.implicit_decls: dict[str, FunctionType] = {}
        self._call_site_counter = 0
        self.source_lines = source_lines

    def next_call_site(self) -> int:
        self._call_site_counter += 1
        return self._call_site_counter

    def function_type(self, name: str) -> FunctionType | None:
        proto = self.unit.prototypes.get(name)
        if isinstance(proto, FunctionType):
            return proto
        return self.implicit_decls.get(name)

    def implicit_function(self, name: str, loc: SourceLoc) -> FunctionType:
        """Implicit declaration.  Known allocators and pointer-returning
        library functions get their real return type; everything else
        follows C89 (``int name(...)``)."""
        fn_type = self.implicit_decls.get(name)
        if fn_type is None:
            if name in HEAP_ALLOCATORS:
                return_type: CType = PointerType(VOID)
            elif name in _POINTER_RETURNING_EXTERNALS:
                return_type = PointerType(CHAR)
            else:
                return_type = INT
            fn_type = FunctionType(return_type, (), variadic=True)
            self.implicit_decls[name] = fn_type
        return fn_type

    def ensure_string_literal_var(self) -> None:
        self.global_types.setdefault(STRING_LIT_VAR, ArrayType(CHAR, None))

    def register_label(self, name: str) -> None:
        if name in self.label_names:
            raise SimplifyError(f"duplicate label '{name}'")
        self.label_names.add(name)

    def _lower_global_inits(self) -> SBlock:
        stmts: list[Stmt] = []
        for decl in self.unit.globals:
            if decl.init is None:
                continue
            self._lower_global_init(Ref(decl.name), decl.type, decl.init, stmts)
        return SBlock(stmts)

    def _lower_global_init(
        self, ref: Ref, ctype: CType, init: cast.Expr, out: list[Stmt]
    ) -> None:
        if isinstance(init, cast.InitList):
            if isinstance(ctype, ArrayType):
                for position, item in enumerate(init.items):
                    index = IndexClass.ZERO if position == 0 else IndexClass.POSITIVE
                    self._lower_global_init(
                        ref.with_index(index, Const(position)),
                        ctype.element,
                        item,
                        out,
                    )
                return
            if isinstance(ctype, StructType):
                for field, item in zip(ctype.fields, init.items):
                    self._lower_global_init(
                        ref.with_field(field.name), field.type, item, out
                    )
                return
            if len(init.items) == 1:
                self._lower_global_init(ref, ctype, init.items[0], out)
                return
            raise SimplifyError("bad global initializer list", init.loc)
        operand = self._global_const_operand(init)
        if isinstance(operand, AddrOf):
            kind = BasicKind.ADDR
        else:
            kind = BasicKind.CONST
        out.append(BasicStmt(kind, lhs=ref, rvalue=operand, lhs_type=ctype))

    def _global_const_operand(self, expr: cast.Expr) -> Operand:
        if isinstance(expr, cast.IntLit):
            return Const(expr.value)
        if isinstance(expr, cast.FloatLit):
            return Const(expr.value)
        if isinstance(expr, cast.StringLit):
            self.ensure_string_literal_var()
            return AddrOf(Ref(STRING_LIT_VAR))
        if isinstance(expr, cast.Cast):
            return self._global_const_operand(expr.operand)
        if isinstance(expr, cast.Ident):
            if self.function_type(expr.name) is not None and (
                expr.name not in self.global_types
            ):
                return AddrOf(Ref(expr.name))
            if expr.name in self.global_types:
                ctype = self.global_types[expr.name]
                if isinstance(ctype, ArrayType):
                    return AddrOf(
                        Ref(expr.name).with_index(IndexClass.ZERO, Const(0))
                    )
            raise SimplifyError(
                f"unsupported global initializer '{expr.name}'", expr.loc
            )
        if isinstance(expr, cast.Unary) and expr.op == "&":
            inner = expr.operand
            if isinstance(inner, cast.Ident):
                return AddrOf(Ref(inner.name))
            if isinstance(inner, cast.Subscript) and isinstance(
                inner.base, cast.Ident
            ):
                index = IndexClass.UNKNOWN
                index_op = None
                if isinstance(inner.index, cast.IntLit):
                    index = (
                        IndexClass.ZERO
                        if inner.index.value == 0
                        else IndexClass.POSITIVE
                    )
                    index_op = Const(inner.index.value)
                return AddrOf(Ref(inner.base.name).with_index(index, index_op))
            if isinstance(inner, cast.Member) and isinstance(
                inner.base, cast.Ident
            ) and not inner.arrow:
                return AddrOf(Ref(inner.base.name).with_field(inner.field))
        if isinstance(expr, (cast.SizeofType, cast.SizeofExpr)):
            return Const(4)
        raise SimplifyError(
            f"unsupported constant initializer {type(expr).__name__}",
            getattr(expr, "loc", None),
        )

    def run(self) -> SimpleProgram:
        functions: dict[str, SimpleFunction] = {}
        global_init = self._lower_global_inits()
        for fn in self.unit.functions:
            functions[fn.name] = _FunctionSimplifier(self, fn).run()
        defined = set(functions)
        externals = {
            name: proto
            for name, proto in self.unit.prototypes.items()
            if name not in defined
        }
        for name, fn_type in self.implicit_decls.items():
            externals.setdefault(name, fn_type)
        return SimpleProgram(
            functions=functions,
            global_types=dict(self.global_types),
            externals=externals,
            global_init=global_init,
            source_lines=self.source_lines,
        )


def simplify_program(unit: TranslationUnit, source_lines: int = 0) -> SimpleProgram:
    """Lower a parsed translation unit to SIMPLE."""
    from repro import obs

    # timed, not span: feeds the "simple.simplify" phase histogram the
    # daemon's merged metrics aggregate.
    with obs.timed("simple.simplify"):
        program = _ProgramSimplifier(unit, source_lines).run()
    if obs.active():
        obs.count("simple.programs")
        obs.count("simple.basic_stmts", program.count_basic_stmts())
        obs.count("simple.functions", len(program.functions))
    return program


def simplify_source(source: str, filename: str = "<source>") -> SimpleProgram:
    """Parse and lower C source text to SIMPLE in one step."""
    unit = parse(source, filename)
    lines = source.count("\n") + 1
    return simplify_program(unit, source_lines=lines)
