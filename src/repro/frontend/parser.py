"""Recursive-descent parser for the supported C subset.

Produces a :class:`repro.frontend.cast.TranslationUnit`.  Typedef names
are resolved through the symbol table while parsing (the classic lexer
feedback problem is handled parser-side: the token stream never changes,
the *parser* asks the symbol table whether an identifier names a type).

Unsupported constructs (``goto``, bit-fields, K&R-style definitions)
raise :class:`ParseError` with the offending source location.
"""

from __future__ import annotations

from types import SimpleNamespace

from repro.frontend import cast
from repro.frontend.ctypes import (
    CHAR,
    DOUBLE,
    FLOAT,
    INT,
    LONG,
    SHORT,
    VOID,
    ArrayType,
    CType,
    EnumType,
    FunctionType,
    IntType,
    PointerType,
    StructField,
    StructType,
)
from repro.frontend.errors import ParseError, SourceLoc
from repro.frontend.lexer import tokenize
from repro.frontend.symbols import Symbol, SymbolTable
from repro.frontend.tokens import Token, TokenKind

#: The token kinds as plain attributes.  Reading a member off the Enum
#: class goes through ``EnumType.__getattr__`` on Python 3.11 and
#: costs about fifteen times a plain attribute read; the parser reads
#: one for every kind it tests a token against.
T = SimpleNamespace(**TokenKind.__members__)

_TYPE_SPECIFIER_KINDS = {
    T.VOID,
    T.CHAR,
    T.SHORT,
    T.INT,
    T.LONG,
    T.FLOAT,
    T.DOUBLE,
    T.SIGNED,
    T.UNSIGNED,
    T.STRUCT,
    T.UNION,
    T.ENUM,
}

_QUALIFIER_KINDS = {T.CONST, T.VOLATILE}
_STORAGE_KINDS = {T.TYPEDEF, T.EXTERN, T.STATIC, T.AUTO, T.REGISTER}

_ASSIGN_OPS = {
    T.ASSIGN: "=",
    T.PLUS_ASSIGN: "+=",
    T.MINUS_ASSIGN: "-=",
    T.STAR_ASSIGN: "*=",
    T.SLASH_ASSIGN: "/=",
    T.PERCENT_ASSIGN: "%=",
    T.AMP_ASSIGN: "&=",
    T.PIPE_ASSIGN: "|=",
    T.CARET_ASSIGN: "^=",
    T.LSHIFT_ASSIGN: "<<=",
    T.RSHIFT_ASSIGN: ">>=",
}

#: Binary operator -> (precedence level, spelling), loosest level
#: first.  Every level is left-associative.
_BINARY_OPS: dict[TokenKind, tuple[int, str]] = {
    T.PIPE_PIPE: (0, "||"),
    T.AMP_AMP: (1, "&&"),
    T.PIPE: (2, "|"),
    T.CARET: (3, "^"),
    T.AMP: (4, "&"),
    T.EQ: (5, "=="),
    T.NE: (5, "!="),
    T.LT: (6, "<"),
    T.GT: (6, ">"),
    T.LE: (6, "<="),
    T.GE: (6, ">="),
    T.LSHIFT: (7, "<<"),
    T.RSHIFT: (7, ">>"),
    T.PLUS: (8, "+"),
    T.MINUS: (8, "-"),
    T.STAR: (9, "*"),
    T.SLASH: (9, "/"),
    T.PERCENT: (9, "%"),
}

#: Prefix operators whose operand is a cast expression.
_UNARY_OPS = {
    T.AMP: "&",
    T.STAR: "*",
    T.PLUS: "+",
    T.MINUS: "-",
    T.TILDE: "~",
    T.BANG: "!",
}

#: Binary operators a constant expression may fold (a zero divisor
#: leaves it unfolded).
_CONST_OPS = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a // b if b else None,
    "%": lambda a, b: a % b if b else None,
    "<<": lambda a, b: a << b,
    ">>": lambda a, b: a >> b,
    "&": lambda a, b: a & b,
    "|": lambda a, b: a | b,
    "^": lambda a, b: a ^ b,
    "==": lambda a, b: int(a == b),
    "!=": lambda a, b: int(a != b),
    "<": lambda a, b: int(a < b),
    ">": lambda a, b: int(a > b),
    "<=": lambda a, b: int(a <= b),
    ">=": lambda a, b: int(a >= b),
    "&&": lambda a, b: int(bool(a) and bool(b)),
    "||": lambda a, b: int(bool(a) or bool(b)),
}


class Parser:
    """Parses a token stream into a translation unit."""

    def __init__(self, source: str, filename: str = "<source>"):
        tokens = tokenize(source, filename)
        # A second EOF lets one-token lookahead index past the end
        # without a bounds check.
        tokens.append(tokens[-1])
        self.tokens = tokens
        self.pos = 0
        self.symtab = SymbolTable()
        self.unit = cast.TranslationUnit()
        self._anon_tag_counter = 0

    # ------------------------------------------------------------------
    # Token stream helpers
    # ------------------------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        return self.tokens[self.pos + offset]

    def _at(self, kind: TokenKind) -> bool:
        return self.tokens[self.pos].kind is kind

    def _advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind is not T.EOF:
            self.pos += 1
        return tok

    def _expect(self, kind: TokenKind) -> Token:
        tok = self._peek()
        if tok.kind is not kind:
            raise ParseError(
                f"expected {kind.value!r}, found {tok.spelling!r}", tok.loc
            )
        return self._advance()

    def _accept(self, kind: TokenKind) -> Token | None:
        if self._at(kind):
            return self._advance()
        return None

    def _loc(self) -> SourceLoc:
        return self._peek().loc

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

    def parse_translation_unit(self) -> cast.TranslationUnit:
        while not self._at(T.EOF):
            self._parse_external_declaration()
        return self.unit

    # ------------------------------------------------------------------
    # Declarations
    # ------------------------------------------------------------------

    def _starts_declaration(self) -> bool:
        tok = self._peek()
        if tok.kind in _TYPE_SPECIFIER_KINDS:
            return True
        if tok.kind in _QUALIFIER_KINDS or tok.kind in _STORAGE_KINDS:
            return True
        if tok.kind is T.IDENT:
            return self.symtab.current.is_typedef(str(tok.value))
        return False

    def _parse_external_declaration(self) -> None:
        loc = self._loc()
        storage, base_type = self._parse_declaration_specifiers()

        # A bare `struct S { ... };` or `enum E {...};` declaration.
        if self._accept(T.SEMI):
            return

        name, full_type, param_decls = self._parse_declarator(base_type)
        if name is None:
            raise ParseError("expected a declared name", loc)

        if isinstance(full_type, FunctionType) and self._at(T.LBRACE):
            self._parse_function_definition(name, full_type, param_decls, loc)
            return

        # Non-definition: global variables and prototypes.
        while True:
            self._declare_top_level(name, full_type, storage, loc)
            if not self._accept(T.COMMA):
                break
            name, full_type, param_decls = self._parse_declarator(base_type)
            if name is None:
                raise ParseError("expected a declared name", self._loc())
        self._expect(T.SEMI)

    def _declare_top_level(
        self, name: str, full_type: CType, storage: str | None, loc: SourceLoc
    ) -> None:
        if storage == "typedef":
            self.symtab.declare(Symbol(name, full_type, "typedef"), loc)
            return
        if isinstance(full_type, FunctionType):
            self.symtab.declare(Symbol(name, full_type, "function"), loc)
            self.unit.prototypes.setdefault(name, full_type)
            if self._at(T.ASSIGN):
                raise ParseError("cannot initialize a function", loc)
            return
        init = None
        if self._accept(T.ASSIGN):
            init = self._parse_initializer()
        self.symtab.declare(Symbol(name, full_type, "global"), loc)
        self.unit.globals.append(
            cast.VarDecl(name, full_type, init, storage, loc)
        )

    def _parse_function_definition(
        self,
        name: str,
        fn_type: FunctionType,
        param_decls: list[cast.ParamDecl] | None,
        loc: SourceLoc,
    ) -> None:
        self.symtab.declare(Symbol(name, fn_type, "function"), loc)
        self.unit.prototypes.setdefault(name, fn_type)
        self.symtab.push()
        params = param_decls or []
        for param in params:
            if param.name:
                self.symtab.declare(Symbol(param.name, param.type, "param"), loc)
        body = self._parse_compound()
        self.symtab.pop()
        self.unit.functions.append(
            cast.FunctionDef(
                name,
                fn_type.return_type,
                [p for p in params if p.name],
                body,
                fn_type.variadic,
                loc,
            )
        )

    def _parse_declaration_specifiers(self) -> tuple[str | None, CType]:
        """Parse storage class + type specifiers + qualifiers."""
        storage: str | None = None
        base: CType | None = None
        signedness: bool | None = None
        long_count = 0
        saw_int_like = False

        while True:
            tok = self._peek()
            if tok.kind in _STORAGE_KINDS:
                self._advance()
                if tok.kind is T.TYPEDEF:
                    storage = "typedef"
                elif storage is None:
                    storage = str(tok.value)
            elif tok.kind in _QUALIFIER_KINDS:
                self._advance()
            elif tok.kind is T.VOID:
                self._advance()
                base = VOID
            elif tok.kind is T.CHAR:
                self._advance()
                base = CHAR
                saw_int_like = True
            elif tok.kind is T.SHORT:
                self._advance()
                base = SHORT
                saw_int_like = True
            elif tok.kind is T.INT:
                self._advance()
                if base is None:
                    base = INT
                saw_int_like = True
            elif tok.kind is T.LONG:
                self._advance()
                long_count += 1
                if base is not DOUBLE:  # 'long double' stays a double
                    base = LONG
                saw_int_like = True
            elif tok.kind is T.FLOAT:
                self._advance()
                base = FLOAT
            elif tok.kind is T.DOUBLE:
                self._advance()
                base = DOUBLE
            elif tok.kind is T.SIGNED:
                self._advance()
                signedness = True
                saw_int_like = True
            elif tok.kind is T.UNSIGNED:
                self._advance()
                signedness = False
                saw_int_like = True
            elif tok.kind in (T.STRUCT, T.UNION):
                self._advance()
                base = self._parse_struct_specifier(tok.kind is T.UNION)
            elif tok.kind is T.ENUM:
                self._advance()
                base = self._parse_enum_specifier()
            elif tok.kind is T.IDENT and base is None and not saw_int_like:
                symbol = self.symtab.lookup(str(tok.value))
                if symbol is not None and symbol.kind == "typedef":
                    self._advance()
                    base = symbol.type
                else:
                    break
            else:
                break

        if base is None:
            if saw_int_like or signedness is not None:
                base = INT
            else:
                raise ParseError("expected a type specifier", self._loc())
        if signedness is False and isinstance(base, IntType):
            base = IntType(base.name, signed=False)
        return storage, base

    def _anon_tag(self, prefix: str) -> str:
        self._anon_tag_counter += 1
        return f"__anon_{prefix}_{self._anon_tag_counter}"

    def _parse_struct_specifier(self, is_union: bool) -> StructType:
        tag_tok = self._accept(T.IDENT)
        tag = str(tag_tok.value) if tag_tok else self._anon_tag(
            "union" if is_union else "struct"
        )
        existing = self.symtab.current.lookup_tag(tag)
        if isinstance(existing, StructType) and existing.is_union == is_union:
            struct = existing
        else:
            struct = StructType(tag, [], is_union)
            self.symtab.current.declare_tag(tag, struct)
        if self._accept(T.LBRACE):
            if struct.complete:
                # Re-definition in an inner scope: make a fresh type.
                struct = StructType(tag, [], is_union)
                self.symtab.current.declare_tag(tag, struct)
            fields: list[StructField] = []
            while not self._at(T.RBRACE):
                _, field_base = self._parse_declaration_specifiers()
                while True:
                    fname, ftype, _ = self._parse_declarator(field_base)
                    if fname is None:
                        raise ParseError("expected a field name", self._loc())
                    fields.append(StructField(fname, ftype))
                    if not self._accept(T.COMMA):
                        break
                self._expect(T.SEMI)
            self._expect(T.RBRACE)
            struct.fields = fields
            struct.complete = True
        return struct

    def _parse_enum_specifier(self) -> EnumType:
        tag_tok = self._accept(T.IDENT)
        tag = str(tag_tok.value) if tag_tok else self._anon_tag("enum")
        enum_type = EnumType(tag)
        self.symtab.current.declare_tag(tag, enum_type)
        if self._accept(T.LBRACE):
            next_value = 0
            while not self._at(T.RBRACE):
                name_tok = self._expect(T.IDENT)
                if self._accept(T.ASSIGN):
                    next_value = self._parse_const_int()
                self.symtab.declare(
                    Symbol(str(name_tok.value), INT, "enum_const", next_value),
                    name_tok.loc,
                )
                next_value += 1
                if not self._accept(T.COMMA):
                    break
            self._expect(T.RBRACE)
        return enum_type

    # ------------------------------------------------------------------
    # Declarators
    # ------------------------------------------------------------------

    def _parse_declarator(
        self, base: CType, abstract: bool = False
    ) -> tuple[str | None, CType, list[cast.ParamDecl] | None]:
        """Parse a (possibly abstract) declarator applied to ``base``.

        Returns ``(name, full_type, param_decls)`` where ``param_decls``
        is non-None when the outermost derivation is a function type
        (needed for function definitions).
        """
        ptr_count = 0
        while self._accept(T.STAR):
            ptr_count += 1
            while self._peek().kind in _QUALIFIER_KINDS:
                self._advance()
        for _ in range(ptr_count):
            base = PointerType(base)

        name: str | None = None
        inner_tokens: tuple[int, int] | None = None

        if self._at(T.LPAREN) and self._is_nested_declarator():
            self._advance()
            depth = 1
            start = self.pos
            while depth > 0:
                tok = self._advance()
                if tok.kind is T.LPAREN:
                    depth += 1
                elif tok.kind is T.RPAREN:
                    depth -= 1
                elif tok.kind is T.EOF:
                    raise ParseError("unbalanced parentheses", tok.loc)
            inner_tokens = (start, self.pos - 1)
        elif self._at(T.IDENT):
            name = str(self._advance().value)
        elif not abstract:
            raise ParseError(
                f"expected a declarator, found {self._peek().spelling!r}",
                self._loc(),
            )

        # Suffixes: arrays and function parameter lists.
        suffixes: list[tuple] = []
        outer_params: list[cast.ParamDecl] | None = None
        while True:
            if self._accept(T.LBRACKET):
                length = None
                if not self._at(T.RBRACKET):
                    length = self._parse_const_int()
                self._expect(T.RBRACKET)
                suffixes.append(("array", length))
            elif self._at(T.LPAREN):
                self._advance()
                params, variadic = self._parse_parameter_list()
                self._expect(T.RPAREN)
                suffixes.append(("func", params, variadic))
                if len(suffixes) == 1 and inner_tokens is None:
                    outer_params = params
            else:
                break

        full = base
        for suffix in reversed(suffixes):
            if suffix[0] == "array":
                full = ArrayType(full, suffix[1])
            else:
                _, params, variadic = suffix
                param_types = tuple(p.type for p in params)
                full = FunctionType(full, param_types, variadic)

        if inner_tokens is not None:
            saved = self.pos
            self.pos = inner_tokens[0]
            name, full, inner_params = self._parse_declarator(full, abstract)
            if not self._at(T.RPAREN) or self.pos != inner_tokens[1]:
                # The nested declarator must consume exactly the
                # parenthesized token range.
                raise ParseError("malformed nested declarator", self._loc())
            self.pos = saved
            if outer_params is None and inner_params is not None:
                outer_params = inner_params

        if isinstance(full, FunctionType) and outer_params is None and suffixes:
            first = suffixes[0]
            if first[0] == "func":
                outer_params = first[1]
        return name, full, outer_params

    def _is_nested_declarator(self) -> bool:
        """Disambiguate ``(`` in a declarator: nested vs parameter list."""
        nxt = self._peek(1)
        if nxt.kind in (T.STAR, T.LPAREN, T.LBRACKET):
            return True
        if nxt.kind is T.IDENT:
            return not self.symtab.current.is_typedef(str(nxt.value))
        return False

    def _parse_parameter_list(self) -> tuple[list[cast.ParamDecl], bool]:
        params: list[cast.ParamDecl] = []
        variadic = False
        if self._at(T.RPAREN):
            return params, variadic
        if self._at(T.VOID) and self._peek(1).kind is T.RPAREN:
            self._advance()
            return params, variadic
        while True:
            if self._accept(T.ELLIPSIS):
                variadic = True
                break
            loc = self._loc()
            _, base = self._parse_declaration_specifiers()
            name, ptype, _ = self._parse_declarator(base, abstract=True)
            # Parameter arrays decay to pointers.
            if isinstance(ptype, ArrayType):
                ptype = PointerType(ptype.element)
            if isinstance(ptype, FunctionType):
                ptype = PointerType(ptype)
            params.append(cast.ParamDecl(name or "", ptype, loc))
            if not self._accept(T.COMMA):
                break
        return params, variadic

    def _parse_type_name(self) -> CType:
        _, base = self._parse_declaration_specifiers()
        _, full, _ = self._parse_declarator(base, abstract=True)
        return full

    # ------------------------------------------------------------------
    # Constant expressions (array sizes, enum values, case labels)
    # ------------------------------------------------------------------

    def _parse_const_int(self) -> int:
        expr = self._parse_conditional()
        value = self._eval_const(expr)
        if value is None:
            raise ParseError("expected an integer constant expression", self._loc())
        return value

    def _eval_const(self, expr: cast.Expr) -> int | None:
        if isinstance(expr, cast.IntLit):
            return expr.value
        if isinstance(expr, cast.Ident):
            symbol = self.symtab.lookup(expr.name)
            if symbol is not None and symbol.kind == "enum_const":
                return symbol.value
            return None
        if isinstance(expr, cast.Unary):
            operand = self._eval_const(expr.operand)
            if operand is None:
                return None
            if expr.op == "-":
                return -operand
            if expr.op == "+":
                return operand
            if expr.op == "~":
                return ~operand
            if expr.op == "!":
                return int(not operand)
            return None
        if isinstance(expr, cast.Binary):
            left = self._eval_const(expr.left)
            right = self._eval_const(expr.right)
            if left is None or right is None:
                return None
            fn = _CONST_OPS.get(expr.op)
            return fn(left, right) if fn else None
        if isinstance(expr, (cast.SizeofType, cast.SizeofExpr)):
            return 4  # nominal size; layout is irrelevant to the analysis
        return None

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------

    def _parse_compound(self) -> cast.Compound:
        loc = self._loc()
        self._expect(T.LBRACE)
        self.symtab.push()
        stmts: list[cast.Stmt] = []
        while not self._at(T.RBRACE):
            stmts.append(self._parse_block_item())
        self._expect(T.RBRACE)
        self.symtab.pop()
        return cast.Compound(stmts, loc)

    def _parse_block_item(self) -> cast.Stmt:
        if self._starts_declaration():
            return self._parse_local_declaration()
        return self._parse_statement()

    def _parse_local_declaration(self) -> cast.DeclStmt:
        loc = self._loc()
        storage, base = self._parse_declaration_specifiers()
        decls: list[cast.VarDecl] = []
        if self._accept(T.SEMI):
            return cast.DeclStmt(decls, loc)
        while True:
            name, full, _ = self._parse_declarator(base)
            if name is None:
                raise ParseError("expected a declared name", self._loc())
            if storage == "typedef":
                self.symtab.declare(Symbol(name, full, "typedef"), loc)
            else:
                init = None
                if self._accept(T.ASSIGN):
                    init = self._parse_initializer()
                kind = "local"
                self.symtab.declare(Symbol(name, full, kind), loc)
                decls.append(cast.VarDecl(name, full, init, storage, loc))
            if not self._accept(T.COMMA):
                break
        self._expect(T.SEMI)
        return cast.DeclStmt(decls, loc)

    def _parse_initializer(self) -> cast.Expr:
        if self._at(T.LBRACE):
            loc = self._loc()
            self._advance()
            items: list[cast.Expr] = []
            while not self._at(T.RBRACE):
                items.append(self._parse_initializer())
                if not self._accept(T.COMMA):
                    break
            self._expect(T.RBRACE)
            return cast.InitList(items, loc)
        return self._parse_assignment()

    def _parse_statement(self) -> cast.Stmt:
        tok = self._peek()
        loc = tok.loc
        kind = tok.kind

        if kind is T.LBRACE:
            return self._parse_compound()
        if kind is T.SEMI:
            self._advance()
            return cast.Empty(loc)
        if kind is T.IF:
            self._advance()
            self._expect(T.LPAREN)
            cond = self._parse_expression()
            self._expect(T.RPAREN)
            then_stmt = self._parse_statement()
            else_stmt = None
            if self._accept(T.ELSE):
                else_stmt = self._parse_statement()
            return cast.If(cond, then_stmt, else_stmt, loc)
        if kind is T.WHILE:
            self._advance()
            self._expect(T.LPAREN)
            cond = self._parse_expression()
            self._expect(T.RPAREN)
            body = self._parse_statement()
            return cast.While(cond, body, loc)
        if kind is T.DO:
            self._advance()
            body = self._parse_statement()
            self._expect(T.WHILE)
            self._expect(T.LPAREN)
            cond = self._parse_expression()
            self._expect(T.RPAREN)
            self._expect(T.SEMI)
            return cast.DoWhile(body, cond, loc)
        if kind is T.FOR:
            return self._parse_for(loc)
        if kind is T.SWITCH:
            self._advance()
            self._expect(T.LPAREN)
            cond = self._parse_expression()
            self._expect(T.RPAREN)
            body = self._parse_statement()
            return cast.Switch(cond, body, loc)
        if kind is T.CASE:
            self._advance()
            value = self._parse_conditional()
            self._expect(T.COLON)
            stmt = None
            if not self._at(T.RBRACE) and not self._at(T.CASE) and not self._at(T.DEFAULT):
                stmt = self._parse_statement()
            return cast.Case(value, stmt, loc)
        if kind is T.DEFAULT:
            self._advance()
            self._expect(T.COLON)
            stmt = None
            if not self._at(T.RBRACE) and not self._at(T.CASE):
                stmt = self._parse_statement()
            return cast.Default(stmt, loc)
        if kind is T.BREAK:
            self._advance()
            self._expect(T.SEMI)
            return cast.Break(loc)
        if kind is T.CONTINUE:
            self._advance()
            self._expect(T.SEMI)
            return cast.Continue(loc)
        if kind is T.RETURN:
            self._advance()
            value = None
            if not self._at(T.SEMI):
                value = self._parse_expression()
            self._expect(T.SEMI)
            return cast.Return(value, loc)
        if kind is T.GOTO:
            raise ParseError(
                "goto is not supported (McCAT structured control flow "
                "before analysis; see DESIGN.md)",
                loc,
            )
        if kind is T.IDENT and self._peek(1).kind is T.COLON:
            name = str(self._advance().value)
            self._advance()  # ':'
            stmt = None
            if not self._at(T.RBRACE):
                stmt = self._parse_statement()
            return cast.Label(name, stmt, loc)

        expr = self._parse_expression()
        self._expect(T.SEMI)
        return cast.ExprStmt(expr, loc)

    def _parse_for(self, loc: SourceLoc) -> cast.For:
        self._advance()  # 'for'
        self._expect(T.LPAREN)
        init_decls: list[cast.VarDecl] | None = None
        init: cast.Expr | None = None
        if self._starts_declaration():
            decl_stmt = self._parse_local_declaration()
            init_decls = decl_stmt.decls
        else:
            if not self._at(T.SEMI):
                init = self._parse_expression()
            self._expect(T.SEMI)
        cond = None
        if not self._at(T.SEMI):
            cond = self._parse_expression()
        self._expect(T.SEMI)
        step = None
        if not self._at(T.RPAREN):
            step = self._parse_expression()
        self._expect(T.RPAREN)
        body = self._parse_statement()
        return cast.For(init, cond, step, body, init_decls, loc)

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------

    def _parse_expression(self) -> cast.Expr:
        loc = self._loc()
        expr = self._parse_assignment()
        if not self._at(T.COMMA):
            return expr
        exprs = [expr]
        while self._accept(T.COMMA):
            exprs.append(self._parse_assignment())
        return cast.Comma(exprs, loc)

    def _parse_assignment(self) -> cast.Expr:
        left = self._parse_conditional()
        tok = self._peek()
        op = _ASSIGN_OPS.get(tok.kind)
        if op is None:
            return left
        self._advance()
        right = self._parse_assignment()
        return cast.Assign(op, left, right, tok.loc)

    def _parse_conditional(self) -> cast.Expr:
        cond = self._parse_binary(0)
        if not self._at(T.QUESTION):
            return cond
        loc = self._advance().loc
        then_expr = self._parse_expression()
        self._expect(T.COLON)
        else_expr = self._parse_conditional()
        return cast.Conditional(cond, then_expr, else_expr, loc)

    def _parse_binary(self, min_level: int) -> cast.Expr:
        """A binary expression of operators at ``min_level`` or tighter,
        by precedence climbing: one call per operator, not one per
        precedence level per operand."""
        left = self._parse_cast()
        tokens = self.tokens
        while True:
            tok = tokens[self.pos]
            entry = _BINARY_OPS.get(tok.kind)
            if entry is None or entry[0] < min_level:
                return left
            level, op = entry
            self.pos += 1
            right = self._parse_binary(level + 1)
            left = cast.Binary(op, left, right, tok.loc)

    def _starts_type_name(self, offset: int = 0) -> bool:
        tok = self._peek(offset)
        if tok.kind in _TYPE_SPECIFIER_KINDS or tok.kind in _QUALIFIER_KINDS:
            return True
        if tok.kind is T.IDENT:
            return self.symtab.current.is_typedef(str(tok.value))
        return False

    def _parse_cast(self) -> cast.Expr:
        if self._at(T.LPAREN) and self._starts_type_name(1):
            loc = self._advance().loc
            to_type = self._parse_type_name()
            self._expect(T.RPAREN)
            operand = self._parse_cast()
            return cast.Cast(to_type, operand, loc)
        return self._parse_unary()

    def _parse_unary(self) -> cast.Expr:
        tok = self._peek()
        loc = tok.loc
        if tok.kind is T.PLUS_PLUS:
            self._advance()
            return cast.Unary("++pre", self._parse_unary(), loc)
        if tok.kind is T.MINUS_MINUS:
            self._advance()
            return cast.Unary("--pre", self._parse_unary(), loc)
        if tok.kind is T.SIZEOF:
            self._advance()
            if self._at(T.LPAREN) and self._starts_type_name(1):
                self._advance()
                of_type = self._parse_type_name()
                self._expect(T.RPAREN)
                return cast.SizeofType(of_type, loc)
            return cast.SizeofExpr(self._parse_unary(), loc)
        op = _UNARY_OPS.get(tok.kind)
        if op is not None:
            self._advance()
            return cast.Unary(op, self._parse_cast(), loc)
        return self._parse_postfix()

    def _parse_postfix(self) -> cast.Expr:
        expr = self._parse_primary()
        while True:
            tok = self._peek()
            if tok.kind is T.LBRACKET:
                self._advance()
                index = self._parse_expression()
                self._expect(T.RBRACKET)
                expr = cast.Subscript(expr, index, tok.loc)
            elif tok.kind is T.LPAREN:
                self._advance()
                args: list[cast.Expr] = []
                while not self._at(T.RPAREN):
                    args.append(self._parse_assignment())
                    if not self._accept(T.COMMA):
                        break
                self._expect(T.RPAREN)
                expr = cast.Call(expr, args, tok.loc)
            elif tok.kind is T.DOT:
                self._advance()
                field = str(self._expect(T.IDENT).value)
                expr = cast.Member(expr, field, False, tok.loc)
            elif tok.kind is T.ARROW:
                self._advance()
                field = str(self._expect(T.IDENT).value)
                expr = cast.Member(expr, field, True, tok.loc)
            elif tok.kind is T.PLUS_PLUS:
                self._advance()
                expr = cast.Unary("++post", expr, tok.loc)
            elif tok.kind is T.MINUS_MINUS:
                self._advance()
                expr = cast.Unary("--post", expr, tok.loc)
            else:
                return expr

    def _parse_primary(self) -> cast.Expr:
        tok = self._peek()
        loc = tok.loc
        if tok.kind is T.INT_CONST:
            self._advance()
            return cast.IntLit(int(tok.value), loc)
        if tok.kind is T.CHAR_CONST:
            self._advance()
            return cast.IntLit(int(tok.value), loc)
        if tok.kind is T.FLOAT_CONST:
            self._advance()
            return cast.FloatLit(float(tok.value), loc)
        if tok.kind is T.STRING:
            self._advance()
            return cast.StringLit(str(tok.value), loc)
        if tok.kind is T.IDENT:
            self._advance()
            symbol = self.symtab.lookup(str(tok.value))
            if symbol is not None and symbol.kind == "enum_const":
                return cast.IntLit(symbol.value or 0, loc)
            return cast.Ident(str(tok.value), loc)
        if tok.kind is T.LPAREN:
            self._advance()
            expr = self._parse_expression()
            self._expect(T.RPAREN)
            return expr
        raise ParseError(f"unexpected token {tok.spelling!r}", loc)


def parse(source: str, filename: str = "<source>") -> cast.TranslationUnit:
    """Parse C source text into a :class:`TranslationUnit`."""
    from repro import obs

    # timed, not span: the parse duration also lands in the
    # "frontend.parse" histogram, which is what the daemon's merged
    # metrics (and repro-pta top's phase split) aggregate.
    with obs.timed("frontend.parse", filename=filename):
        unit = Parser(source, filename).parse_translation_unit()
    if obs.active():
        obs.count("frontend.parses")
        obs.count("frontend.source_chars", len(source))
    return unit
