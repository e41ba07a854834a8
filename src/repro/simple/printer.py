"""Pretty-printer for SIMPLE programs (debugging / example output)."""

from __future__ import annotations

from repro.simple.ir import (
    BasicStmt,
    SBlock,
    SBreak,
    SContinue,
    SDoWhile,
    SFor,
    SIf,
    SReturn,
    SSwitch,
    SWhile,
    SimpleFunction,
    SimpleProgram,
    Stmt,
)


def _format_stmt(stmt: Stmt, indent: int, out: list[str]) -> None:
    pad = "    " * indent
    prefix = (
        "".join([f"{label}: " for label in stmt.labels]) if stmt.labels else ""
    )

    if isinstance(stmt, BasicStmt):
        out.append(f"{pad}{prefix}{stmt};")
        return
    if isinstance(stmt, SBlock):
        for child in stmt.stmts:
            _format_stmt(child, indent, out)
        return
    if isinstance(stmt, SIf):
        out.append(f"{pad}{prefix}if ({stmt.cond}) {{")
        _format_stmt(stmt.then_block, indent + 1, out)
        if stmt.else_block is not None and stmt.else_block.stmts:
            out.append(f"{pad}}} else {{")
            _format_stmt(stmt.else_block, indent + 1, out)
        out.append(f"{pad}}}")
        return
    if isinstance(stmt, SWhile):
        cond = "1" if stmt.cond is None else str(stmt.cond)
        if stmt.cond_eval.stmts:
            out.append(f"{pad}{prefix}while [eval] ({cond}) {{")
            _format_stmt(stmt.cond_eval, indent + 1, out)
            out.append(f"{pad}  [test] {{")
        else:
            out.append(f"{pad}{prefix}while ({cond}) {{")
        _format_stmt(stmt.body, indent + 1, out)
        out.append(f"{pad}}}")
        return
    if isinstance(stmt, SDoWhile):
        cond = "1" if stmt.cond is None else str(stmt.cond)
        out.append(f"{pad}{prefix}do {{")
        _format_stmt(stmt.body, indent + 1, out)
        if stmt.cond_eval.stmts:
            _format_stmt(stmt.cond_eval, indent + 1, out)
        out.append(f"{pad}}} while ({cond});")
        return
    if isinstance(stmt, SFor):
        out.append(f"{pad}{prefix}for {{")
        if stmt.init.stmts:
            out.append(f"{pad}  init:")
            _format_stmt(stmt.init, indent + 1, out)
        if stmt.cond_eval.stmts:
            out.append(f"{pad}  cond_eval:")
            _format_stmt(stmt.cond_eval, indent + 1, out)
        cond = "1" if stmt.cond is None else str(stmt.cond)
        out.append(f"{pad}  cond: {cond}")
        if stmt.step.stmts:
            out.append(f"{pad}  step:")
            _format_stmt(stmt.step, indent + 1, out)
        out.append(f"{pad}  body:")
        _format_stmt(stmt.body, indent + 1, out)
        out.append(f"{pad}}}")
        return
    if isinstance(stmt, SSwitch):
        out.append(f"{pad}{prefix}switch ({stmt.cond}) {{")
        for case in stmt.cases:
            if case.values:
                label = " ".join(f"case {v}:" for v in case.values)
            else:
                label = "default:"
            through = "  /* falls through */" if case.falls_through else ""
            out.append(f"{pad}  {label}{through}")
            _format_stmt(case.body, indent + 1, out)
        out.append(f"{pad}}}")
        return
    if isinstance(stmt, SBreak):
        out.append(f"{pad}{prefix}break;")
        return
    if isinstance(stmt, SContinue):
        out.append(f"{pad}{prefix}continue;")
        return
    if isinstance(stmt, SReturn):
        if stmt.value is None:
            out.append(f"{pad}{prefix}return;")
        else:
            out.append(f"{pad}{prefix}return {stmt.value};")
        return
    out.append(f"{pad}{prefix}<{type(stmt).__name__}>")


def print_function(fn: SimpleFunction) -> str:
    """Render one SIMPLE function as text."""
    params = ", ".join(f"{t} {n}" for n, t in fn.params)
    out = [f"{fn.return_type} {fn.name}({params})", "{"]
    locals_ = {
        name: ctype
        for name, ctype in sorted(fn.local_types.items())
    }
    for name, ctype in locals_.items():
        out.append(f"    {ctype} {name};")
    if locals_:
        out.append("")
    _format_stmt(fn.body, 1, out)
    out.append("}")
    return "\n".join(out)


def print_program(program: SimpleProgram) -> str:
    """Render a whole SIMPLE program as text."""
    out = []
    for name, ctype in sorted(program.global_types.items()):
        out.append(f"{ctype} {name};")
    if program.global_init.stmts:
        out.append("/* global initializers */")
        _format_stmt(program.global_init, 0, out)
    out.append("")
    for fn in program.functions.values():
        out.append(print_function(fn))
        out.append("")
    return "\n".join(out)
