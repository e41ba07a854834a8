"""Frozen contract of the C parser: ASTs and diagnostics.

``parse_digests.json`` pins, for every program of the lexer contract's
corpus (the golden identity corpus plus ``examples/*.c``), the sha256
of a canonical dump of the parsed translation unit: every node's class
and fields in declaration order, every ``loc`` as line and column,
every type as its C spelling, the prototype table, and each struct or
union reached through a type (tag, kind, completeness and fields).
Every malformed input below is pinned with its exact diagnostic class,
message, line and column.  Any rewrite of the parser must reproduce
both.

Regenerate (and justify the regeneration in CHANGES.md) with::

    PYTHONPATH=src python -m tests.frontend.test_parse_contract --regenerate
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.frontend import cast
from repro.frontend.ctypes import (
    ArrayType,
    CType,
    FunctionType,
    PointerType,
    StructType,
)
from repro.frontend.errors import CFrontendError, SourceLoc
from repro.frontend.parser import parse

from tests.frontend.test_lexer_contract import corpus

DIGESTS_PATH = Path(__file__).with_name("parse_digests.json")

_OPEN, _CLOSE = "(", ")"


def _collect_structs(ctype: CType, seen: dict[int, StructType]) -> None:
    """Record every struct or union reachable from ``ctype``, in
    first-reached order (by identity: a scoped redefinition is a new
    type under the same tag)."""
    stack = [ctype]
    while stack:
        current = stack.pop()
        if isinstance(current, PointerType):
            stack.append(current.pointee)
        elif isinstance(current, ArrayType):
            stack.append(current.element)
        elif isinstance(current, FunctionType):
            stack.extend(reversed((current.return_type, *current.param_types)))
        elif isinstance(current, StructType) and id(current) not in seen:
            seen[id(current)] = current
            stack.extend(reversed([f.type for f in current.fields]))


def ast_dump(unit: cast.TranslationUnit) -> list:
    """A flat pre-order listing of ``unit`` (explicit stack, so deep
    expressions dump without recursion)."""
    out: list = []
    structs: dict[int, StructType] = {}
    stack: list = [unit]
    while stack:
        item = stack.pop()
        if isinstance(item, tuple) and len(item) == 1:
            out.append(item[0])  # a marker pushed below
        elif isinstance(item, cast.Node):
            out.append(_OPEN + type(item).__name__)
            stack.append((_CLOSE,))
            for f in reversed(dataclasses.fields(item)):
                stack.append(getattr(item, f.name))
                stack.append((f.name + "=",))
        elif isinstance(item, SourceLoc):
            out.append([item.line, item.column])
        elif isinstance(item, CType):
            _collect_structs(item, structs)
            out.append(str(item))
        elif isinstance(item, list):
            out.append("[")
            stack.append(("]",))
            stack.extend(reversed(item))
        elif isinstance(item, dict):
            out.append("{")
            stack.append(("}",))
            for key, value in reversed(list(item.items())):
                stack.append(value)
                stack.append((key + ":",))
        else:
            assert item is None or isinstance(item, (str, int, float)), item
            out.append(item)
    for struct in structs.values():
        out.append(
            [
                str(struct),
                struct.complete,
                [[f.name, str(f.type)] for f in struct.fields],
            ]
        )
    return out


def ast_digest(source: str) -> dict:
    dump = ast_dump(parse(source))
    data = json.dumps(dump, separators=(",", ":")).encode()
    nodes = sum(1 for item in dump if isinstance(item, str) and item[:1] == _OPEN)
    return {"nodes": nodes, "sha256": hashlib.sha256(data).hexdigest()}


def _frozen() -> dict[str, dict]:
    return json.loads(DIGESTS_PATH.read_text())


def test_digests_cover_the_corpus():
    assert sorted(_frozen()) == sorted(corpus())
    assert len(_frozen()) == 78


@pytest.mark.parametrize("name", sorted(corpus()))
def test_ast_digest(name):
    assert ast_digest(corpus()[name]) == _frozen()[name], (
        f"{name}: AST no longer matches its frozen digest"
    )


def _main(body: str) -> str:
    return "int a, b, c;\nint *p;\nint main() {\n  " + body + "\n}\n"


#: (source, diagnostic class, message, line, column) of malformed inputs.
ERRORS = [
    (_main("a = b + ;"), "ParseError", "unexpected token ';'", 4, 11),
    (_main("a = b ? c ;"), "ParseError", "expected ':', found ';'", 4, 13),
    (_main("a = (b + c;"), "ParseError", "expected ')', found ';'", 4, 13),
    (_main("a = (int b;"), "ParseError", "expected ')', found ';'", 4, 13),
    (_main("return 0;") + "}\n", "ParseError", "expected a type specifier", 6, 1),
    ("int 3x;", "ParseError", "expected a declarator, found '3'", 1, 5),
    (
        _main("goto out;"),
        "ParseError",
        "goto is not supported (McCAT structured control flow before "
        "analysis; see DESIGN.md)",
        4,
        3,
    ),
    ("int main() {\n  a = 1;", "ParseError", "unexpected token ''", 2, 9),
    (_main("a = 1 }"), "ParseError", "expected ';', found '}'", 4, 9),
    ("int f(void) = 3;", "ParseError", "cannot initialize a function", 1, 1),
    ("enum E { 1 };", "ParseError", "expected 'identifier', found '1'", 1, 10),
    (
        "int n;\nint v[n];",
        "ParseError",
        "expected an integer constant expression",
        2,
        8,
    ),
    ("int (*q;", "ParseError", "unbalanced parentheses", 1, 9),
    ("int (*q r);", "ParseError", "malformed nested declarator", 1, 9),
    ("int x int y;", "ParseError", "expected ';', found 'int'", 1, 7),
    (_main("a = p[1;"), "ParseError", "expected ']', found ';'", 4, 10),
    (_main("p->;"), "ParseError", "expected 'identifier', found ';'", 4, 6),
    (_main("a = main(b, c;"), "ParseError", "expected ')', found ';'", 4, 16),
    (
        _main("do a = 1; (b);"),
        "ParseError",
        "expected 'while', found '('",
        4,
        13,
    ),
    ("struct S { int; };", "ParseError", "expected a declarator, found ';'", 1, 15),
    ("int x;\n+ 2;", "ParseError", "expected a type specifier", 2, 1),
    (_main("a = b * / c;"), "ParseError", "unexpected token '/'", 4, 11),
    (_main("a = (b || ) ;"), "ParseError", "unexpected token ')'", 4, 13),
    (_main("a = b < c > ;"), "ParseError", "unexpected token ';'", 4, 15),
    (_main("a = sizeof(int;"), "ParseError", "expected ')', found ';'", 4, 17),
    (_main("if a) b = 1;"), "ParseError", "expected '(', found 'a'", 4, 6),
    ("typedef int T;\nint T;", "SemanticError", "redeclaration of 'T'", 2, 1),
    (_main("int b; char b;"), "SemanticError", "redeclaration of 'b'", 4, 10),
]


@pytest.mark.parametrize(
    "source,kind,message,line,column",
    ERRORS,
    ids=[f"{i:02d}-{e[2][:28]}" for i, e in enumerate(ERRORS)],
)
def test_parse_error_pinned(source, kind, message, line, column):
    with pytest.raises(CFrontendError) as info:
        parse(source)
    error = info.value
    assert (type(error).__name__, error.message) == (kind, message)
    assert (error.loc.line, error.loc.column) == (line, column)
    assert str(error) == f"<source>:{line}:{column}: {message}"


def regenerate() -> None:
    digests = {name: ast_digest(src) for name, src in corpus().items()}
    DIGESTS_PATH.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit(f"usage: {sys.argv[0]} --regenerate")
    regenerate()
