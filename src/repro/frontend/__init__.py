"""C frontend: lexer, parser, type system, and symbol tables.

This package implements the substrate that the McCAT compiler provided
for the paper's points-to analysis: it turns C source text into a typed
abstract syntax tree that the SIMPLE lowering pass (``repro.simple``)
consumes.

The supported language is a large, pointer-complete subset of C89:
multi-level pointers, arrays, structs/unions/enums, typedefs, function
pointers (including arrays of function pointers and function-pointer
struct fields), all the structured control statements, and the full
expression grammar.  Unstructured ``goto`` is rejected (McCAT ran a
goto-elimination phase before analysis; see DESIGN.md).
"""

from repro.frontend.errors import CFrontendError, LexError, ParseError, SemanticError
from repro.frontend.lexer import tokenize
from repro.frontend.parser import Parser, parse
from repro.frontend import cast
from repro.frontend import ctypes

__all__ = [
    "CFrontendError",
    "LexError",
    "ParseError",
    "SemanticError",
    "tokenize",
    "Parser",
    "parse",
    "cast",
    "ctypes",
]
