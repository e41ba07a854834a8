"""Source locations and diagnostic exceptions for the C frontend."""

from __future__ import annotations

class SourceLoc:
    """A position in the source text (1-based line and column).

    A value object: equal and hashed by its three fields, and never
    mutated.  A plain ``__slots__`` class because the lexer builds one
    per token.
    """

    __slots__ = ("line", "column", "filename")

    def __init__(self, line: int, column: int, filename: str = "<source>"):
        self.line = line
        self.column = column
        self.filename = filename

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not SourceLoc:
            return NotImplemented
        return (self.line, self.column, self.filename) == (
            other.line,
            other.column,
            other.filename,
        )

    def __hash__(self) -> int:
        return hash((self.line, self.column, self.filename))

    def __repr__(self) -> str:
        return (
            f"SourceLoc(line={self.line!r}, column={self.column!r}, "
            f"filename={self.filename!r})"
        )

    def __str__(self) -> str:
        return f"{self.filename}:{self.line}:{self.column}"


#: Location used for synthesized nodes with no source counterpart.
NO_LOC = SourceLoc(0, 0, "<synthetic>")


class CFrontendError(Exception):
    """Base class for all frontend diagnostics."""

    def __init__(self, message: str, loc: SourceLoc | None = None):
        self.message = message
        self.loc = loc
        if loc is not None:
            super().__init__(f"{loc}: {message}")
        else:
            super().__init__(message)


class LexError(CFrontendError):
    """Raised on malformed tokens."""


class ParseError(CFrontendError):
    """Raised on syntax errors."""


class SemanticError(CFrontendError):
    """Raised on type errors, undeclared names, and unsupported constructs."""
