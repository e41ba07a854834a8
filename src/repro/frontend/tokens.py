"""Token kinds and the Token value object for the C lexer."""

from __future__ import annotations

import enum

from repro.frontend.errors import SourceLoc


class TokenKind(enum.Enum):
    """Every lexical category produced by :mod:`repro.frontend.lexer`."""

    # Literals and names
    IDENT = "identifier"
    INT_CONST = "integer constant"
    FLOAT_CONST = "float constant"
    CHAR_CONST = "character constant"
    STRING = "string literal"

    # Keywords (value is the keyword spelling)
    AUTO = "auto"
    BREAK = "break"
    CASE = "case"
    CHAR = "char"
    CONST = "const"
    CONTINUE = "continue"
    DEFAULT = "default"
    DO = "do"
    DOUBLE = "double"
    ELSE = "else"
    ENUM = "enum"
    EXTERN = "extern"
    FLOAT = "float"
    FOR = "for"
    GOTO = "goto"
    IF = "if"
    INT = "int"
    LONG = "long"
    REGISTER = "register"
    RETURN = "return"
    SHORT = "short"
    SIGNED = "signed"
    SIZEOF = "sizeof"
    STATIC = "static"
    STRUCT = "struct"
    SWITCH = "switch"
    TYPEDEF = "typedef"
    UNION = "union"
    UNSIGNED = "unsigned"
    VOID = "void"
    VOLATILE = "volatile"
    WHILE = "while"

    # Punctuation and operators
    LPAREN = "("
    RPAREN = ")"
    LBRACE = "{"
    RBRACE = "}"
    LBRACKET = "["
    RBRACKET = "]"
    SEMI = ";"
    COMMA = ","
    DOT = "."
    ARROW = "->"
    ELLIPSIS = "..."
    QUESTION = "?"
    COLON = ":"

    ASSIGN = "="
    PLUS_ASSIGN = "+="
    MINUS_ASSIGN = "-="
    STAR_ASSIGN = "*="
    SLASH_ASSIGN = "/="
    PERCENT_ASSIGN = "%="
    AMP_ASSIGN = "&="
    PIPE_ASSIGN = "|="
    CARET_ASSIGN = "^="
    LSHIFT_ASSIGN = "<<="
    RSHIFT_ASSIGN = ">>="

    PLUS = "+"
    MINUS = "-"
    STAR = "*"
    SLASH = "/"
    PERCENT = "%"
    PLUS_PLUS = "++"
    MINUS_MINUS = "--"

    AMP = "&"
    PIPE = "|"
    CARET = "^"
    TILDE = "~"
    LSHIFT = "<<"
    RSHIFT = ">>"

    BANG = "!"
    AMP_AMP = "&&"
    PIPE_PIPE = "||"

    EQ = "=="
    NE = "!="
    LT = "<"
    GT = ">"
    LE = "<="
    GE = ">="

    EOF = "end of input"

    # Kinds are singletons compared by identity: hash them by identity
    # too, in C, rather than by Enum's Python-level name hash, which
    # every per-token dict or set lookup of the parser would pay.
    __hash__ = object.__hash__


#: Keyword spelling -> TokenKind, for the lexer's identifier post-pass.
KEYWORDS = {
    kind.value: kind
    for kind in (
        TokenKind.AUTO,
        TokenKind.BREAK,
        TokenKind.CASE,
        TokenKind.CHAR,
        TokenKind.CONST,
        TokenKind.CONTINUE,
        TokenKind.DEFAULT,
        TokenKind.DO,
        TokenKind.DOUBLE,
        TokenKind.ELSE,
        TokenKind.ENUM,
        TokenKind.EXTERN,
        TokenKind.FLOAT,
        TokenKind.FOR,
        TokenKind.GOTO,
        TokenKind.IF,
        TokenKind.INT,
        TokenKind.LONG,
        TokenKind.REGISTER,
        TokenKind.RETURN,
        TokenKind.SHORT,
        TokenKind.SIGNED,
        TokenKind.SIZEOF,
        TokenKind.STATIC,
        TokenKind.STRUCT,
        TokenKind.SWITCH,
        TokenKind.TYPEDEF,
        TokenKind.UNION,
        TokenKind.UNSIGNED,
        TokenKind.VOID,
        TokenKind.VOLATILE,
        TokenKind.WHILE,
    )
}

#: Multi-character punctuators, longest-match-first.
PUNCTUATORS = [
    ("...", TokenKind.ELLIPSIS),
    ("<<=", TokenKind.LSHIFT_ASSIGN),
    (">>=", TokenKind.RSHIFT_ASSIGN),
    ("->", TokenKind.ARROW),
    ("++", TokenKind.PLUS_PLUS),
    ("--", TokenKind.MINUS_MINUS),
    ("<<", TokenKind.LSHIFT),
    (">>", TokenKind.RSHIFT),
    ("<=", TokenKind.LE),
    (">=", TokenKind.GE),
    ("==", TokenKind.EQ),
    ("!=", TokenKind.NE),
    ("&&", TokenKind.AMP_AMP),
    ("||", TokenKind.PIPE_PIPE),
    ("+=", TokenKind.PLUS_ASSIGN),
    ("-=", TokenKind.MINUS_ASSIGN),
    ("*=", TokenKind.STAR_ASSIGN),
    ("/=", TokenKind.SLASH_ASSIGN),
    ("%=", TokenKind.PERCENT_ASSIGN),
    ("&=", TokenKind.AMP_ASSIGN),
    ("|=", TokenKind.PIPE_ASSIGN),
    ("^=", TokenKind.CARET_ASSIGN),
    ("(", TokenKind.LPAREN),
    (")", TokenKind.RPAREN),
    ("{", TokenKind.LBRACE),
    ("}", TokenKind.RBRACE),
    ("[", TokenKind.LBRACKET),
    ("]", TokenKind.RBRACKET),
    (";", TokenKind.SEMI),
    (",", TokenKind.COMMA),
    (".", TokenKind.DOT),
    ("?", TokenKind.QUESTION),
    (":", TokenKind.COLON),
    ("=", TokenKind.ASSIGN),
    ("+", TokenKind.PLUS),
    ("-", TokenKind.MINUS),
    ("*", TokenKind.STAR),
    ("/", TokenKind.SLASH),
    ("%", TokenKind.PERCENT),
    ("&", TokenKind.AMP),
    ("|", TokenKind.PIPE),
    ("^", TokenKind.CARET),
    ("~", TokenKind.TILDE),
    ("!", TokenKind.BANG),
    ("<", TokenKind.LT),
    (">", TokenKind.GT),
]


class Token:
    """A single lexical token.

    ``value`` holds the decoded payload: ``int`` for integer/char
    constants, ``float`` for float constants, ``str`` for identifiers and
    strings, and the spelling for keywords/punctuation.  A plain
    ``__slots__`` class, never mutated after the lexer builds it.
    """

    __slots__ = ("kind", "value", "loc")

    def __init__(self, kind: TokenKind, value: object, loc: SourceLoc):
        self.kind = kind
        self.value = value
        self.loc = loc

    @property
    def spelling(self) -> str:
        if isinstance(self.value, str):
            return self.value
        return str(self.value)

    def __repr__(self) -> str:
        return f"Token(kind={self.kind!r}, value={self.value!r}, loc={self.loc!r})"

    def __str__(self) -> str:
        return f"{self.kind.name}({self.value!r})@{self.loc}"
