"""The lexer for the supported C subset.

The lexer handles C89 tokens, ``//`` and ``/* */`` comments, character
escapes, and simple preprocessor-line skipping (``#...`` lines are
ignored — benchmark sources in this repository are self-contained and
pre-expanded).

One compiled master pattern matches once per token: a non-capturing
prefix skips the trivia (whitespace, comments, column-1 preprocessor
lines) in front of the token, then one named alternative per token
class (identifier, number, punctuator, string, character constant,
end of input), tried in an order that makes the first match the
longest valid token.  Lines and columns come from the newlines before
each token's start (no token spans a newline).  Only malformed input
leaves the fast path, to :func:`_quoted_error` for a precise
diagnostic.
"""

from __future__ import annotations

import re

from repro.frontend.errors import LexError, SourceLoc
from repro.frontend.tokens import KEYWORDS, PUNCTUATORS, Token, TokenKind

_SIMPLE_ESCAPES = dict(zip("ntr0abfv\\'\"?", "\n\t\r\0\a\b\f\v\\'\"?"))

#: One escape sequence: hex (every digit that follows), octal (up to
#: three digits) or a simple escape.  The lookaheads give each escape
#: exactly one parse, so a literal that fails to match is rejected in
#: linear time rather than after retrying every split of its digits.
_ESCAPE = (
    r"\\(?:x[0-9a-fA-F]+(?![0-9a-fA-F])|[0-7]{3}|[0-7]{1,2}(?![0-7])"
    r"""|[ntrabfv\\'"?])"""
)

#: Whitespace, then any run of comments and column-1 preprocessor
#: lines (with backslash-newline continuations), each followed by
#: whitespace.  No piece can start another, so the prefix scans
#: linearly; and since the ``end`` and ``error`` alternatives match
#: wherever the prefix stops, the token part never makes it backtrack.
_TRIVIA = (
    r"[ \t\r\n\f\v]*"
    r"(?:(?://[^\n]*|/\*[\s\S]*?\*/|^\#(?:\\\n|[^\n])*)[ \t\r\n\f\v]*)*"
)

_MASTER = re.compile(
    _TRIVIA
    + "(?:"
    + "|".join(
        [
            r"(?P<ident>[^\W\d]\w*)",
            r"(?P<hex>0[xX][0-9a-fA-F]*)[uUlLfF]*",
            r"(?P<float>(?:[0-9]+\.[0-9]+|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
            r"|[0-9]+[eE][+-]?[0-9]+)[uUlLfF]*",
            r"(?P<int>[0-9]+)[uUlLfF]*",
            # A comment opener the trivia prefix could not close.
            r"(?P<open_comment>/\*)",
            "(?P<punct>"
            + "|".join(re.escape(spelling) for spelling, _ in PUNCTUATORS)
            + ")",
            rf'(?P<string>"(?:[^"\\\n]|{_ESCAPE})*")',
            rf"(?P<char>'(?:[^\\\n]|{_ESCAPE})')",
            r"(?P<end>\Z)",
            r"(?P<error>[\s\S])",
        ]
    )
    + ")",
    re.MULTILINE,
)

_ESCAPE_RE = re.compile(_ESCAPE)

#: The longest well-formed prefix of a string or character constant.
_QUOTED_PREFIX = re.compile(
    rf"""\"(?:[^"\\\n]|{_ESCAPE})*|'(?:[^\\\n]|{_ESCAPE})?"""
)

_PUNCT_KIND = dict(PUNCTUATORS)


def _unescape_one(match: re.Match) -> str:
    body = match.group()[1:]
    if body[0] == "x":
        return chr(int(body[1:], 16) & 0xFF)
    if body[0] in "01234567":
        return chr(int(body, 8) & 0xFF)
    return _SIMPLE_ESCAPES[body]


def _unescape(text: str) -> str:
    return _ESCAPE_RE.sub(_unescape_one, text) if "\\" in text else text


def _quoted_error(source: str, pos: int) -> str:
    """The diagnostic for the malformed string or character constant
    opening at ``pos`` (one the master pattern did not match)."""
    end = _QUOTED_PREFIX.match(source, pos).end()
    ch = source[end : end + 1]
    is_string = source[pos] == '"'
    if ch == "\\" and (is_string or end == pos + 1):
        # Every octal and simple escape is well-formed, so the escape
        # ends the input, lacks hex digits, or is unknown.
        escape = source[end + 1 : end + 2]
        if not escape:
            return "unterminated escape sequence"
        if escape == "x":
            return "invalid hex escape"
        return f"unknown escape sequence '\\{escape}'"
    if is_string:
        return "unterminated string literal"
    if end == pos + 1 and ch in ("", "\n"):
        return "unterminated character constant"
    return "multi-character constant not supported"


def _int_value(text: str, loc: SourceLoc) -> int:
    if text[0] != "0" or len(text) == 1:
        return int(text)
    if text.strip("01234567"):
        raise LexError(f"invalid octal constant '{text}'", loc)
    return int(text, 8)


def tokenize(source: str, filename: str = "<source>") -> list[Token]:
    """Tokenize ``source`` and return all tokens including EOF."""
    tokens: list[Token] = []
    append = tokens.append
    keywords = KEYWORDS
    punct_kind = _PUNCT_KIND
    ident_kind = TokenKind.IDENT
    int_kind = TokenKind.INT_CONST
    line = 1
    line_start = 0
    # No token spans a newline, so one compare per token finds the
    # tokens that start on a later line than the one before.
    next_newline = source.find("\n")
    for match in _MASTER.finditer(source):
        group = match.lastgroup
        start = match.start(group)
        if -1 < next_newline < start:
            line += source.count("\n", next_newline, start)
            line_start = source.rindex("\n", next_newline, start) + 1
            next_newline = source.find("\n", start)
        loc = SourceLoc(line, start - line_start + 1, filename)
        text = match.group(group)
        if group == "ident":
            append(Token(keywords.get(text, ident_kind), text, loc))
        elif group == "punct":
            append(Token(punct_kind[text], text, loc))
        elif group == "int":
            append(Token(int_kind, _int_value(text, loc), loc))
        elif group == "end":
            break
        elif group == "float":
            append(Token(TokenKind.FLOAT_CONST, float(text), loc))
        elif group == "hex":
            if len(text) == 2:
                raise LexError(f"hex constant '{text}' has no digits", loc)
            append(Token(TokenKind.INT_CONST, int(text, 16), loc))
        elif group == "string":
            append(Token(TokenKind.STRING, _unescape(text[1:-1]), loc))
        elif group == "char":
            append(Token(TokenKind.CHAR_CONST, ord(_unescape(text[1:-1])), loc))
        elif group == "open_comment":
            raise LexError("unterminated comment", loc)
        elif text in "'\"":
            raise LexError(_quoted_error(source, start), loc)
        else:
            raise LexError(f"unexpected character {text!r}", loc)
    append(Token(TokenKind.EOF, "", loc))
    return tokens
