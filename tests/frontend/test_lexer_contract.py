"""Frozen contract of the C lexer: token streams and diagnostics.

``token_digests.json`` pins, for every program of the golden identity
corpus (see :mod:`tests.interp.test_golden_digests`) and every
``examples/*.c`` fixture, the sha256 of the full token stream — each
token's kind, value, line and column, EOF included — plus the token
count.  Every ``LexError`` path is pinned below with its exact
message, line and column.  Any rewrite of the lexer must reproduce
both.

Regenerate (and justify the regeneration in CHANGES.md) with::

    PYTHONPATH=src python -m tests.frontend.test_lexer_contract --regenerate
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import signal
import sys
from pathlib import Path

import pytest

from repro.frontend.errors import LexError
from repro.frontend.lexer import tokenize
from repro.frontend.tokens import TokenKind

from tests.interp.test_golden_digests import corpus as golden_corpus

DIGESTS_PATH = Path(__file__).with_name("token_digests.json")
EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


@functools.lru_cache(maxsize=None)
def corpus() -> dict[str, str]:
    """Program name -> source for every token stream the digests pin."""
    programs = dict(golden_corpus())
    for path in sorted(EXAMPLES.glob("*.c")):
        programs[f"examples/{path.name}"] = path.read_text()
    return programs


def stream_digest(source: str) -> dict:
    tokens = tokenize(source)
    stream = [
        [tok.kind.name, tok.value, tok.loc.line, tok.loc.column]
        for tok in tokens
    ]
    data = json.dumps(stream, separators=(",", ":")).encode()
    return {"sha256": hashlib.sha256(data).hexdigest(), "tokens": len(tokens)}


def _frozen() -> dict[str, dict]:
    return json.loads(DIGESTS_PATH.read_text())


def test_digests_cover_the_corpus():
    assert sorted(_frozen()) == sorted(corpus())
    assert len(_frozen()) == 78


@pytest.mark.parametrize("name", sorted(corpus()))
def test_token_stream_digest(name):
    assert stream_digest(corpus()[name]) == _frozen()[name], (
        f"{name}: token stream no longer matches its frozen digest"
    )


#: (source, message, line, column) of every lexer diagnostic.
ERRORS = [
    ("a /* never closed", "unterminated comment", 1, 3),
    ("x\n  /* a\n b", "unterminated comment", 2, 3),
    ('x\n  "abc', "unterminated string literal", 2, 3),
    ('"a\nb"', "unterminated string literal", 1, 1),
    ("'\n'", "unterminated character constant", 1, 1),
    # A lone quote at end of input reads one character, then misses
    # the closing quote.
    ("x = 'a", "multi-character constant not supported", 1, 5),
    ("''", "multi-character constant not supported", 1, 1),
    ("'ab'", "multi-character constant not supported", 1, 1),
    ("'a\\q'", "multi-character constant not supported", 1, 1),
    ("'\\n", "multi-character constant not supported", 1, 1),
    ("'", "unterminated character constant", 1, 1),
    ('"\\q"', "unknown escape sequence '\\q'", 1, 1),
    ("int c;\nc = '\\q';", "unknown escape sequence '\\q'", 2, 5),
    ("'\\", "unterminated escape sequence", 1, 1),
    ('"\\x"', "invalid hex escape", 1, 1),
    ("'\\xg'", "invalid hex escape", 1, 1),
    ('"ok\\n\\101\\q"', "unknown escape sequence '\\q'", 1, 1),
    ('"a\\', "unterminated escape sequence", 1, 1),
    ("int x;\n  #define X 1", "unexpected character '#'", 2, 3),
    ("int x; #define X 1", "unexpected character '#'", 1, 8),
    ("/* c */#define X 1", "unexpected character '#'", 1, 8),
    ("int @ x", "unexpected character '@'", 1, 5),
    ("int x;\n\tx = 1 @ 2;", "unexpected character '@'", 2, 8),
]


#: Malformed literals carrying long runs of multi-digit escapes.  A
#: pattern that lets an escape stop early and hand its remaining
#: digits to the plain-character alternative retries every split
#: before rejecting these: 2**50 and 3**50 attempts.
ERRORS += [
    ('"' + "\\x41" * 50, "unterminated string literal", 1, 1),
    ('"' + "\\101" * 50, "unterminated string literal", 1, 1),
    ('"' + "\\x41" * 50 + '\\q"', "unknown escape sequence '\\q'", 1, 1),
    ('"' + "\\101" * 50 + '\\q"', "unknown escape sequence '\\q'", 1, 1),
]


#: Long runs of trivia in front of a malformed token.  Trivia is a
#: prefix of the token pattern, so each of these must still scan
#: linearly: no retry of the trivia may happen per character.
ERRORS += [
    (" " * 10**5 + "/* never closed", "unterminated comment", 1, 100_001),
    ("/**/" * 10**4 + '"abc', "unterminated string literal", 1, 40_001),
    ("#define X " + "\\\n" * 10**4 + "\n@", "unexpected character '@'", 10_002, 1),
]


class _TooSlow(Exception):
    pass


def _raise_too_slow(signum, frame):
    raise _TooSlow


@contextlib.contextmanager
def _linear_scan():
    # SIGALRM interrupts a runaway (backtracking) regex match; a linear
    # scan of any source pinned here takes well under 100 milliseconds.
    armed = hasattr(signal, "setitimer")
    if armed:
        previous = signal.signal(signal.SIGALRM, _raise_too_slow)
        signal.setitimer(signal.ITIMER_REAL, 5.0)
    try:
        yield
    except _TooSlow:
        pytest.fail("tokenize backtracked instead of scanning linearly")
    finally:
        if armed:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize(
    "source,message,line,column", ERRORS, ids=[e[1] for e in ERRORS]
)
def test_lex_error_pinned(source, message, line, column):
    with _linear_scan(), pytest.raises(LexError) as info:
        tokenize(source)
    error = info.value
    assert (error.message, error.loc.line, error.loc.column) == (
        message, line, column
    )
    assert str(error) == f"<source>:{line}:{column}: {message}"


#: (source, token count, (line, column) of EOF) of well-formed inputs
#: that are mostly trivia.
TRIVIA = [
    ("#define X " + "\\\n" * 10**4 + "\nint x;", 4, (10_002, 7)),
    ("int x; /* c */ \n // t\n   ", 4, (3, 4)),
    ("/* only */ // trivia", 1, (1, 21)),
    ("", 1, (1, 1)),
    ("\n\n", 1, (3, 1)),
    (" " * 10**5 + "x" + "\n" * 10**4, 2, (10_001, 1)),
]


@pytest.mark.parametrize(
    "source,count,eof", TRIVIA, ids=[f"trivia{i}" for i in range(len(TRIVIA))]
)
def test_trivia_scan_pinned(source, count, eof):
    with _linear_scan():
        tokens = tokenize(source)
    assert len(tokens) == count
    assert tokens[-1].kind is TokenKind.EOF
    assert (tokens[-1].loc.line, tokens[-1].loc.column) == eof


def test_accepted_edge_tokens_pinned():
    # Quirks of the contract the rewrite keeps: ``'''`` is the quote
    # character, ``1.`` is an integer followed by a dot, ``00`` is zero.
    assert stream_digest("'''")["tokens"] == 2
    assert [tok.value for tok in tokenize("''' 1. 00 .5 1e3 0x1Fu")] == [
        39, 1, ".", 0, 0.5, 1000.0, 31, "",
    ]


def regenerate() -> None:
    digests = {name: stream_digest(src) for name, src in corpus().items()}
    DIGESTS_PATH.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit(f"usage: {sys.argv[0]} --regenerate")
    regenerate()
