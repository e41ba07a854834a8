"""Function-granularity re-parsing for incremental updates.

``split_chunks`` cuts C source text into *top-level chunks* — function
definitions and everything else (globals, structs, prototypes) — with
a brace/paren/comment/string-aware scanner.  ``incremental_simplify``
then re-lowers only the functions whose chunk text changed: it builds
a *subset source* where every unchanged function definition is
replaced by a prototype generated from its own header text, parses
that, and splices the freshly lowered functions into the old program's
IR, reusing every unchanged :class:`~repro.simple.ir.SimpleFunction`
object verbatim.

Renumbering: a spliced program must carry exactly the ids a cold
parse of the new source would assign, because both kinds of id are
encoded into artifacts.  Statement ids are positions (see
:class:`~repro.simple.ir.SimpleProgram`), so building the spliced
program renumbers every statement, and an unchanged function's body
moves as a whole by ``IncrementalParse.stmt_shift``.  ``call_site``
ids are assigned by a per-parse counter in textual lowering order; the
splice renumbers every call statement program-wide — functions in
source order, each function's sites in its own (monotone) lowering
order — which reproduces the cold numbering without re-lowering
anything.  **This mutates the shared statement objects**: the caller
(``repro.core.incremental``) takes ownership of the old program, which
is only sound because an update always replaces the old analysis.  The
old program keeps its own statement-id table, so ids recorded against
it can still be translated.

Everything here is conservative: any structural condition the splice
cannot prove (chunking failure, function added/removed/renamed,
signature change, non-function chunks differing, global/extern tables
that might have been extended by an unchanged body's lowering) returns
``None`` and the caller falls back to a full parse.  Falling back is
always correct — the fast path is an optimization, never a semantics
change.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field

from repro.frontend.errors import SourceLoc
from repro.simple.ir import BasicKind, BasicStmt, SimpleProgram
from repro.simple.simplify import CFrontendError, simplify_source


class ChunkError(ValueError):
    """Source text the top-level chunker cannot split safely."""


@dataclass
class Chunk:
    """One top-level region of the source text."""

    text: str
    kind: str  # "function" | "other"
    name: str | None = None  # function name, for kind == "function"
    header: str | None = None  # text through the parameter list's ")"
    start: int = 0  # [start, end) span in the source text
    end: int = 0


_NAME_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)\s*$")

#: Keywords that can directly precede a parenthesis without naming a
#: function (``if (...)`` can't appear at the top level, but guard the
#: name extraction anyway).
_NON_NAMES = {
    "if", "while", "for", "switch", "return", "sizeof", "struct",
    "union", "enum", "typedef",
}


def split_chunks(source: str) -> list[Chunk]:
    """Split C source into top-level chunks (see module docstring).

    Raises :class:`ChunkError` on text the scanner cannot split with
    confidence (unbalanced braces, a brace group that is neither a
    function body nor terminated by ``;``, a function definition whose
    name cannot be extracted).

    Memoized on the source text: one differential check chunks the
    same text several times (planning, replay state, suppression
    attribution), and nothing mutates the returned ``Chunk`` objects —
    callers get a fresh list over the shared chunks.
    """
    return list(_split_chunks_cached(source))


@functools.lru_cache(maxsize=32)
def _split_chunks_cached(source: str) -> tuple[Chunk, ...]:
    chunks: list[Chunk] = []
    n = len(source)
    i = 0
    start = 0  # current chunk start
    brace = paren = 0
    #: Offset of the first top-level "(" of the current chunk, and of
    #: the ")" closing that group — the span that makes it a function.
    first_paren = None
    header_end = None

    def flush(end: int, kind: str) -> None:
        nonlocal start, first_paren, header_end
        text = source[start:end]
        if text.strip():
            if kind == "function":
                header = source[start:header_end]
                match = _NAME_RE.search(source[start:first_paren])
                if match is None or match.group(1) in _NON_NAMES:
                    raise ChunkError(
                        f"cannot extract function name from chunk "
                        f"{text[:60]!r}"
                    )
                chunks.append(
                    Chunk(text, "function", match.group(1), header,
                          start, end)
                )
            else:
                chunks.append(Chunk(text, "other", start=start, end=end))
        start = end
        first_paren = None
        header_end = None

    while i < n:
        ch = source[i]
        nxt = source[i + 1] if i + 1 < n else ""
        if ch == "/" and nxt == "/":
            i = source.find("\n", i)
            i = n if i < 0 else i + 1
            continue
        if ch == "/" and nxt == "*":
            end = source.find("*/", i + 2)
            if end < 0:
                raise ChunkError("unterminated block comment")
            i = end + 2
            continue
        if ch in "\"'":
            quote = ch
            i += 1
            while i < n:
                if source[i] == "\\":
                    i += 2
                    continue
                if source[i] == quote:
                    break
                i += 1
            if i >= n:
                raise ChunkError("unterminated string/char literal")
            i += 1
            continue
        if ch == "#" and brace == 0 and paren == 0:
            # A preprocessor-looking line is its own opaque chunk.
            end = source.find("\n", i)
            end = n if end < 0 else end + 1
            flush(i, "other")
            i = end
            flush(i, "other")
            continue
        if ch == "(":
            if brace == 0 and paren == 0 and first_paren is None:
                first_paren = i
            paren += 1
        elif ch == ")":
            paren -= 1
            if paren < 0:
                raise ChunkError("unbalanced parentheses")
            if paren == 0 and brace == 0 and header_end is None:
                header_end = i + 1
        elif ch == "{":
            brace += 1
        elif ch == "}":
            brace -= 1
            if brace < 0:
                raise ChunkError("unbalanced braces")
            if brace == 0:
                # Function body, or a braced initializer / struct body
                # that must still be followed by ";".
                tail = _next_code_char(source, i + 1)
                if first_paren is not None and (
                    tail is None or source[tail] != ";"
                ):
                    i += 1
                    flush(i, "function")
                    continue
                if tail is None or source[tail] != ";":
                    raise ChunkError(
                        "top-level brace group not a function and not "
                        "';'-terminated"
                    )
        elif ch == ";" and brace == 0 and paren == 0:
            i += 1
            flush(i, "other")
            continue
        i += 1

    if brace != 0 or paren != 0:
        raise ChunkError("unbalanced braces or parentheses at EOF")
    if source[start:].strip():
        raise ChunkError("trailing top-level text without terminator")
    return tuple(chunks)


def _next_code_char(source: str, i: int) -> int | None:
    """Index of the next non-whitespace, non-comment character."""
    n = len(source)
    while i < n:
        ch = source[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if ch == "/" and i + 1 < n and source[i + 1] == "/":
            i = source.find("\n", i)
            if i < 0:
                return None
            continue
        if ch == "/" and i + 1 < n and source[i + 1] == "*":
            end = source.find("*/", i + 2)
            if end < 0:
                return None
            i = end + 2
            continue
        return i
    return None


def _normalize(text: str) -> str:
    return " ".join(text.split())


@dataclass
class IncrementalParse:
    """A spliced program plus what the splice learned about the edit."""

    program: SimpleProgram
    #: Names of the functions whose chunk text changed (re-lowered).
    changed: list[str]
    #: Old call-site id -> new call-site id for every call statement of
    #: every *unchanged* function (identity unless site counts shifted).
    site_map: dict[int, int] = field(default_factory=dict)
    #: Unchanged function -> new minus old statement id, the same for
    #: its whole body (zero unless a re-lowered body sorted before it
    #: changed its statement count).
    stmt_shift: dict[str, int] = field(default_factory=dict)


def _call_stmts(fn) -> list[BasicStmt]:
    # ALLOC statements draw from the same per-parse site counter as
    # CALL statements, so both participate in the renumbering.
    calls = [
        stmt
        for stmt in fn.iter_stmts()
        if isinstance(stmt, BasicStmt)
        and stmt.kind in (BasicKind.CALL, BasicKind.ALLOC)
    ]
    calls.sort(key=lambda stmt: stmt.call_site)
    return calls


def _table_signature(table: dict) -> list[tuple[str, str]]:
    """A global or extern table as ``(name, printed type)`` pairs in
    declaration order, comparable across parses."""
    return [(name, str(ctype)) for name, ctype in table.items()]


def incremental_simplify(
    old_source: str,
    old_program: SimpleProgram,
    new_source: str,
    filename: str = "<update>",
) -> IncrementalParse | None:
    """Re-lower only the changed functions; splice the rest.

    Returns ``None`` whenever the edit is not a pure function-body
    edit the splice can prove safe (see module docstring); the caller
    then falls back to ``simplify_source(new_source)``.
    """
    try:
        old_chunks = split_chunks(old_source)
        new_chunks = split_chunks(new_source)
    except ChunkError:
        return None
    if len(old_chunks) != len(new_chunks):
        return None

    changed: list[str] = []
    for old_chunk, new_chunk in zip(old_chunks, new_chunks):
        if old_chunk.kind != new_chunk.kind:
            return None
        if old_chunk.kind == "function":
            if old_chunk.name != new_chunk.name:
                return None
            if old_chunk.text != new_chunk.text:
                if _normalize(old_chunk.header) != _normalize(
                    new_chunk.header
                ):
                    return None  # signature change: callers re-lower
                changed.append(new_chunk.name)
        elif old_chunk.text != new_chunk.text:
            return None  # global / struct / prototype edit

    names = [c.name for c in new_chunks if c.kind == "function"]
    if len(set(names)) != len(names):
        return None
    if set(names) != set(old_program.functions):
        return None  # a chunk the old parse didn't turn into a function

    # Subset source: unchanged definitions shrink to prototypes
    # generated from their own header text, preserving declaration
    # order so the changed bodies lower in an identical environment.
    changed_set = set(changed)
    parts: list[str] = []
    pos = 0
    for chunk in new_chunks:
        parts.append(new_source[pos:chunk.start])
        pos = chunk.end
        if chunk.kind == "function" and chunk.name not in changed_set:
            # Pad the prototype to the chunk's exact line count so the
            # changed bodies lower with their cold-parse line numbers
            # (statement locations are encoded into artifacts).
            stub = chunk.header + ";"
            pad = chunk.text.count("\n") - stub.count("\n")
            if pad < 0:
                return None
            parts.append(stub + "\n" * pad)
        else:
            parts.append(chunk.text)
    parts.append(new_source[pos:])
    try:
        sub = simplify_source("".join(parts), filename)
    except CFrontendError:
        return None
    if set(sub.functions) != changed_set:
        return None

    # Lowering of the *unchanged* bodies can extend the global /
    # external tables (string-literal pools, implicitly declared
    # externals); the subset parse cannot see those, so any mismatch
    # means the splice cannot reproduce the cold tables faithfully.
    # Tables compare by name and printed type, in declaration order:
    # struct types are interned per parse, so two parses of one
    # declaration never share the object.
    if _table_signature(sub.global_types) != _table_signature(
        old_program.global_types
    ):
        return None
    # The prototypes injected for unchanged functions register as
    # externals in the subset parse; ignore exactly those.
    sub_externals = {
        name: ctype
        for name, ctype in sub.externals.items()
        if name not in set(names) - changed_set
    }
    if _table_signature(sub_externals) != _table_signature(
        old_program.externals
    ):
        return None

    functions = {}
    for name in names:
        if name in changed_set:
            functions[name] = sub.functions[name]
        else:
            functions[name] = old_program.functions[name]

    # Statement locations are encoded into artifacts, so reused
    # statements must carry the lines a cold parse of the new source
    # would assign.  Unchanged functions below an edit that grew or
    # shrank shift by their chunk's line delta; a shifted non-function
    # chunk would leave stale lines on global-initializer statements
    # we cannot attribute, so bail out instead.
    for old_chunk, new_chunk in zip(old_chunks, new_chunks):
        delta = new_source.count("\n", 0, new_chunk.start) - old_source.count(
            "\n", 0, old_chunk.start
        )
        if delta == 0:
            continue
        if new_chunk.kind != "function":
            return None
        if new_chunk.name in changed_set:
            continue  # re-lowered at its new position already
        for stmt in functions[new_chunk.name].iter_stmts():
            if stmt.loc.line:
                stmt.loc = SourceLoc(
                    stmt.loc.line + delta, stmt.loc.column, stmt.loc.filename
                )

    kept_labels = {
        label
        for label, (func, _) in old_program.labels.items()
        if func not in changed_set
    }
    if not kept_labels.isdisjoint(sub.labels):
        return None  # a duplicate label: the cold parse rejects it
    if len(kept_labels) + len(sub.labels) != len(old_program.labels):
        return None  # a label moved across functions or was dropped

    # Building the program renumbers every statement by position, the
    # shared ones included; the old program keeps its own id table, so
    # ``stmt_shift`` relates the two.
    program = SimpleProgram(
        functions=functions,
        global_types=dict(old_program.global_types),
        externals=dict(old_program.externals),
        global_init=old_program.global_init,
        source_lines=sub.source_lines,
    )
    stmt_shift = {
        name: program.stmt_ids[name].start - old_program.stmt_ids[name].start
        for name in names
        if name not in changed_set
    }

    # Program-wide call-site renumbering in cold-parse order: functions
    # in source order, each function's calls in its own monotone
    # lowering order.  Mutates the (shared) statement objects — the
    # caller owns the old program from here on.
    site_map: dict[int, int] = {}
    counter = 0
    for name in names:
        for stmt in _call_stmts(functions[name]):
            counter += 1
            if name not in changed_set:
                site_map[stmt.call_site] = counter
            stmt.call_site = counter
    return IncrementalParse(program, changed, site_map, stmt_shift)
