"""Checker orchestration: selection, labels, suppression.

``run_checkers`` is the single entry point used by the CLI ``check``
subcommand, the serve-loop ``{"cmd": "check"}`` verb, the benchmark,
and the fuzz gate.  It runs the selected checkers over a
:class:`~repro.checkers.base.CheckContext`, then post-processes the
findings so a live analysis and its decoded store artifact report the
same thing:

* statement labels are attached (from the program or the payload),
  and
* ``// repro-ignore[checker-id]`` line suppressions from the source
  text are applied.

Statement ids need no translation: a program and its payload number
statements identically.

Each checker runs under an ``obs`` span with its own wall-time and
findings counter, inside one ``checkers.run`` parent span.
"""

from __future__ import annotations

import re

from repro import obs

from repro.checkers.base import (
    CHECKERS,
    CheckContext,
    Checker,
    Finding,
    register,
)
from repro.checkers.facts import analysis_facts

#: Checker id of the unused-suppression notes (they ride the registry
#: so SARIF rule metadata and ``--checkers`` selection apply to them).
UNUSED_SUPPRESSION = "unused-suppression"


class CheckerError(ValueError):
    """Unknown checker id or unusable input."""


#: ``// repro-ignore`` suppresses every checker on its line;
#: ``// repro-ignore[a, b]`` only the listed checker ids.
_SUPPRESS_RE = re.compile(r"//\s*repro-ignore(?:\[([^\]]*)\])?")


def parse_suppressions(source: str) -> dict[int, set[str] | None]:
    """line number -> suppressed checker ids (None: all checkers)."""
    out: dict[int, set[str] | None] = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        match = _SUPPRESS_RE.search(text)
        if match is None:
            continue
        ids = match.group(1)
        if ids is None:
            out[lineno] = None
        else:
            out[lineno] = {part.strip() for part in ids.split(",")
                           if part.strip()}
    return out


def select_checkers(names=None) -> list:
    """Checker classes to run, in deterministic (id) order."""
    if names is None:
        return [CHECKERS[cid] for cid in sorted(CHECKERS)]
    unknown = sorted(set(names) - set(CHECKERS))
    if unknown:
        raise CheckerError(
            f"unknown checker(s) {', '.join(unknown)} "
            f"(known: {', '.join(sorted(CHECKERS))})"
        )
    return [CHECKERS[cid] for cid in sorted(set(names))]


def run_checkers(
    analysis,
    source: str | None = None,
    checkers=None,
    facts=None,
    unused_suppressions: bool = True,
) -> list[Finding]:
    """Run checkers over a live or decoded analysis.

    ``facts`` defaults to the payload's decoded section on a cached
    result and to the live one's :func:`analysis_facts` (extracted
    once per analysis; the encoder's extraction on a cold request).
    ``source`` enables ``// repro-ignore`` suppressions (and, unless
    ``unused_suppressions=False``, notes for suppressions that
    suppress nothing).
    """
    if facts is None:
        facts = getattr(analysis, "checkfacts", None)
        if facts is None:
            if getattr(analysis, "program", None) is None:
                raise CheckerError(
                    "decoded analysis has no checkfacts section and no "
                    "program to extract them from"
                )
            facts = analysis_facts(analysis)

    ctx = CheckContext(analysis, facts)
    findings: list[Finding] = []
    with obs.span("checkers.run"):
        for checker in select_checkers(checkers):
            with obs.timed("checkers.checker", checker=checker.id):
                found = checker.run(ctx)
            obs.count(f"checkers.findings.{checker.id}", len(found))
            findings.extend(found)

    _attach_labels(analysis, findings)
    if source is not None:
        selected = (
            None if checkers is None
            else {checker.id for checker in select_checkers(checkers)}
        )
        return finalize_findings(
            findings,
            source,
            checkers=selected,
            unused_suppressions=unused_suppressions,
        )
    findings.sort(key=lambda f: f.sort_key())
    return findings


def _attach_labels(analysis, findings: list[Finding]) -> None:
    """Source labels of each finding's statement (the paper's
    program-point vocabulary)."""
    program = getattr(analysis, "program", None)
    labels = program.labels if program is not None else analysis.labels
    by_stmt: dict[int, list[str]] = {}
    for label, (_func, stmt_id) in labels.items():
        by_stmt.setdefault(stmt_id, []).append(label)
    for finding in findings:
        if finding.stmt is not None:
            finding.labels = tuple(sorted(by_stmt.get(finding.stmt, ())))


def finalize_findings(
    findings: list[Finding],
    source: str,
    checkers: set[str] | None = None,
    unused_suppressions: bool = True,
) -> list[Finding]:
    """Source-sensitive post-processing shared by :func:`run_checkers`
    and the differential engine's merge path: apply ``// repro-ignore``
    suppressions keyed on *this* text's line numbering, emit notes for
    suppressions that suppressed nothing, and sort.

    ``checkers`` is the set of selected checker ids (None: all) — the
    notes only appear when :data:`UNUSED_SUPPRESSION` is selected.
    Running this exactly once, on the final merged finding list,
    is what keeps diff-mode output byte-identical to a cold check.
    """
    suppressions = parse_suppressions(source)
    kept, used = _apply_suppressions(findings, suppressions)
    if (
        unused_suppressions
        and (checkers is None or UNUSED_SUPPRESSION in checkers)
    ):
        kept.extend(
            _unused_suppression_notes(suppressions, used, source)
        )
    kept.sort(key=lambda f: f.sort_key())
    return kept


def _apply_suppressions(
    findings: list[Finding],
    suppressions: dict[int, set[str] | None],
) -> tuple[list[Finding], set[int]]:
    """(kept findings, suppression lines that suppressed something)."""
    if not suppressions:
        return list(findings), set()
    kept = []
    used: set[int] = set()
    for finding in findings:
        if finding.line is not None and finding.line in suppressions:
            ids = suppressions[finding.line]
            if ids is None or finding.checker in ids:
                obs.count("checkers.suppressed")
                used.add(finding.line)
                continue
        kept.append(finding)
    return kept, used


@register
class UnusedSuppressionChecker(Checker):
    """Pseudo-checker owning the unused-suppression note id.

    The notes are produced by :func:`finalize_findings` (they need the
    post-suppression view), not by :meth:`run`; registering the id
    anyway gives them SARIF rule metadata and ``--checkers`` selection
    like any detector."""

    id = UNUSED_SUPPRESSION
    description = (
        "a // repro-ignore comment on this line suppresses no finding"
    )

    @classmethod
    def run(cls, ctx) -> list[Finding]:
        return []


def _unused_suppression_notes(
    suppressions: dict[int, set[str] | None],
    used: set[int],
    source: str,
) -> list[Finding]:
    """A warning per suppression comment that suppressed nothing.

    A note is itself suppressible, but only by naming the
    :data:`UNUSED_SUPPRESSION` id explicitly — if a bare
    ``// repro-ignore`` swallowed its own note, a stale blanket ignore
    could never be reported.  Messages carry the suppressed id list but
    no line number, so the note's fingerprint survives edits that only
    shift it (the finding's ``line`` still points at the comment).
    """
    notes = []
    funcs = _functions_by_line(source)
    for lineno in sorted(set(suppressions) - used):
        ids = suppressions[lineno]
        if ids is not None and UNUSED_SUPPRESSION in ids:
            continue
        if ids is None:
            message = (
                "suppression '// repro-ignore' matches no finding"
            )
            extra = {}
        else:
            listed = ", ".join(sorted(ids)) or "(empty id list)"
            message = (
                f"suppression '// repro-ignore[{listed}]' "
                f"matches no finding"
            )
            extra = {"ids": sorted(ids)}
        obs.count("checkers.unused_suppressions")
        notes.append(
            Finding(
                checker=UNUSED_SUPPRESSION,
                message=message,
                definite=False,
                func=funcs.get(lineno),
                line=lineno,
                extra=extra,
            )
        )
    return notes


def _functions_by_line(source: str) -> dict[int, str]:
    """line number -> enclosing function name, for attributing notes
    (best-effort: an unchunkable text attributes nothing)."""
    from repro.simple.patching import ChunkError, split_chunks

    try:
        chunks = split_chunks(source)
    except ChunkError:
        return {}
    out: dict[int, str] = {}
    for chunk in chunks:
        if chunk.kind != "function" or chunk.name is None:
            continue
        first = source.count("\n", 0, chunk.start) + 1
        last = first + chunk.text.count("\n")
        for lineno in range(first, last + 1):
            out[lineno] = chunk.name
    return out
