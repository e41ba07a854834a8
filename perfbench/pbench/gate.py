"""The correctness gate.

Runs outside every timed window and outside set-up.  Each distinct
input is checked once against the concrete interpreter
(:func:`repro.interp.check_soundness`), which does not come from the
analyzer; every timed answer must then equal the answer that checked
analysis gives.  For edit-watch, each diff must agree with a cold
full check of the edited text.
"""

from __future__ import annotations

import json
from collections import Counter

from repro.checkers import run_checkers
from repro.checkers.diff import finding_fingerprint
from repro.interp import check_soundness
from repro.service.queries import QueryError, QuerySession


class GateFailure(Exception):
    """An input failed its soundness check."""


def normalize(query: str, answer):
    """An answer with the fields that legitimately differ between two
    equal analyses removed: statement ids of ``labels`` (they come
    from a process-global counter) and the session bookkeeping of
    ``summary``."""
    kind = query.partition(":")[0]
    if kind == "labels":
        return {label: entry[0] for label, entry in answer.items()}
    if kind == "summary":
        return {
            key: value
            for key, value in answer.items()
            if key not in ("cached", "queries")
        }
    return answer


def canonical(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def check_input(name: str, source: str, analysis) -> dict:
    """Check one input against execution; raises :class:`GateFailure`
    on a violation.  Returns the report's coverage counters."""
    report = check_soundness(source, analysis=analysis)
    if not report.ok:
        raise GateFailure(f"{name}: {report.summary()}")
    return {
        "executed": report.statements_executed,
        "checked": report.statements_checked,
        "facts": report.facts_checked,
    }


def reference_answers(analysis, source: str, queries) -> dict[str, str]:
    """Canonical normalized answers of ``queries`` from ``analysis``."""
    session = QuerySession(analysis, source)
    answers = {}
    for query in queries:
        try:
            answers[query] = canonical(normalize(query, session.evaluate(query)))
        except QueryError as exc:
            answers[query] = canonical({"error": str(exc)})
    return answers


def served_answer(query: str, response: dict) -> str | None:
    """The canonical normalized answer of a response, None if it
    failed."""
    if not response.get("ok"):
        return None
    return canonical(normalize(query, response["result"]))


def finding_multiset(analysis, source: str) -> Counter:
    """Fingerprints of a cold full check (provenance off, every
    checker, unused-suppression notes on — the ``watch`` defaults)."""
    findings = run_checkers(analysis, source=source, unused_suppressions=True)
    return Counter(finding_fingerprint(finding) for finding in findings)


def diff_agrees(result: dict, old_findings: Counter, new_findings: Counter) -> bool:
    """Does a ``watch`` diff agree with cold checks of both texts?
    Unchanged findings are those of the old text minus the fixed ones,
    and also those of the new text minus the new ones."""
    new = Counter(finding_fingerprint(record) for record in result["new"])
    fixed = Counter(finding_fingerprint(record) for record in result["fixed"])
    if new - new_findings or fixed - old_findings:
        return False
    kept_new = new_findings - new
    kept_old = old_findings - fixed
    return kept_new == kept_old and sum(kept_new.values()) == result["unchanged"]
