"""Checker framework core: findings, the registry, and the run context.

A *checker* is a client of the finished points-to analysis: it walks
the per-point triples (and the companion read/write and heap-connection
results) and emits :class:`Finding` records for likely pointer bugs.
Severity is keyed to the paper's definite/possible distinction — a
fact that holds on *every* path (D) yields an ``error``, a fact that
holds on *some* path (P) yields a ``warning``.

Checkers run against a live
:class:`~repro.core.analysis.PointsToAnalysis` or a cached
:class:`~repro.service.serialize.DecodedAnalysis`; the
:class:`CheckContext` hides the difference, and the payload carries
the program-shape facts (:mod:`repro.checkers.facts`) a decoded result
would otherwise lack.  The test suite asserts both forms produce
byte-identical SARIF.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.core import provenance as prov_mod
from repro.core.locations import AbsLoc
from repro.core.pointsto import PointsToSet


@dataclass
class Finding:
    """One checker diagnosis.

    ``definite`` mirrors the analysis's D/P flag for the underlying
    fact and determines :attr:`severity`; ``stmt`` is the statement id,
    the same in fresh and decoded runs.
    """

    checker: str
    message: str
    definite: bool
    func: str | None = None
    stmt: int | None = None
    line: int | None = None
    labels: tuple[str, ...] = ()
    witness: list[dict] = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    @property
    def severity(self) -> str:
        return "error" if self.definite else "warning"

    def sort_key(self):
        return (
            self.func or "",
            self.line or 0,
            self.checker,
            self.message,
            self.stmt or 0,
        )

    def as_dict(self) -> dict:
        return {
            "checker": self.checker,
            "severity": self.severity,
            "definite": self.definite,
            "message": self.message,
            "func": self.func,
            "stmt": self.stmt,
            "line": self.line,
            "labels": list(self.labels),
            "witness": self.witness,
            "extra": dict(sorted(self.extra.items())),
        }


#: Registry of shipped checkers, keyed by checker id.  Populated by the
#: :func:`register` decorator when the checker modules are imported
#: (``repro.checkers.__init__`` imports them all).
CHECKERS: dict[str, type["Checker"]] = {}


def register(cls: type["Checker"]) -> type["Checker"]:
    CHECKERS[cls.id] = cls
    return cls


class Checker:
    """Base class for checkers (see the registry in :data:`CHECKERS`)."""

    id: str = ""
    description: str = ""

    @classmethod
    def run(cls, ctx: "CheckContext") -> list[Finding]:
        raise NotImplementedError


def render_witness(log, src: AbsLoc, tgt: AbsLoc) -> list[dict]:
    """The derivation witness of one pair as JSON-safe steps (the same
    shape the ``explain:`` query verb uses, newest record first)."""
    steps = []
    for rid, record in prov_mod.witness(log, src, tgt):
        step = {
            "id": rid,
            "src": str(record.src),
            "tgt": str(record.tgt),
            "definiteness": "D" if record.definite else "P",
            "rule": record.rule,
            "class": record.classification,
            "stmt": record.stmt_id,
            "func": record.func,
            "path": list(record.path),
        }
        if record.extra:
            step["extra"] = dict(record.extra)
        if len(record.parents) > 1:
            step["other_parents"] = list(record.parents[1:])
        steps.append(step)
    return steps


class CheckContext:
    """Uniform checker-facing view of a live or decoded analysis."""

    def __init__(self, analysis, facts):
        self.analysis = analysis
        self.facts = facts
        #: True when a SimpleProgram is available (fresh result); a
        #: DecodedAnalysis sets ``program = None``.
        self.live = getattr(analysis, "program", None) is not None
        self._rw_maps: dict[str, dict] = {}

    # -- analysis access ---------------------------------------------------

    def pts_at(self, stmt_id: int) -> PointsToSet | None:
        """Points-to set flowing into a statement (None: unreachable)."""
        return self.analysis.at_stmt(stmt_id)

    def resolve(self, name: str, func: str | None) -> AbsLoc | None:
        """A variable name in ``func``'s scope -> its abstract location."""
        if self.live:
            try:
                return self.analysis.env(func).var_loc(name)
            except KeyError:
                return None
        return self.analysis.resolve(name, func)

    def read_write_map(self, func: str) -> dict:
        """stmt_id -> :class:`~repro.core.readwrite.ReadWriteSets` for
        the function's reachable statements (live: computed on demand;
        decoded: from the payload's precomputed section)."""
        cached = self._rw_maps.get(func)
        if cached is not None:
            return cached
        if self.live:
            from repro.core.readwrite import function_read_write

            sets_list = function_read_write(self.analysis, func)
        else:
            sets_list = self.analysis.read_write(func)
        result = {sets.stmt_id: sets for sets in sets_list}
        self._rw_maps[func] = result
        return result

    # -- provenance --------------------------------------------------------

    @property
    def provenance(self):
        """The producing run's derivation log, or None."""
        return getattr(self.analysis, "provenance", None)

    def witness_for(self, src: AbsLoc | None, tgt: AbsLoc) -> list[dict]:
        """Derivation witness for (src, tgt), or [] when provenance was
        off or the pair has no recorded derivation."""
        log = self.provenance
        if log is None or src is None:
            return []
        return render_witness(log, src, tgt)

    # -- shared predicates -------------------------------------------------

    @staticmethod
    def null_targets(pairs: Iterable) -> list:
        return [(tgt, d) for tgt, d in pairs if tgt.is_null]
