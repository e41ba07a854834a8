"""Demand queries over a fresh or cached analysis result.

A :class:`QuerySession` wraps either a live
:class:`~repro.core.analysis.PointsToAnalysis` or a cached
:class:`~repro.service.serialize.DecodedAnalysis` and answers the same
questions against both — the test suite asserts the answers are
identical, which is what lets the store substitute cached results for
fresh ones.

The textual query language (used by ``repro-pta query`` and the
JSON-lines serve loop; see docs/SERVICE.md):

* ``points_to:EXPR@LABEL``     — targets of ``EXPR`` at a label;
  ``EXPR`` is ``*``\\ *depth* then a name, e.g. ``p``, ``**q``,
  ``main::p`` (explicit scope; default scope is the label's function).
* ``may_alias:EXPR,EXPR@LABEL`` — may the two expressions denote the
  same location at the label?
* ``callees_at:SITE``          — functions an (indirect) call-site may
  invoke, from the invocation graph.
* ``callers_of:FUNC``          — functions with an invocation-graph
  edge into ``FUNC``.
* ``read_write:FUNC``          — aggregated may/must write and read
  sets of ``FUNC``.
* ``explain:EXPR@LABEL``       — derivation witnesses for every pair
  traversed while resolving ``EXPR`` at the label (requires a result
  produced with ``perf.CONFIG.track_provenance`` on).
* ``why_possible:EXPR@LABEL``  — for each merely-possible pair on the
  walk, the earliest definite-to-possible weakening on its witness.
* ``blame_invisible:NAME``     — where the symbolic (invisible-
  variable) name ``NAME`` was introduced, and for which caller
  location, along which call path.
* ``labels`` / ``call_sites`` / ``warnings`` / ``graph`` / ``summary``
  — discovery helpers.

Every answer is JSON-serializable; per-session query counters are
surfaced through :func:`repro.core.statistics.collect_perf`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro import obs
from repro.core import provenance as prov_mod
from repro.core.aliases import may_alias as _may_alias
from repro.core.analysis import PointsToAnalysis
from repro.core.locations import HEAP, NULL, AbsLoc
from repro.core.pointsto import D, Definiteness, PointsToSet
from repro.core.statistics import QueryStats
from repro.service.serialize import DecodedAnalysis


class QueryError(ValueError):
    """A malformed query or one naming unknown entities."""


@dataclass(frozen=True)
class Query:
    """A parsed query: operation kind plus its operands."""

    kind: str
    args: tuple[str, ...] = ()
    label: str | None = None


_NO_ARG_KINDS = ("labels", "call_sites", "warnings", "graph", "summary")
_EXPR_RE = re.compile(r"^(\**)([A-Za-z_][\w$.\[\]]*(?:::[\w$.\[\]]+)?)$")


def parse_query(text: str) -> Query:
    """Parse the textual query language (see module docstring)."""
    text = text.strip()
    if text in _NO_ARG_KINDS:
        return Query(text)
    kind, sep, rest = text.partition(":")
    kind = kind.strip()
    if not sep or not rest.strip():
        raise QueryError(
            f"malformed query {text!r}: expected KIND:ARGS (one of "
            f"points_to, may_alias, explain, why_possible, "
            f"blame_invisible, callees_at, callers_of, read_write) "
            f"or a bare {', '.join(_NO_ARG_KINDS)}"
        )
    rest = rest.strip()
    label = None
    if kind in ("points_to", "may_alias", "explain", "why_possible"):
        rest, at, label = rest.rpartition("@")
        if not at or not rest or not label:
            raise QueryError(
                f"{kind} queries need a program point: {kind}:ARGS@LABEL"
            )
        label = label.strip()
    if kind in ("points_to", "explain", "why_possible"):
        return Query(kind, (rest.strip(),), label)
    if kind == "may_alias":
        parts = [part.strip() for part in rest.split(",")]
        if len(parts) != 2 or not all(parts):
            raise QueryError("may_alias takes exactly two expressions")
        return Query(kind, tuple(parts), label)
    if kind in ("callees_at", "callers_of", "read_write", "blame_invisible"):
        return Query(kind, (rest,))
    raise QueryError(f"unknown query kind {kind!r}")


def _parse_expr(expr: str) -> tuple[int, str | None, str]:
    """``**func::name`` -> (deref depth, scope or None, name)."""
    match = _EXPR_RE.match(expr.strip())
    if match is None:
        raise QueryError(f"malformed expression {expr!r}")
    stars, name = match.groups()
    scope = None
    if "::" in name:
        scope, _, name = name.partition("::")
    return len(stars), scope, name


class QuerySession:
    """Demand queries against one analysis result (fresh or cached)."""

    def __init__(
        self,
        analysis: PointsToAnalysis | DecodedAnalysis,
        source: str | None = None,
    ):
        self.analysis = analysis
        #: The source text this result was computed from, when known —
        #: what :meth:`update` diffs an edited source against.
        self.source = source
        self.stats = QueryStats()

    # -- uniform access to the two result forms ---------------------------

    @property
    def cached(self) -> bool:
        return isinstance(self.analysis, DecodedAnalysis)

    @property
    def labels(self) -> dict[str, tuple[str, int]]:
        if self.cached:
            return self.analysis.labels
        return self.analysis.program.labels

    def _at_label(self, label: str) -> PointsToSet:
        if label not in self.labels:
            known = ", ".join(sorted(self.labels)) or "<none>"
            raise QueryError(f"unknown label {label!r} (known: {known})")
        return self.analysis.at_label(label)

    def _resolve(
        self, name: str, func: str | None, pts: PointsToSet
    ) -> AbsLoc:
        if name == "heap":
            return HEAP
        if name == "NULL":
            return NULL
        loc = None
        if self.cached:
            loc = self.analysis.resolve(name, func)
        else:
            try:
                loc = self.analysis.env(func).var_loc(name)
            except KeyError:
                loc = None
        if loc is not None:
            return loc
        # Fall back to the locations that actually occur at the program
        # point — this is how symbolic (invisible-variable) names and
        # field/array paths like ``s.next`` or ``a[head]`` resolve.
        candidates = [
            candidate
            for candidate in pts.locations()
            if str(candidate) == name
            and (candidate.func is None or candidate.func == func)
        ]
        if candidates:
            return sorted(candidates, key=lambda c: c.func or "")[0]
        raise QueryError(
            f"unknown variable {name!r} in scope {func or '<global>'}"
        )

    # -- incremental update ------------------------------------------------

    def update(self, new_source: str):
        """Re-analyze an edited source *in place*, reusing as much of
        the session's current result as the incremental tiers can
        prove safe (see :mod:`repro.core.incremental`).

        Afterwards the session answers queries against the new result
        (a cached session becomes live), ``self.source`` tracks the
        new text, and the returned
        :class:`~repro.core.incremental.UpdateReport` says which tier
        ran and what it reused."""
        from repro.core.incremental import update_analysis

        self.stats.record("update")
        analysis, report = update_analysis(
            self.analysis,
            self.source,
            new_source,
            getattr(self.analysis, "options", None),
        )
        self.analysis = analysis
        self.source = new_source
        return report

    # -- the query API -----------------------------------------------------

    def _traverse(self, expr: str, label: str):
        """Resolve ``expr`` at ``label`` and walk its dereference
        chain, collecting every points-to pair consumed on the way.

        Returns ``(function, traversed pairs, final frontier)``; the
        pairs are ``(src, tgt, definiteness)`` triples in traversal
        order (outermost level first), the frontier maps the chain's
        final targets to their composed definiteness.
        """
        pts = self._at_label(label)
        depth, scope, name = _parse_expr(expr)
        func = scope if scope is not None else self.labels[label][0]
        base = self._resolve(name, func, pts)
        # ``p`` is one dereference hop (what p points to); each ``*``
        # adds another.  NULL is reported but never traversed through.
        traversed: list[tuple[AbsLoc, AbsLoc, Definiteness]] = []
        frontier: dict[AbsLoc, Definiteness] = {base: D}
        for _ in range(depth + 1):
            next_frontier: dict[AbsLoc, Definiteness] = {}
            for loc, definiteness in frontier.items():
                if loc.is_null:
                    continue
                for tgt, d in pts.targets_of(loc):
                    traversed.append((loc, tgt, d))
                    combined = definiteness.both(d)
                    prev = next_frontier.get(tgt)
                    if prev is None or (prev is not D and combined is D):
                        next_frontier[tgt] = combined
            frontier = next_frontier
        return func, traversed, frontier

    def points_to(
        self, expr: str, label: str, skip_null: bool = False
    ) -> list[tuple[str, str]]:
        """Targets of ``expr`` at ``label`` as sorted (target, D|P)
        pairs.  ``expr`` may dereference (``*p``) — definiteness
        composes along the chain (Table 1's ``d1 ∧ d2``)."""
        self.stats.record("points_to")
        _, _, frontier = self._traverse(expr, label)
        return sorted(
            (str(tgt), str(d))
            for tgt, d in frontier.items()
            if not (skip_null and tgt.is_null)
        )

    # -- the explain family (provenance-backed) ---------------------------

    def _provenance(self):
        log = getattr(self.analysis, "provenance", None)
        if log is None:
            raise QueryError(
                "no derivation log on this result: analyze with "
                "perf.CONFIG.track_provenance on (CLI: analyze "
                "--explain; see docs/PROVENANCE.md)"
            )
        return log

    @staticmethod
    def _witness_step(rid: int, record) -> dict:
        """One witness step as a JSON-safe dict.  ``stmt`` is the
        statement id, the same on a fresh and a cached result."""
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
        return step

    def explain(self, expr: str, label: str) -> dict:
        """Derivation witnesses for every pair the ``expr`` walk at
        ``label`` traverses: how each fact came to be, back to a
        source-level assignment, across map/unmap boundaries."""
        self.stats.record("explain")
        log = self._provenance()
        func, traversed, frontier = self._traverse(expr, label)
        pairs = []
        seen: set[tuple] = set()
        for src, tgt, d in traversed:
            if (src, tgt) in seen:
                continue
            seen.add((src, tgt))
            chain = prov_mod.witness(log, src, tgt)
            pairs.append(
                {
                    "src": str(src),
                    "tgt": str(tgt),
                    "definiteness": str(d),
                    "witness": [
                        self._witness_step(rid, record)
                        for rid, record in chain
                    ],
                }
            )
        pairs.sort(key=lambda entry: (entry["src"], entry["tgt"]))
        return {
            "expr": expr,
            "label": label,
            "function": func,
            "targets": sorted(
                [str(tgt), str(d)] for tgt, d in frontier.items()
            ),
            "pairs": pairs,
        }

    def why_possible(self, expr: str, label: str) -> dict:
        """For each merely-possible pair on the ``expr`` walk, the
        earliest definite-to-possible weakening on its witness chain
        (or the fact that it was born possible at its source)."""
        self.stats.record("why_possible")
        log = self._provenance()
        func, traversed, _ = self._traverse(expr, label)
        pairs = []
        seen: set[tuple] = set()
        for src, tgt, d in traversed:
            if d is D or (src, tgt) in seen:
                continue
            seen.add((src, tgt))
            entry: dict = {"src": str(src), "tgt": str(tgt)}
            weakening = prov_mod.first_weakening(log, src, tgt)
            if weakening is not None:
                entry["weakening"] = self._witness_step(*weakening)
            else:
                entry["born_possible"] = True
            pairs.append(entry)
        pairs.sort(key=lambda entry: (entry["src"], entry["tgt"]))
        return {
            "expr": expr,
            "label": label,
            "function": func,
            "pairs": pairs,
        }

    def blame_invisible(self, name: str) -> list[dict]:
        """Where the symbolic (invisible-variable) name ``name`` was
        introduced: which caller location it represents, through which
        access path, along which invocation-graph path."""
        self.stats.record("blame_invisible")
        log = self._provenance()
        intros = [
            dict(intro)
            for intro in log.symbolic_intros
            if intro["name"] == name or intro["base"] == name
        ]
        if not intros:
            known = ", ".join(
                sorted({intro["name"] for intro in log.symbolic_intros})
            ) or "<none>"
            raise QueryError(
                f"no invisible variable {name!r} was introduced "
                f"(known: {known})"
            )
        return intros

    def may_alias(self, x_expr: str, y_expr: str, label: str) -> bool:
        """May the two expressions denote the same location at
        ``label``?  Reuses :func:`repro.core.aliases.may_alias`."""
        self.stats.record("may_alias")
        pts = self._at_label(label)
        func = self.labels[label][0]
        depth_x, scope_x, name_x = _parse_expr(x_expr)
        depth_y, scope_y, name_y = _parse_expr(y_expr)
        x = self._resolve(name_x, scope_x or func, pts)
        y = self._resolve(name_y, scope_y or func, pts)
        return _may_alias(pts, x, y, depth_x, depth_y)

    def callees_at(self, call_site: int) -> list[str]:
        """Functions the invocation graph binds at ``call_site``."""
        self.stats.record("callees_at")
        return sorted(self.analysis.ig.call_sites().get(call_site, ()))

    def callers_of(self, func: str) -> list[str]:
        """Functions with an invocation-graph edge into ``func``."""
        self.stats.record("callers_of")
        return sorted(self.analysis.ig.callers_of(func))

    def read_write(self, func: str) -> dict:
        """Aggregated read/write sets of ``func`` (union over its
        reachable statements, via :mod:`repro.core.readwrite`)."""
        self.stats.record("read_write")
        if self.cached:
            if func not in self.analysis.payload["readwrite"]:
                raise QueryError(f"unknown function {func!r}")
            sets_list = self.analysis.read_write(func)
        else:
            from repro.core.readwrite import function_read_write

            if func not in self.analysis.program.functions:
                raise QueryError(f"unknown function {func!r}")
            sets_list = function_read_write(self.analysis, func)
        must, may, reads = set(), set(), set()
        for sets in sets_list:
            must |= sets.must_write
            may |= sets.may_write
            reads |= sets.reads
        return {
            "function": func,
            "statements": len(sets_list),
            "must_write": sorted(str(loc) for loc in must),
            "may_write": sorted(str(loc) for loc in may),
            "reads": sorted(str(loc) for loc in reads),
        }

    def call_sites(self) -> dict[int, list[str]]:
        """call-site id -> callees bound there (from the graph)."""
        self.stats.record("call_sites")
        sites = self.analysis.ig.call_sites()
        return {site: sorted(sites[site]) for site in sorted(sites)}

    def list_labels(self) -> dict[str, list]:
        self.stats.record("labels")
        return {
            label: [func, stmt_id]
            for label, (func, stmt_id) in sorted(self.labels.items())
        }

    # -- textual evaluation -----------------------------------------------

    def evaluate(self, text: str | Query):
        """Evaluate a textual query; returns a JSON-safe answer.

        Each evaluation is timed through :func:`repro.obs.timed`:
        under an active tracer every query contributes a
        ``service.query`` span and latency-histogram entry (tagged
        with the query kind and whether the backing result is a
        cached decode)."""
        query = parse_query(text) if isinstance(text, str) else text
        with obs.timed("service.query", kind=query.kind, cached=self.cached):
            return self._dispatch(query)

    def _dispatch(self, query: Query):
        if query.kind == "points_to":
            return self.points_to(query.args[0], query.label)
        if query.kind == "may_alias":
            return self.may_alias(query.args[0], query.args[1], query.label)
        if query.kind == "explain":
            return self.explain(query.args[0], query.label)
        if query.kind == "why_possible":
            return self.why_possible(query.args[0], query.label)
        if query.kind == "blame_invisible":
            return self.blame_invisible(query.args[0])
        if query.kind == "callees_at":
            try:
                site = int(query.args[0])
            except ValueError:
                raise QueryError(
                    f"callees_at needs a call-site id, got {query.args[0]!r}"
                ) from None
            return self.callees_at(site)
        if query.kind == "callers_of":
            return self.callers_of(query.args[0])
        if query.kind == "read_write":
            return self.read_write(query.args[0])
        if query.kind == "call_sites":
            return {
                str(site): callees
                for site, callees in self.call_sites().items()
            }
        if query.kind == "labels":
            return self.list_labels()
        if query.kind == "warnings":
            self.stats.record("warnings")
            return list(self.analysis.warnings)
        if query.kind == "graph":
            self.stats.record("graph")
            return self.analysis.ig.render()
        if query.kind == "summary":
            self.stats.record("summary")
            return self.summary()
        raise QueryError(f"unknown query kind {query.kind!r}")

    def summary(self) -> dict:
        ig = self.analysis.ig
        return {
            "cached": self.cached,
            "labels": len(self.labels),
            "ig_nodes": ig.node_count(),
            "warnings": len(self.analysis.warnings),
            "queries": self.stats.as_dict(),
        }
