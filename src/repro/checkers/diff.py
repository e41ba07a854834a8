"""Differential checking: finding baselines, fingerprints, and
dirty-set-restricted re-checks.

The checker framework re-derives every finding from scratch on each
run, even though the incremental layer (:mod:`repro.core.incremental`)
can already prove most of a program untouched by an edit.  This module
lifts that reuse one level, from points-to facts to *findings*:

* :func:`finding_fingerprint` — an edit-stable identity for one
  finding: a hash over the checker id, enclosing function, message,
  definiteness, labels, extra payload, and a line-number-free
  normalization of the witness.  Statement ids and line numbers are
  deliberately excluded, so a finding keeps its fingerprint when an
  unrelated edit shifts the whole function down the file.
* :func:`build_baseline` — serializes a check run as a JSON record:
  per-function raw findings plus the *replay skeleton* that proves
  them still valid (chunk hash, points-to row fingerprint, resolved
  call closure, statement-id span, globals fingerprint).
  Records are content-addressed (``base-`` keys, see
  :meth:`repro.service.store.ResultStore.baseline_key`) and live
  beside the analysis artifact on any store backend.
* :func:`check_diff` — the engine: analyze the new text through the
  incremental update ladder, split functions into *clean* (replay
  their baseline findings, with statement ids and lines remapped to
  the new text's numbering) and *dirty* (re-extract
  :class:`~repro.checkers.facts.CheckFacts` and re-run detectors for
  just those), then finalize the merged list against the new source
  and classify every finding as ``new`` / ``unchanged`` (and report
  baseline findings that disappeared as ``absent``).

A function is *replay-clean* only when all of the following hold, old
vs new: its exact chunk text (so in-function lines, comments and
suppressions are unchanged), its points-to rows (serialized triple
sets at each statement, keyed by position), the membership of its
resolved-call closure *and* the chunk/rows of every closure member
(callee bodies feed the read/write folding and the heap-inertness
verdicts the leak checker consumes), and the globals fingerprint.
Unmap-derived findings (``extra["source"] == "unmap"``) are never
replayed — they derive from the analysis's global warning list, which
the update ladder reproduces byte-identically, so they are recomputed
fresh on every check.  The test suite asserts diff-mode output is
byte-identical to a cold full check across the edit-fuzz corpus.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass, field

from repro import obs

from repro.checkers.base import Finding
from repro.checkers.facts import CheckFacts, collect_facts
from repro.checkers.runner import (
    CheckerError,
    finalize_findings,
    run_checkers,
    select_checkers,
)
from repro.core.slices import closure_members

#: Schema version of baseline records; participates in the ``base-``
#: key derivation, so a schema change is a clean miss.
BASELINE_VERSION = 1

#: Witness step keys dropped by the fingerprint normalization: record
#: ids, statement ids, and derivation-graph bookkeeping all renumber
#: under unrelated edits.
_VOLATILE_WITNESS_KEYS = frozenset({"id", "stmt", "path", "other_parents"})

#: Extra-payload keys holding absolute line numbers (the interference
#: checker records its partner statement and loop header).  Excluded
#: from fingerprints and shifted during replay, like ``line`` itself.
_LINE_EXTRA_KEYS = ("other_line", "loop_line")


class DiffError(CheckerError):
    """Unusable differential-check request (no baseline source)."""


# ---------------------------------------------------------------------------
# Finding fingerprints
# ---------------------------------------------------------------------------


def normalize_witness(witness: list[dict]) -> list[dict]:
    """Witness steps with their position-dependent keys dropped."""
    return [
        {
            key: value
            for key, value in step.items()
            if key not in _VOLATILE_WITNESS_KEYS
        }
        for step in witness
    ]


def finding_fingerprint(finding) -> str:
    """The edit-stable identity of one finding (hex digest).

    Accepts a :class:`~repro.checkers.base.Finding` or its
    ``as_dict()`` form.  Excludes ``stmt`` and ``line`` (both renumber
    under unrelated edits); identical findings repeated in one
    function share a fingerprint, which classification handles as a
    multiset.
    """
    from repro.service.serialize import canonical_json

    record = finding.as_dict() if isinstance(finding, Finding) else finding
    extra = {
        key: value
        for key, value in (record.get("extra") or {}).items()
        if key not in _LINE_EXTRA_KEYS
    }
    body = {
        "checker": record.get("checker"),
        "func": record.get("func"),
        "message": record.get("message"),
        "definite": bool(record.get("definite")),
        "labels": sorted(record.get("labels") or ()),
        "extra": extra,
        "witness": normalize_witness(record.get("witness") or []),
    }
    return hashlib.sha256(canonical_json(body)).hexdigest()


def _finding_from_dict(record: dict) -> Finding:
    return Finding(
        checker=record["checker"],
        message=record["message"],
        definite=bool(record["definite"]),
        func=record.get("func"),
        stmt=record.get("stmt"),
        line=record.get("line"),
        labels=tuple(record.get("labels") or ()),
        witness=list(record.get("witness") or []),
        extra=dict(record.get("extra") or {}),
    )


def _is_unmap(record) -> bool:
    extra = record.extra if isinstance(record, Finding) else (
        record.get("extra") or {}
    )
    return extra.get("source") == "unmap"


# ---------------------------------------------------------------------------
# Replay state: what proves a baseline finding still valid
# ---------------------------------------------------------------------------


def _chunk_map(source: str) -> dict[str, tuple[str, int]] | None:
    """function -> (chunk sha256, 1-based line of the chunk's start),
    or None when the text cannot be chunked (or defines a function
    twice, which would make the mapping ambiguous)."""
    from repro.simple.patching import ChunkError, split_chunks

    try:
        chunks = split_chunks(source)
    except ChunkError:
        return None
    out: dict[str, tuple[str, int]] = {}
    for chunk in chunks:
        if chunk.kind != "function" or chunk.name is None:
            continue
        if chunk.name in out:
            return None
        digest = hashlib.sha256(chunk.text.encode()).hexdigest()
        out[chunk.name] = (digest, source.count("\n", 0, chunk.start) + 1)
    return out


def _stmt_spans(analysis) -> dict[str, range]:
    """function -> the ids of its statements, one contiguous range in
    traversal order (so a statement's ordinal is its id minus the
    range's start) — the program's own table on a live analysis,
    rebuilt from ``stmt_func`` on a decoded artifact."""
    program = getattr(analysis, "program", None)
    if program is not None:
        return program.stmt_ids
    by_func: dict[str, list[int]] = {}
    for stmt_id, func in analysis._stmt_func.items():
        by_func.setdefault(func, []).append(stmt_id)
    spans: dict[str, range] = {}
    for name in analysis.functions:
        ids = by_func.get(name)
        spans[name] = range(min(ids), max(ids) + 1) if ids else range(0)
    return spans


def _pts_digest(pts, strs: dict | None = None) -> bytes:
    """Canonical digest of one points-to set: sorted, stringly rows,
    so live and decoded analyses (whose location ids differ) agree.
    ``strs`` interns the rendered form of locations and definiteness
    marks (both repeat across nearly every row of one analysis)."""
    digest = hashlib.sha256()
    if strs is None:
        rows = sorted(
            f"{src}\x02{tgt}\x02{definiteness}"
            for src, tgt, definiteness in pts.triples()
        )
    else:
        get = strs.get
        rows = []
        for src, tgt, definiteness in pts.triples():
            s = get(src)
            if s is None:
                s = strs[src] = f"{src}"
            t = get(tgt)
            if t is None:
                t = strs[tgt] = f"{tgt}"
            d = get(definiteness)
            if d is None:
                d = strs[definiteness] = f"{definiteness}"
            rows.append(f"{s}\x02{t}\x02{d}")
        rows.sort()
    for row in rows:
        digest.update(b"\x00")
        digest.update(row.encode())
    return digest.digest()


def _rows_fingerprint(
    analysis, stmt_ids: range, cache: dict | None = None
) -> str:
    """Hash of the points-to rows at each statement, keyed by ordinal
    position so a body whose ids shift under an edit elsewhere hashes
    identically.

    Per-statement digests are folded into the function hash, which
    lets consecutive statements sharing a points-to set reuse one
    digest: ``cache`` memoizes by the set's row dict — first by object
    identity (propagation aliases unchanged frames), then by its
    location table plus ``(src, defs, poss)`` integer content.  The
    table is part of the key because row ids mean nothing without it:
    an incrementally updated analysis holds spliced rows from a fresh
    table beside rows from the original run's.
    """
    digest = hashlib.sha256()
    if cache is None:
        cache = {}
    for ordinal, stmt_id in enumerate(stmt_ids):
        digest.update(b"\x01%d" % ordinal)
        pts = analysis.at_stmt(stmt_id)
        if pts is None:
            digest.update(b"\x00-")
            continue
        src_map = pts._src
        entry = cache.get(id(src_map))
        if entry is not None and entry[0] is src_map:
            part = entry[1]
        else:
            key = (pts._table, frozenset(src_map.items()))
            part = cache.get(key)
            if part is None:
                part = _pts_digest(pts, cache.setdefault("__strs__", {}))
                cache[key] = part
            cache[id(src_map)] = (src_map, part)
        digest.update(part)
    return digest.hexdigest()


def _resolved_deps(analysis) -> dict[str, set[str]] | None:
    """function -> possible analyzed callees, over-approximated.

    On a live analysis: direct call edges, plus — for any function
    containing an indirect call — every address-taken function.  That
    is a superset of whatever the invocation graph actually resolved
    (an indirect call can only reach an address-taken function), and
    unlike a walk of the context-sensitive IG it costs one static scan
    instead of a traversal of every invocation path.  On a decoded
    artifact the scan inputs are gone, so the skeleton's static edges
    are merged with the decoded IG's resolved edges; the two
    definitions can disagree, which at worst costs replay (a closure
    mismatch marks the function dirty), never correctness.  None when
    no dependency data is available (everything must then re-check).
    """
    deps: dict[str, set[str]] = {}
    program = getattr(analysis, "program", None)
    if program is not None:
        from repro.core.funcptr import address_taken_functions
        from repro.core.slices import scan_program

        taken: list[str] | None = None
        for func, scan in scan_program(program).items():
            callees = set(scan.callees)
            if scan.has_indirect:
                if taken is None:
                    taken = sorted(address_taken_functions(program))
                callees.update(taken)
            deps[func] = callees
        return deps
    incremental = getattr(analysis, "incremental", None) or {}
    static = incremental.get("deps")
    if static is None:
        return None
    for func, callees in static.items():
        deps.setdefault(func, set()).update(callees)
    ig = getattr(analysis, "ig", None)
    if ig is not None:
        for func, callees in ig.call_graph().items():
            deps.setdefault(func, set()).update(callees)
    return deps


def _program_state(
    analysis,
    source: str,
    baseline: dict | None = None,
    rows_unchanged: set[str] | None = None,
) -> dict:
    """The replay skeleton of one analyzed source: globals fingerprint
    plus per-function chunk/rows/closure/span facts.

    ``rows_unchanged`` names functions whose points-to rows are already
    proven byte-identical to ``baseline``'s (the update ladder's
    equivalence guarantee covers every function a splice neither
    changed nor re-flowed).  Their rows fingerprints are copied from
    the baseline record instead of re-hashed — that hash dominates the
    warm diff path — guarded by chunk-hash and statement-count
    equality so a mismatched baseline degrades to a fresh hash, never
    a wrong one.
    """
    program = getattr(analysis, "program", None)
    if program is not None:
        from repro.core.incremental import globals_fingerprint

        functions = sorted(program.functions)
        globals_fp = globals_fingerprint(program)
    else:
        functions = sorted(analysis.functions)
        incremental = getattr(analysis, "incremental", None) or {}
        globals_fp = incremental.get("globals")
    chunks = _chunk_map(source)
    deps = _resolved_deps(analysis)
    closures = {
        func: None if deps is None else sorted(closure_members(deps, func))
        for func in functions
    }
    base_funcs = (baseline or {}).get("functions", {})
    defined = set(functions)

    def _chunk_dirty(func: str) -> bool:
        entry = base_funcs.get(func)
        chunk = chunks.get(func) if chunks is not None else None
        return (
            entry is None
            or chunk is None
            or entry.get("chunk") != chunk[0]
        )

    # Functions _plan_replay will reject no matter what their rows
    # hash to — own chunk edited, closure membership changed, or a
    # closure member's chunk edited — get ``rows: None`` instead of a
    # hash.  None never compares clean, and a later diff that needs
    # the real fingerprint falls through to hashing it fresh.
    skip: set[str] = set()
    if base_funcs:
        for func in functions:
            closure = closures[func]
            entry = base_funcs.get(func)
            if (
                _chunk_dirty(func)
                or closure is None
                or entry.get("closure") != closure
                or any(
                    member != func
                    and member in defined
                    and _chunk_dirty(member)
                    for member in closure
                )
            ):
                skip.add(func)

    spans = _stmt_spans(analysis)
    pts_cache: dict = {}
    state: dict[str, dict] = {}
    for func in functions:
        stmt_ids = spans.get(func, range(0))
        chunk = chunks.get(func) if chunks is not None else None
        rows = None
        if (
            rows_unchanged is not None
            and func in rows_unchanged
            and not _chunk_dirty(func)
        ):
            entry = base_funcs.get(func)
            if entry.get("count") == len(stmt_ids):
                rows = entry.get("rows")
        if rows is None and func not in skip:
            rows = _rows_fingerprint(analysis, stmt_ids, pts_cache)
        state[func] = {
            "chunk": chunk[0] if chunk else None,
            "chunk_line": chunk[1] if chunk else None,
            "base": stmt_ids.start,
            "count": len(stmt_ids),
            "rows": rows,
            "closure": closures[func],
        }
    return {"globals": globals_fp, "functions": state}


# ---------------------------------------------------------------------------
# Baselines
# ---------------------------------------------------------------------------


def build_baseline(
    analysis,
    source: str,
    checkers=None,
    unused_suppressions: bool = True,
) -> dict:
    """Serialize one check run as a baseline record.

    ``functions[f]["findings"]`` holds the *raw* (pre-suppression)
    findings so a later diff can re-apply suppressions against the
    edited text's line numbering; ``reported`` pairs each
    post-suppression finding with its fingerprint for the
    new/unchanged/absent classification.
    """
    raw = run_checkers(analysis, source=None, checkers=checkers)
    state = _program_state(analysis, source)
    per_func: dict[str, list] = {func: [] for func in state["functions"]}
    for finding in raw:
        if _is_unmap(finding):
            continue
        if finding.func in per_func:
            per_func[finding.func].append(finding.as_dict())
    selected = (
        None if checkers is None
        else {checker.id for checker in select_checkers(checkers)}
    )
    reported = finalize_findings(
        list(raw), source,
        checkers=selected, unused_suppressions=unused_suppressions,
    )
    return {
        "baseline_version": BASELINE_VERSION,
        "globals": state["globals"],
        "checkers": sorted(selected) if selected is not None else None,
        "unused_suppressions": bool(unused_suppressions),
        "functions": {
            func: dict(entry, findings=per_func[func])
            for func, entry in state["functions"].items()
        },
        "reported": [
            [finding_fingerprint(finding), finding.as_dict()]
            for finding in reported
        ],
    }


def _plan_replay(baseline: dict, state: dict) -> tuple[set[str], set[str]]:
    """(clean, dirty) function sets for one baseline/new-state pair."""
    base_funcs = baseline.get("functions", {})
    new_funcs = state["functions"]
    if (
        baseline.get("baseline_version") != BASELINE_VERSION
        or baseline.get("globals") is None
        or state["globals"] is None
        or baseline["globals"] != state["globals"]
    ):
        return set(), set(new_funcs)

    def self_clean(func: str) -> bool:
        base = base_funcs.get(func)
        new = new_funcs.get(func)
        if base is None or new is None:
            return False
        return (
            base.get("chunk") is not None
            and base.get("chunk") == new.get("chunk")
            and base.get("rows") is not None
            and base.get("rows") == new.get("rows")
            and base.get("count") == new.get("count")
        )

    clean: set[str] = set()
    for func, new in new_funcs.items():
        base = base_funcs.get(func)
        if base is None or not self_clean(func):
            continue
        closure = new.get("closure")
        if closure is None or base.get("closure") != closure:
            continue
        # Closure members defined in the program must themselves be
        # unchanged (their bodies feed read/write folding and heap
        # inertness); external names have fixed modeled effects.
        if any(
            member in new_funcs and not self_clean(member)
            for member in closure
            if member != func
        ):
            continue
        # Witness steps can reference statements in other functions;
        # diff runs are provenance-off so this only guards baselines
        # built from witness-carrying runs.
        if any(rec.get("witness") for rec in base.get("findings", ())):
            continue
        clean.add(func)
    return clean, set(new_funcs) - clean


def _replay_findings(base_entry: dict, new_entry: dict) -> list[Finding]:
    """Revive one clean function's baseline findings, remapping
    statement ids and lines into the new text's numbering (statement
    ids are contiguous per function, so a base-id delta moves the
    whole span; identical chunk text makes the line delta exact)."""
    stmt_delta = new_entry["base"] - base_entry["base"]
    line_delta = 0
    if (
        base_entry.get("chunk_line") is not None
        and new_entry.get("chunk_line") is not None
    ):
        line_delta = new_entry["chunk_line"] - base_entry["chunk_line"]
    revived = []
    for record in base_entry.get("findings", ()):
        finding = _finding_from_dict(record)
        if finding.stmt is not None:
            finding.stmt += stmt_delta
        if finding.line is not None:
            finding.line += line_delta
        for key in _LINE_EXTRA_KEYS:
            if isinstance(finding.extra.get(key), int):
                finding.extra[key] += line_delta
        revived.append(finding)
    return revived


def _facts_for(analysis, funcs: set[str]) -> CheckFacts:
    """Checker facts restricted to ``funcs`` — extracted fresh on a
    live analysis, filtered from the payload section on a decoded one."""
    program = getattr(analysis, "program", None)
    if program is not None:
        return collect_facts(analysis, funcs=funcs)
    full = analysis.checkfacts
    facts = CheckFacts()
    facts.derefs = [site for site in full.derefs if site.func in funcs]
    facts.uses = [site for site in full.uses if site.func in funcs]
    facts.returns = [site for site in full.returns if site.func in funcs]
    facts.allocs = [site for site in full.allocs if site.func in funcs]
    facts.loops = [site for site in full.loops if site.func in funcs]
    facts.lines = dict(full.lines)
    facts.heap_alive = {
        func: alive
        for func, alive in full.heap_alive.items()
        if func in funcs
    }
    return facts


def _classify(
    findings: list[Finding], reported: list
) -> tuple[list[str], list[dict]]:
    """Per-finding status vs the baseline's reported fingerprints,
    plus the baseline findings no longer reported (multiset match)."""
    remaining = Counter(fp for fp, _ in reported)
    statuses = []
    for finding in findings:
        fp = finding_fingerprint(finding)
        if remaining.get(fp, 0) > 0:
            remaining[fp] -= 1
            statuses.append("unchanged")
        else:
            statuses.append("new")
    absent = []
    for fp, record in reported:
        if remaining.get(fp, 0) > 0:
            remaining[fp] -= 1
            absent.append(record)
    return statuses, absent


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------


@dataclass
class DiffCheckReport:
    """What one differential check computed and how it got there."""

    #: Final merged findings (identical to a cold check of the new
    #: text), with ``statuses[i]`` classifying ``findings[i]``.
    findings: list[Finding] = field(default_factory=list)
    statuses: list[str] = field(default_factory=list)
    #: Baseline findings no longer reported ("fixed"), as dicts.
    absent: list[dict] = field(default_factory=list)
    #: Analysis-reuse tier ("unchanged"/"splice"/"cold"/"cached").
    mode: str = "cold"
    dirty_functions: list[str] = field(default_factory=list)
    clean_functions: list[str] = field(default_factory=list)
    replayed: int = 0
    fresh: int = 0
    baseline_key: str | None = None
    new_baseline_key: str | None = None
    baseline: dict = field(default_factory=dict)
    analysis: object = None
    update: object = None

    @property
    def new_findings(self) -> list[Finding]:
        return [
            finding
            for finding, status in zip(self.findings, self.statuses)
            if status == "new"
        ]

    def summary(self) -> dict:
        statuses = Counter(self.statuses)
        return {
            "mode": self.mode,
            "dirty_functions": sorted(self.dirty_functions),
            "clean_functions": len(self.clean_functions),
            "replayed": self.replayed,
            "fresh": self.fresh,
            "new": statuses.get("new", 0),
            "unchanged": statuses.get("unchanged", 0),
            "fixed": len(self.absent),
            "findings": len(self.findings),
        }


def check_diff(
    new_source: str,
    *,
    old_source: str | None = None,
    old_analysis=None,
    baseline: dict | None = None,
    store=None,
    options=None,
    checkers=None,
    unused_suppressions: bool = True,
    filename: str = "<source>",
    persist: bool = True,
) -> DiffCheckReport:
    """Differentially check ``new_source`` against a baseline.

    The baseline comes from (in order) the ``baseline`` record, the
    store's ``base-`` record for ``old_source``, or a fresh
    :func:`build_baseline` of ``old_source`` (analyzing it if
    ``old_analysis`` was not given).  Runs provenance-off: the splice
    tier of the update ladder requires it, and witnesses would defeat
    replay.  With ``persist`` and a store, the new text's artifact and
    baseline are written back so the next diff starts warm.
    """
    from repro.core import perf
    from repro.core.analysis import AnalysisOptions, analyze_source
    from repro.core.incremental import update_analysis
    from repro.service.store import ResultStore

    if options is None:
        options = getattr(old_analysis, "options", None) or AnalysisOptions()
    selected = (
        None if checkers is None
        else {checker.id for checker in select_checkers(checkers)}
    )

    with perf.configured(track_provenance=False), obs.span("diffcheck.run"):
        baseline_key = None
        if old_source is not None:
            baseline_key = ResultStore.baseline_key(
                old_source, options, checkers=selected,
                unused_suppressions=unused_suppressions,
            )
        if baseline is None and store is not None and baseline_key:
            record = store.get_record(baseline_key)
            if (
                record is not None
                and record.get("baseline_version") == BASELINE_VERSION
            ):
                baseline = record
                obs.count("diffcheck.baseline_hits")
        if baseline is None:
            if old_analysis is None:
                if old_source is None:
                    raise DiffError(
                        "check_diff needs old_source, old_analysis, "
                        "or a baseline record"
                    )
                if store is not None:
                    old_analysis, _ = store.load_or_analyze(
                        old_source, options, name=filename
                    )
                else:
                    old_analysis = analyze_source(
                        old_source, options, filename=filename
                    )
            if old_source is None:
                raise DiffError(
                    "building a baseline needs the old source text"
                )
            baseline = build_baseline(
                old_analysis, old_source,
                checkers=checkers,
                unused_suppressions=unused_suppressions,
            )
            if store is not None and persist and baseline_key:
                store.put(baseline_key, baseline)

        update = None
        if old_analysis is not None and old_source is not None:
            analysis, update = update_analysis(
                old_analysis, old_source, new_source, options,
                filename=filename,
            )
            mode = update.mode
            if (
                store is not None
                and persist
                and getattr(analysis, "program", None) is not None
            ):
                # Persist the updated artifact so the next check of
                # this text starts from the store, not cold.
                from repro.service.serialize import encode_analysis

                new_key = store.key_for(new_source, options)
                if not store.has(new_key):
                    store.put(
                        new_key,
                        encode_analysis(
                            analysis, name=filename, source=new_source
                        ),
                    )
        elif store is not None:
            analysis, hit = store.load_or_analyze(
                new_source, options, name=filename
            )
            mode = "cached" if hit else "cold"
        else:
            analysis = analyze_source(
                new_source, options, filename=filename
            )
            mode = "cold"

        rows_unchanged = None
        if update is not None and update.mode in ("unchanged", "splice"):
            # The update ladder's equivalence guarantee: a splice
            # reuses every row outside changed ∪ reanalyzed verbatim,
            # so those are byte-identical to the old analysis — and
            # the baseline records exactly those (it is keyed by /
            # built from the old text).  Both tiers keep the old
            # invocation graph, so no function's contexts change
            # behind an unchanged body.
            suspect = set(update.changed) | set(update.reanalyzed)
            rows_unchanged = set(analysis.program.functions) - suspect
        state = _program_state(
            analysis, new_source,
            baseline=baseline, rows_unchanged=rows_unchanged,
        )
        clean, dirty = _plan_replay(baseline, state)
        obs.count("diffcheck.dirty_functions", len(dirty))
        obs.count("diffcheck.clean_functions", len(clean))

        facts = _facts_for(analysis, dirty)
        with obs.span("diffcheck.fresh"):
            raw_fresh = run_checkers(
                analysis, source=None, checkers=checkers, facts=facts
            )
        fresh_kept = [
            finding
            for finding in raw_fresh
            if _is_unmap(finding) or finding.func in dirty
        ]
        replayed: list[Finding] = []
        for func in sorted(clean):
            replayed.extend(
                _replay_findings(
                    baseline["functions"][func], state["functions"][func]
                )
            )
        obs.count("diffcheck.findings_replayed", len(replayed))
        obs.count("diffcheck.findings_fresh", len(fresh_kept))

        merged = replayed + fresh_kept
        findings = finalize_findings(
            merged, new_source,
            checkers=selected, unused_suppressions=unused_suppressions,
        )
        statuses, absent = _classify(
            findings, baseline.get("reported", [])
        )

        per_func: dict[str, list] = {
            func: [] for func in state["functions"]
        }
        for finding in merged:
            if not _is_unmap(finding) and finding.func in per_func:
                per_func[finding.func].append(finding.as_dict())
        new_baseline = {
            "baseline_version": BASELINE_VERSION,
            "globals": state["globals"],
            "checkers": sorted(selected) if selected is not None else None,
            "unused_suppressions": bool(unused_suppressions),
            "functions": {
                func: dict(entry, findings=per_func[func])
                for func, entry in state["functions"].items()
            },
            "reported": [
                [finding_fingerprint(finding), finding.as_dict()]
                for finding in findings
            ],
        }
        new_baseline_key = None
        if store is not None and persist:
            new_baseline_key = ResultStore.baseline_key(
                new_source, options, checkers=selected,
                unused_suppressions=unused_suppressions,
            )
            store.put(new_baseline_key, new_baseline)

        new_count = sum(1 for status in statuses if status == "new")
        obs.count("diffcheck.findings_new", new_count)
        obs.count("diffcheck.findings_fixed", len(absent))
        obs.event(
            "diffcheck",
            mode=mode,
            dirty=len(dirty),
            replayed=len(replayed),
            new=new_count,
            fixed=len(absent),
        )
        return DiffCheckReport(
            findings=findings,
            statuses=statuses,
            absent=absent,
            mode=mode,
            dirty_functions=sorted(dirty),
            clean_functions=sorted(clean),
            replayed=len(replayed),
            fresh=len(fresh_kept),
            baseline_key=baseline_key,
            new_baseline_key=new_baseline_key,
            baseline=new_baseline,
            analysis=analysis,
            update=update,
        )
