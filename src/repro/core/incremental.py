"""Incremental re-analysis at function granularity.

The store keys whole artifacts on ``sha256(source, options)``, so a
one-line edit used to throw away every summary and re-run the full
interprocedural fixpoint.  This module reuses a live run's *slice
capture* (the slice-keyed memo entries it recorded per function) and an
*invocation-graph skeleton* (per-function body fingerprints and the
static direct-call dependency graph), computes the **dirty set** of an
edit — the changed functions plus everything reachable through
dependency edges, with kills propagated transitively — and re-analyzes
only that subtree.  :func:`capture_records` and
:func:`bank_from_records` convert a capture to and from a
table-independent neutral form, the per-function summary records of
the store's record layer; no update tier reads them.

Two update tiers, each proven equivalent to a cold run:

**Splice** (:func:`splice_update`).  When the edit is a pure
body edit that provably preserves the changed function's observable
summary (same slice keys, same caller-visible outputs, same warnings,
same sub-callee records), the old analysis is *spliced*: the changed
function's program-point rows are recomputed by a mini fixpoint over
just its captured slice inputs, every other row, warning, environment
and invocation-graph node is reused, and statement and call-site ids
are renumbered to the cold numbering.  This never re-flows ``main``
and is the milliseconds path.  Any condition it cannot verify falls
straight to cold.

**Cold** — plain :func:`repro.core.analysis.analyze`.

The dependency graph is not built twice: when the old run recorded
provenance (PR 4), :func:`provenance_dependencies` lifts its
derivation edges to function granularity; otherwise the static
reverse call graph (the same edges the slice summaries close over) is
used.  Counters ``incremental.dirty_functions``,
``incremental.reused_summaries`` and ``incremental.kill_propagations``
are threaded through :mod:`repro.obs`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from repro import obs
from repro.core.analysis import (
    AnalysisOptions,
    Analyzer,
    PointsToAnalysis,
    analyze,
)
from repro.core.env import FuncEnv
from repro.core.interproc import MemoStats, _process_ordinary, _SliceEntry
from repro.core.invocation_graph import IGNodeKind
from repro.core.locations import (
    AbsLoc,
    LocKind,
    LocTable,
    global_loc,
    install_table,
)
from repro.core.pointsto import Definiteness, PointsToSet, row_triples
from repro.core.slices import FunctionSummary, scan_program, summarize_program
from repro.core.perf import CONFIG
from repro.simple.ir import SimpleProgram
from repro.simple.patching import (
    IncrementalParse,
    _call_stmts,
    incremental_simplify,
)
from repro.simple.printer import print_function
from repro.simple.simplify import simplify_source


# --------------------------------------------------------------------------
# Fingerprints and the invocation-graph skeleton
# --------------------------------------------------------------------------


def function_fingerprint(fn) -> str:
    """Parse-stable body fingerprint: the printed SIMPLE form carries
    no statement or call-site ids, so re-parsing identical text yields
    an identical fingerprint."""
    return hashlib.sha256(print_function(fn).encode("utf-8")).hexdigest()


def function_fingerprints(program: SimpleProgram) -> dict[str, str]:
    return {
        name: function_fingerprint(fn)
        for name, fn in program.functions.items()
    }


def globals_fingerprint(program: SimpleProgram) -> str:
    """Fingerprint of everything outside function bodies that analysis
    behavior depends on: the global/extern tables **in declaration
    order** (null-initialization iterates them) and the printed global
    initializer block."""
    from repro.simple.printer import _format_stmt

    init: list[str] = []
    _format_stmt(program.global_init, 0, init)
    payload = json.dumps(
        {
            "globals": [
                [name, str(ctype)]
                for name, ctype in program.global_types.items()
            ],
            "externals": [
                [name, str(ctype)]
                for name, ctype in program.externals.items()
            ],
            "init": init,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def static_deps(program: SimpleProgram) -> dict[str, list[str]]:
    """Sorted direct analyzed callees per function — the skeleton's
    dependency edges (callers depend on callees)."""
    scans = scan_program(program)
    return {name: sorted(scans[name].callees) for name in program.functions}


def closure_members(deps: dict[str, list[str]], func: str) -> set[str]:
    """Transitive direct-call closure of ``func`` (inclusive)."""
    closure: set[str] = set()
    stack = [func]
    while stack:
        member = stack.pop()
        if member in closure:
            continue
        closure.add(member)
        stack.extend(deps.get(member, ()))
    return closure


class _SummaryOracle:
    """Per-function closures, fingerprints and summaries for one
    program, computed lazily and cached — the update path only ever
    needs them for the edited functions' neighborhoods, so eagerly
    summarizing the whole program would dominate small updates.  The
    scans they start from are the program's own
    (:func:`slices.scan_program`)."""

    def __init__(self, program: SimpleProgram, options: AnalysisOptions):
        self.program = program
        self.options = options
        self._closures: dict[str, set[str]] = {}
        self._fps: dict[str, str] = {}

    def scan(self, func: str):
        return scan_program(self.program)[func]

    def closure(self, func: str) -> set[str]:
        closure = self._closures.get(func)
        if closure is None:
            closure = set()
            stack = [func]
            while stack:
                member = stack.pop()
                if member in closure:
                    continue
                closure.add(member)
                stack.extend(self.scan(member).callees)
            self._closures[func] = closure
        return closure

    def fingerprint(self, func: str) -> str:
        fp = self._fps.get(func)
        if fp is None:
            fp = function_fingerprint(self.program.functions[func])
            self._fps[func] = fp
        return fp

    def summary(self, func: str) -> FunctionSummary:
        """Same opacity rules as :func:`slices.summarize_program`,
        restricted to one function's closure."""
        referenced: set[str] = set()
        reason = None
        havoc = self.options.unknown_external_policy == "havoc"
        for member in self.closure(func):
            scan = self.scan(member)
            referenced |= scan.globals_referenced
            if reason is None and scan.has_indirect:
                reason = f"indirect call site in '{member}'"
            if reason is None and havoc and scan.unmodeled_externals:
                reason = (
                    f"unmodeled external under havoc policy in '{member}'"
                )
        if reason is None and any(
            func in self.closure(callee)
            for callee in self.scan(func).callees
        ):
            reason = "participates in a call cycle"
        return FunctionSummary(
            frozenset(referenced), reason is not None, reason
        )


def skeleton(program: SimpleProgram) -> dict:
    """The per-function skeleton encoded into artifacts ("incremental"
    payload section) and store skeleton records."""
    return {
        "fingerprints": function_fingerprints(program),
        "deps": static_deps(program),
        "globals": globals_fingerprint(program),
    }


# --------------------------------------------------------------------------
# Dirty-set planning
# --------------------------------------------------------------------------


def provenance_dependencies(analysis) -> dict[str, set[str]] | None:
    """Function-granularity dependency edges lifted from the provenance
    layer's derivation records: ``affected[g]`` is the set of functions
    holding at least one fact derived from a fact established in ``g``.
    Returns None when the producing run recorded no provenance."""
    log = getattr(analysis, "provenance", None)
    if log is None:
        return None
    records = getattr(log, "records", None)
    if records is None:
        return None
    affected: dict[str, set[str]] = {}
    for record in records:
        child_func = getattr(record, "func", None)
        if child_func is None:
            continue
        for parent_id in getattr(record, "parents", ()) or ():
            parent = records[parent_id]
            parent_func = getattr(parent, "func", None)
            if parent_func is not None and parent_func != child_func:
                affected.setdefault(parent_func, set()).add(child_func)
    return affected


@dataclass
class UpdatePlan:
    """What an edit dirties, before any re-analysis runs."""

    changed: list[str]
    added: list[str]
    removed: list[str]
    #: changed ∪ everything reachable through dependency edges.
    dirty: list[str]
    #: Transitive invalidations beyond the directly changed functions.
    kill_propagations: int

    def as_dict(self) -> dict:
        return {
            "changed": self.changed,
            "added": self.added,
            "removed": self.removed,
            "dirty": self.dirty,
            "kill_propagations": self.kill_propagations,
        }


def plan_update(
    old_fingerprints: dict[str, str],
    old_deps: dict[str, list[str]],
    new_fingerprints: dict[str, str],
    new_deps: dict[str, list[str]],
    dependency_edges: dict[str, set[str]] | None = None,
) -> UpdatePlan:
    """Compute the dirty set with transitive kill propagation.

    ``dependency_edges`` maps a function to the functions whose facts
    depend on it (provenance-derived when available); when None, the
    reverse of the old static call graph is used — a caller's facts
    always depend on its callees' summaries.
    """
    changed = sorted(
        name
        for name in new_fingerprints
        if name in old_fingerprints
        and (
            new_fingerprints[name] != old_fingerprints[name]
            or old_deps.get(name, []) != new_deps.get(name, [])
        )
    )
    added = sorted(
        name for name in new_fingerprints if name not in old_fingerprints
    )
    removed = sorted(
        name for name in old_fingerprints if name not in new_fingerprints
    )
    if dependency_edges is None:
        dependency_edges = {}
        for caller, callees in old_deps.items():
            for callee in callees:
                dependency_edges.setdefault(callee, set()).add(caller)
    # Change-driven worklist: start from every directly changed or
    # removed function, propagate kills through dependency edges.
    dirty: set[str] = set()
    worklist = list(changed) + list(removed)
    while worklist:
        func = worklist.pop()
        if func in dirty:
            continue
        dirty.add(func)
        worklist.extend(dependency_edges.get(func, ()))
    seeds = set(changed) | set(removed)
    return UpdatePlan(
        changed=changed,
        added=added,
        removed=removed,
        dirty=sorted(dirty),
        kill_propagations=len(dirty - seeds),
    )


# --------------------------------------------------------------------------
# Neutral slice-entry form (table- and process-independent)
# --------------------------------------------------------------------------


def _neutral_ctype(ctype) -> list | None:
    """JSON-safe encoding of a C type (structs by tag: they are
    interned per parse, so a revived record must resolve the *new*
    program's struct object, never carry the old one)."""
    from repro.frontend.ctypes import (
        ArrayType,
        EnumType,
        FloatType,
        FunctionType,
        IntType,
        PointerType,
        StructType,
        VoidType,
    )

    if ctype is None:
        return None
    if isinstance(ctype, VoidType):
        return ["void"]
    if isinstance(ctype, IntType):
        return ["int", ctype.name, ctype.signed]
    if isinstance(ctype, FloatType):
        return ["float", ctype.name]
    if isinstance(ctype, EnumType):
        return ["enum", ctype.tag]
    if isinstance(ctype, PointerType):
        return ["ptr", _neutral_ctype(ctype.pointee)]
    if isinstance(ctype, ArrayType):
        return ["arr", _neutral_ctype(ctype.element), ctype.length]
    if isinstance(ctype, StructType):
        return ["struct", ctype.tag]
    if isinstance(ctype, FunctionType):
        return [
            "fn",
            _neutral_ctype(ctype.return_type),
            [_neutral_ctype(p) for p in ctype.param_types],
            ctype.variadic,
        ]
    return None


def _struct_tags(program: SimpleProgram) -> dict:
    """tag -> interned StructType, walking every type the program
    mentions (globals, externals, locals, params)."""
    from repro.frontend.ctypes import (
        ArrayType,
        FunctionType,
        PointerType,
        StructType,
    )

    tags: dict = {}
    seen: set[int] = set()

    def walk(ctype) -> None:
        if ctype is None or id(ctype) in seen:
            return
        seen.add(id(ctype))
        if isinstance(ctype, StructType):
            tags.setdefault(ctype.tag, ctype)
            for f in ctype.fields:
                walk(f.type)
        elif isinstance(ctype, PointerType):
            walk(ctype.pointee)
        elif isinstance(ctype, ArrayType):
            walk(ctype.element)
        elif isinstance(ctype, FunctionType):
            walk(ctype.return_type)
            for p in ctype.param_types:
                walk(p)

    for ctype in program.global_types.values():
        walk(ctype)
    for ctype in program.externals.values():
        walk(ctype)
    for fn in program.functions.values():
        for ctype in fn.local_types.values():
            walk(ctype)
        for _, ctype in fn.params:
            walk(ctype)
    return tags


def _revive_ctype(data, structs: dict):
    from repro.frontend.ctypes import (
        ArrayType,
        EnumType,
        FloatType,
        FunctionType,
        IntType,
        PointerType,
        StructType,
        VoidType,
    )

    if data is None:
        return None
    tag = data[0]
    if tag == "void":
        return VoidType()
    if tag == "int":
        return IntType(data[1], data[2])
    if tag == "float":
        return FloatType(data[1])
    if tag == "enum":
        return EnumType(data[1])
    if tag == "ptr":
        return PointerType(_revive_ctype(data[1], structs))
    if tag == "arr":
        return ArrayType(_revive_ctype(data[1], structs), data[2])
    if tag == "struct":
        interned = structs.get(data[1])
        return interned if interned is not None else StructType(data[1])
    if tag == "fn":
        return FunctionType(
            _revive_ctype(data[1], structs),
            tuple(_revive_ctype(p, structs) for p in data[2]),
            data[3],
        )
    return None


def _neutral_symbolics(symbolics) -> list:
    return [
        [func, name, _neutral_ctype(ctype)]
        for func, name, ctype in symbolics
    ]


def _revive_symbolics(data, structs: dict) -> tuple:
    return tuple(
        (func, name, _revive_ctype(ctype, structs))
        for func, name, ctype in data
    )


def _neutral_loc(loc: AbsLoc) -> list:
    return [loc.base, loc.kind.value, loc.func, list(loc.path)]


def _revive_loc(data) -> AbsLoc:
    return AbsLoc(data[0], LocKind(data[1]), data[2], tuple(data[3]))


def _neutral_triples(triples) -> list:
    return [
        [_neutral_loc(src), _neutral_loc(tgt), definiteness is Definiteness.D]
        for src, tgt, definiteness in triples
    ]


def _slice_triples(rows, table: LocTable) -> tuple:
    """Slice rows (a memo key or a passthrough, ids of ``table``) as
    location triples in row order.  Seeds and store records keep this
    table-free form; :func:`_slice_rows` is the way back."""
    return tuple(row_triples(rows, table))


def _slice_rows(triples) -> tuple:
    """Location triples as rows of the active table, in order (the
    inverse of :func:`_slice_triples`)."""
    return tuple(PointsToSet.from_triples(triples).rows.items())


def _revive_triples(data) -> tuple:
    return tuple(
        (
            _revive_loc(src),
            _revive_loc(tgt),
            Definiteness.D if definite else Definiteness.P,
        )
        for src, tgt, definite in data
    )


@dataclass(frozen=True)
class SeedEntry:
    """One captured slice-memo entry, detached from any location table.
    ``records`` reference statement ids of the *target* program (they
    are re-resolved whenever an entry crosses programs)."""

    output: tuple
    passthrough: tuple
    records: tuple  # ((stmt_id, triples), ...)
    warnings: tuple
    symbolics: tuple = ()  # ((func, name, ctype), ...)


class SeedBank:
    """Per-function slice-memo seeds a splice's mini run may consult
    on a miss.

    Entries are keyed on the slice key's triples (the memo's key rows,
    table-free); :meth:`materialize` rebuilds a live
    :class:`~repro.core.interproc._SliceEntry` under whatever location
    table is active in the consulting run, so a seed hit is
    indistinguishable from a within-run hit."""

    def __init__(self) -> None:
        self._entries: dict[str, dict[tuple, SeedEntry]] = {}

    def __len__(self) -> int:
        return sum(len(table) for table in self._entries.values())

    def __bool__(self) -> bool:
        return bool(self._entries)

    @property
    def functions(self) -> list[str]:
        return sorted(self._entries)

    def put(self, func: str, key_triples: tuple, entry: SeedEntry) -> None:
        self._entries.setdefault(func, {})[key_triples] = entry

    def materialize(self, func: str, key_rows: tuple, table: LocTable):
        """The entry for the slice key ``key_rows`` (ids of ``table``,
        the active table), or None."""
        entries = self._entries.get(func)
        if not entries:
            return None
        seed = entries.get(_slice_triples(key_rows, table))
        if seed is None:
            return None
        output = PointsToSet.from_triples(seed.output)
        records = [
            (stmt_id, PointsToSet.from_triples(triples))
            for stmt_id, triples in seed.records
        ]
        return _SliceEntry(
            output,
            _slice_rows(seed.passthrough),
            records,
            list(seed.warnings),
            seed.symbolics,
        )


def bank_from_capture(
    old_analysis,
    new_program: SimpleProgram,
    options: AnalysisOptions,
    only: set[str],
) -> SeedBank:
    """Build a seed bank for the functions named in ``only`` from a
    live prior run's slice capture.

    A function's entries are seedable only when its entire transitive
    direct-call closure is fingerprint-identical between the old and
    new programs (and the global tables match): the memo contract makes
    a non-opaque function's analysis a pure function of (closure
    bodies, globals, slice input).  Naming exactly the functions a
    consumer can miss on keeps small updates from neutralizing the
    whole capture."""
    bank = SeedBank()
    if not only:
        return bank
    capture = getattr(old_analysis, "slice_capture", None)
    old_program = getattr(old_analysis, "program", None)
    if not capture or old_program is None:
        return bank
    if globals_fingerprint(old_program) != globals_fingerprint(new_program):
        return bank
    old_oracle = _SummaryOracle(old_program, options)
    new_oracle = _SummaryOracle(new_program, options)
    new_structs = _struct_tags(new_program)

    for func, table in capture.items():
        if func not in only or func not in new_program.functions:
            continue
        if new_oracle.summary(func).opaque:
            continue
        closure = new_oracle.closure(func)
        if any(
            member not in old_program.functions
            or old_oracle.fingerprint(member)
            != new_oracle.fingerprint(member)
            for member in closure
        ):
            continue
        old_ids = {member: old_program.stmt_ids[member] for member in closure}
        new_ids = {member: new_program.stmt_ids[member] for member in closure}
        if any(len(old_ids[m]) != len(new_ids[m]) for m in closure):
            continue
        # Each member's body moves as a block: its statements keep
        # their ordinals (id minus the function's first id).
        shift = {m: new_ids[m].start - old_ids[m].start for m in closure}
        for key, entry in table.items():
            rows_table = entry.output.table
            records = []
            ok = True
            for stmt_id, recorded in entry.records:
                delta = shift.get(old_analysis.function_of_stmt(stmt_id))
                if delta is None:
                    ok = False
                    break
                records.append((stmt_id + delta, tuple(recorded.triples())))
            if not ok:
                continue
            bank.put(
                func,
                _slice_triples(key[1], rows_table),
                SeedEntry(
                    output=tuple(entry.output.triples()),
                    passthrough=_slice_triples(entry.passthrough, rows_table),
                    records=tuple(records),
                    warnings=tuple(entry.warnings),
                    # Re-encode types against the new parse: struct
                    # types are interned per parse, and the old
                    # program's objects must not leak into new envs.
                    symbolics=_revive_symbolics(
                        _neutral_symbolics(entry.symbolics), new_structs
                    ),
                ),
            )
    return bank


def capture_records(
    analysis, options: AnalysisOptions | None = None
) -> dict[str, dict]:
    """Neutral per-function summary records for the store: one JSON
    document per seedable function, carrying its captured slice
    entries with statement references as (function, ordinal) pairs."""
    options = options or analysis.options
    capture = getattr(analysis, "slice_capture", None)
    program = getattr(analysis, "program", None)
    if not capture or program is None:
        return {}
    fps = function_fingerprints(program)
    deps = static_deps(program)
    gfp = globals_fingerprint(program)
    summaries = summarize_program(program, options)
    records: dict[str, dict] = {}
    for func, table in capture.items():
        if func not in program.functions or summaries[func].opaque:
            continue
        closure = closure_members(deps, func)
        entries = []
        usable = True
        for key, entry in table.items():
            rows_table = entry.output.table
            entry_records = []
            for stmt_id, recorded in entry.records:
                member = analysis.function_of_stmt(stmt_id)
                if member is None:
                    usable = False
                    break
                entry_records.append(
                    [
                        member,
                        stmt_id - program.stmt_ids[member].start,
                        _neutral_triples(recorded.triples()),
                    ]
                )
            if not usable:
                break
            entries.append(
                {
                    "key": _neutral_triples(
                        _slice_triples(key[1], rows_table)
                    ),
                    "output": _neutral_triples(entry.output.triples()),
                    "passthrough": _neutral_triples(
                        _slice_triples(entry.passthrough, rows_table)
                    ),
                    "records": entry_records,
                    "warnings": list(entry.warnings),
                    "symbolics": _neutral_symbolics(entry.symbolics),
                }
            )
        if not usable or not entries:
            continue
        records[func] = {
            "summary_version": 2,
            "function": func,
            "members": {member: fps[member] for member in sorted(closure)},
            "globals": gfp,
            "entries": entries,
        }
    return records


def bank_from_records(
    records: dict[str, dict], program: SimpleProgram
) -> SeedBank:
    """Revive store summary records against ``program``.  Records are
    assumed content-addressed — the caller looked them up by a key
    derived from the *new* program's closure fingerprints, so closure
    cleanliness is already proven; only structural resolution can
    still fail (and skips the record)."""
    bank = SeedBank()
    structs = _struct_tags(program)
    members = {
        member
        for record in records.values()
        for member in record.get("members", {})
    }
    for func, record in records.items():
        if func not in program.functions:
            continue
        for entry in record.get("entries", ()):
            key_triples = _revive_triples(entry["key"])
            entry_records = []
            ok = True
            for member, ordinal, triples in entry["records"]:
                ids = program.stmt_ids.get(member)
                if (
                    member not in members
                    or ids is None
                    or ordinal >= len(ids)
                ):
                    ok = False
                    break
                entry_records.append((ids[ordinal], _revive_triples(triples)))
            if not ok:
                continue
            bank.put(
                func,
                key_triples,
                SeedEntry(
                    output=_revive_triples(entry["output"]),
                    passthrough=_revive_triples(entry["passthrough"]),
                    records=tuple(entry_records),
                    warnings=tuple(entry["warnings"]),
                    symbolics=_revive_symbolics(
                        entry.get("symbolics", ()), structs
                    ),
                ),
            )
    return bank


def _reanalyzed_functions(stats: MemoStats) -> list[str]:
    """Functions whose bodies were actually re-flowed (at least one
    slice/memo miss); seed and within-run hits replay instead."""
    return sorted(
        func
        for func, (hits, misses) in stats.per_function.items()
        if misses
    )


# --------------------------------------------------------------------------
# Splice
# --------------------------------------------------------------------------


class _Fallback(Exception):
    """Internal: a splice condition failed; fall back to cold."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


def _visible_triples(output: PointsToSet, func: str) -> frozenset | None:
    """The caller-visible portion of a body output: drop pairs rooted
    in the callee's own frame (locals/params die at unmap).  Returns
    None when a *kept* pair targets a frame location — an escaping
    local the visibility argument cannot cover."""
    kept = []
    for src, tgt, definiteness in output.triples():
        sroot = src.root()
        if (
            sroot.kind in (LocKind.LOCAL, LocKind.PARAM)
            and sroot.func == func
        ):
            continue
        troot = tgt.root()
        if (
            troot.kind in (LocKind.LOCAL, LocKind.PARAM)
            and troot.func == func
        ):
            return None
        kept.append((src, tgt, definiteness))
    return frozenset(kept)


def _is_passthrough_pair(src: AbsLoc, k_star: set) -> bool:
    """Whether a pair with this source can only be caller passthrough:
    a GLOBAL-rooted source outside K* — the key-pair roots plus the
    closure-referenced globals — is unreachable and unnameable by the
    body, so every such pair in a recorded row came in from the caller
    and rides through unchanged."""
    root = src.root()
    return root.kind is LocKind.GLOBAL and root not in k_star


def splice_update(
    old_analysis: PointsToAnalysis,
    parsed: IncrementalParse,
    options: AnalysisOptions,
):
    """Patch the old analysis in place of a cold re-run.

    Returns ``(analysis, info)`` on success, None when any condition
    fails (the caller falls back to cold).  ``info`` carries
    ``reanalyzed`` (functions re-flowed by the mini run) and
    ``reused_summaries``.

    Correctness sketch (the edit-fuzz campaign machine-checks the
    conclusion): under the verified conditions the cold-new run's
    trajectory is identical to the old run's outside the changed
    functions' own statements — every captured slice invocation of a
    changed function F produces the same caller-visible output,
    warnings, and sub-callee records, so every caller flows
    identically; F's own program-point rows are rebuilt exactly as the
    merge over its invocations: per-key mini records merged across
    keys, stored-passthrough pairs dropped, and the caller-passthrough
    part (recoverable from any fully-covered old row by the K*
    criterion) re-added."""
    try:
        return _splice_update(old_analysis, parsed, options)
    except _Fallback:
        return None


def _splice_update(old_analysis, parsed, options):
    if CONFIG.track_provenance:
        raise _Fallback("provenance recording requested")
    if not options.context_sensitive or options.share_subtrees:
        raise _Fallback("options outside the sliced protocol")
    capture = getattr(old_analysis, "slice_capture", None)
    if capture is None:
        raise _Fallback("no slice capture on the base analysis")
    if old_analysis.provenance is not None:
        raise _Fallback("base analysis carries provenance")
    if old_analysis.stats is None or old_analysis.stats.evictions:
        raise _Fallback("base capture is incomplete (evictions)")

    old_program = old_analysis.program
    new_program = parsed.program
    changed = list(parsed.changed)
    old_func_of = old_analysis.function_of_stmt

    def renumber(stmt_id: int) -> int:
        """A statement id of the old program in the new one's numbering.
        Global initializers keep their ids and an unchanged body moves
        by its shift.  A re-lowered body's old statements get 0, which
        no statement of a built program carries, so rows recorded
        against them never pass for the new body's."""
        func = old_func_of(stmt_id)
        if func is None:
            return stmt_id
        shift = parsed.stmt_shift.get(func)
        return 0 if shift is None else stmt_id + shift

    old_oracle = _SummaryOracle(old_program, options)
    new_oracle = _SummaryOracle(new_program, options)

    node_kinds: dict[str, set] = {}
    for func, kind, _ in old_analysis.ig.distinct_subtrees():
        node_kinds.setdefault(func, set()).add(kind)

    plans = []
    for func in changed:
        if func == options.entry_point:
            raise _Fallback("entry point edited")
        old_summary = old_oracle.summary(func)
        if old_summary.opaque or new_oracle.summary(func).opaque:
            raise _Fallback(f"'{func}' is opaque")
        if node_kinds.get(func, set()) - {IGNodeKind.ORDINARY}:
            raise _Fallback(f"'{func}' has non-ordinary IG nodes")
        old_fn = old_program.functions[func]
        new_fn = new_program.functions[func]
        old_calls = _call_stmts(old_fn)
        new_calls = _call_stmts(new_fn)
        if [
            (s.kind, s.callee, s.callee_ptr is not None) for s in old_calls
        ] != [
            (s.kind, s.callee, s.callee_ptr is not None) for s in new_calls
        ]:
            raise _Fallback(f"'{func}' call sequence changed")
        old_ids = old_program.stmt_ids[func]
        new_ids = new_program.stmt_ids[func]
        entries = list((capture.get(func) or {}).items())
        if not entries:
            if any(
                stmt_id in old_analysis.point_info for stmt_id in old_ids
            ):
                raise _Fallback(f"'{func}' has rows but no capture")
        # The passthrough criterion only consults GLOBAL-kind roots, so
        # invocations may differ in key shape as long as the effective
        # frontier — global key roots plus the closure's referenced
        # globals — and the body coverage agree across all of them.
        refglob = {
            global_loc(name)
            for name in old_summary.referenced_globals
        }
        k_star = None
        covered_old = None
        for key, entry in entries:
            key_triples = _slice_triples(key[1], entry.output.table)
            roots = {src.root() for src, _, _ in key_triples} | {
                tgt.root() for _, tgt, _ in key_triples
            }
            effective = {
                root for root in roots if root.kind is LocKind.GLOBAL
            } | refglob
            if k_star is None:
                k_star = effective
            elif effective != k_star:
                raise _Fallback(f"'{func}' passthrough frontier diverges")
            covered = frozenset(
                stmt_id
                for stmt_id, _ in entry.records
                if stmt_id in old_ids
            )
            if covered_old is None:
                covered_old = covered
            elif covered != covered_old:
                raise _Fallback(f"'{func}' body coverage diverges")
        if k_star is None:
            k_star = refglob
        plans.append(
            (func, old_fn, new_fn, old_calls, new_calls, old_ids, new_ids,
             entries, covered_old or frozenset(), k_star)
        )

    # Mini fixpoint over just the changed functions' captured inputs,
    # under a fresh location table, with unchanged-closure summaries
    # pre-seeded so untouched subtrees replay instead of re-flowing.
    previous_table = install_table(LocTable())
    new_rows: dict[int, PointsToSet] = {}
    new_capture: dict[str, dict] = {}
    mini = None
    try:
        # The mini run only ever flows detached per-function subtrees.
        mini = Analyzer(new_program, options)
        # Seeds can only be consulted for the changed functions'
        # unchanged sub-callees — restrict the bank to exactly those
        # (empty for leaf edits, skipping neutralization entirely).
        seed_only: set[str] = set()
        for func in changed:
            seed_only |= new_oracle.closure(func)
        seed_only -= set(changed)
        mini.seed_bank = bank_from_capture(
            old_analysis, new_program, options, only=seed_only
        )
        for (func, old_fn, new_fn, old_calls, new_calls, old_ids, new_ids,
             entries, covered_old, k_star) in plans:
            if not entries:
                continue
            node = mini.ig.context_tree(func)
            func_entries: dict = {}
            covered_new = None
            for key, old_entry in entries:
                old_table = old_entry.output.table
                key_triples = _slice_triples(key[1], old_table)
                passthrough = _slice_triples(old_entry.passthrough, old_table)
                func_input = PointsToSet.from_triples(
                    key_triples + passthrough
                )
                _process_ordinary(mini, node, func_input)
                key = ("slice", _slice_rows(key_triples))
                new_entry = mini._slice_memo.get(func, {}).get(key)
                if new_entry is None:
                    raise _Fallback(f"'{func}' slice key not reproduced")
                if (
                    _slice_triples(new_entry.passthrough, func_input.table)
                    != passthrough
                ):
                    raise _Fallback(f"'{func}' passthrough diverged")
                if list(new_entry.warnings) != list(old_entry.warnings):
                    raise _Fallback(f"'{func}' warnings diverged")
                vis_old = _visible_triples(old_entry.output, func)
                vis_new = _visible_triples(new_entry.output, func)
                if vis_old is None or vis_new is None or vis_old != vis_new:
                    raise _Fallback(f"'{func}' visible output diverged")
                old_foreign = {
                    renumber(stmt_id): frozenset(recorded.triples())
                    for stmt_id, recorded in old_entry.records
                    if stmt_id not in old_ids
                }
                new_foreign = {
                    stmt_id: frozenset(recorded.triples())
                    for stmt_id, recorded in new_entry.records
                    if stmt_id not in new_ids
                }
                if old_foreign != new_foreign:
                    raise _Fallback(f"'{func}' sub-callee records diverged")
                covered = frozenset(
                    stmt_id
                    for stmt_id, _ in new_entry.records
                    if stmt_id in new_ids
                )
                if covered_new is None:
                    covered_new = covered
                elif covered != covered_new:
                    raise _Fallback(f"'{func}' new coverage diverges")
                func_entries[key] = new_entry
            covered_new = covered_new or frozenset()
            if covered_new and not covered_old:
                raise _Fallback(
                    f"'{func}' passthrough part unrecoverable"
                )
            # Caller-passthrough part: identical at every fully-covered
            # statement, so any old covered row yields it.
            passthrough_part: list = []
            if covered_new:
                sample = old_analysis.point_info[min(covered_old)]
                passthrough_part = [
                    (src, tgt, definiteness)
                    for src, tgt, definiteness in sample.triples()
                    if _is_passthrough_pair(src, k_star)
                ]
            record_maps = [
                dict(entry.records) for entry in func_entries.values()
            ]
            for stmt_id in covered_new:
                row = record_maps[0][stmt_id].copy()
                for other in record_maps[1:]:
                    row = row.merge(other[stmt_id])
                for src, tgt, _ in list(row.triples()):
                    if _is_passthrough_pair(src, k_star):
                        row.discard(src, tgt)
                for src, tgt, definiteness in passthrough_part:
                    row.add(src, tgt, definiteness)
                new_rows[stmt_id] = row
            new_capture[func] = func_entries
        reanalyzed = _reanalyzed_functions(mini.memo_stats)
    finally:
        install_table(previous_table)

    # All conditions verified — commit: renumbered invocation graph,
    # spliced rows, grafted environments.
    full_site_map = dict(parsed.site_map)
    for (func, old_fn, new_fn, old_calls, new_calls, *_rest) in plans:
        for old_stmt, new_stmt in zip(old_calls, new_calls):
            full_site_map[old_stmt.call_site] = new_stmt.call_site
    ig = old_analysis.ig
    if any(site not in full_site_map for site in ig.call_sites()):
        raise _Fallback("invocation-graph site unmapped")
    ig.renumber_sites(full_site_map)
    ig.program = new_program

    point_info: dict[int, PointsToSet] = {}
    for stmt_id, row in old_analysis.point_info.items():
        new_id = renumber(stmt_id)
        if new_id:
            point_info[new_id] = row
    point_info.update(new_rows)
    changed_set = set(changed)

    result = PointsToAnalysis(
        new_program,
        ig,
        point_info,
        list(old_analysis.warnings),
        options,
        stats=MemoStats(),
    )
    old_env = old_analysis.env
    env_cache: dict = {}

    def spliced_env(func):
        if func in env_cache:
            return env_cache[func]
        if func in changed_set:
            fresh = FuncEnv(new_program, func)
            # The changed function's symbolic names are created by its
            # (unchanged) callers at map time; carry their types over.
            fresh._symbolic_types = dict(old_env(func)._symbolic_types)
        else:
            fresh = old_env(func)
        env_cache[func] = fresh
        return fresh

    result.env = spliced_env
    result.slice_capture = {
        func: new_capture[func] if func in changed_set else {
            key: _SliceEntry(
                entry.output,
                entry.passthrough,
                [(renumber(i), recorded) for i, recorded in entry.records],
                entry.warnings,
                entry.symbolics,
            )
            for key, entry in table.items()
        }
        for func, table in capture.items()
        if func not in changed_set or func in new_capture
    }
    info = {
        "reanalyzed": sorted(set(reanalyzed) | set(new_capture)),
        "reused_summaries": len(
            [func for func in capture if func not in changed_set]
        ),
    }
    return result, info


# --------------------------------------------------------------------------
# Orchestration
# --------------------------------------------------------------------------


@dataclass
class UpdateReport:
    """What an update did, and how much it reused."""

    mode: str  # "unchanged" | "splice" | "cold"
    changed: list[str] = field(default_factory=list)
    removed: list[str] = field(default_factory=list)
    dirty_functions: list[str] = field(default_factory=list)
    kill_propagations: int = 0
    reused_summaries: int = 0
    reanalyzed: list[str] = field(default_factory=list)
    fallback: str | None = None

    def as_dict(self) -> dict:
        return {
            "mode": self.mode,
            "changed": self.changed,
            "removed": self.removed,
            "dirty_functions": self.dirty_functions,
            "kill_propagations": self.kill_propagations,
            "reused_summaries": self.reused_summaries,
            "reanalyzed": self.reanalyzed,
            "fallback": self.fallback,
        }


def update_analysis(
    old_analysis,
    old_source: str | None,
    new_source: str,
    options: AnalysisOptions | None = None,
    *,
    filename: str = "<source>",
) -> tuple[PointsToAnalysis, UpdateReport]:
    """Re-analyze ``new_source``: splice ``old_analysis`` when that is
    provably safe, else run cold.

    ``old_analysis`` may be a live :class:`PointsToAnalysis` (warm
    session) or any object exposing ``options`` and optionally an
    ``incremental`` skeleton dict (a decoded artifact), which only plans
    the dirty set: splicing needs a live slice capture.
    """
    options = options if options is not None else old_analysis.options
    old_program = getattr(old_analysis, "program", None)
    live = old_program is not None

    if live and old_source is not None and old_source == new_source:
        report = UpdateReport(
            mode="unchanged",
            reused_summaries=len(
                getattr(old_analysis, "slice_capture", None) or ()
            ),
        )
        _emit_counters(report)
        return old_analysis, report

    parsed = None
    if live and old_source is not None:
        parsed = incremental_simplify(
            old_source, old_program, new_source, filename
        )
    if parsed is not None:
        new_program = parsed.program
    else:
        new_program = simplify_source(new_source, filename)

    # Plan the dirty set, using provenance derivation edges as the
    # dependency graph when the old run recorded them.
    prov_edges = provenance_dependencies(old_analysis)
    if parsed is not None:
        # The chunk differ already proved the function sets and global
        # tables identical and named the changed bodies, so skip the
        # whole-program fingerprint sweep; absent provenance, lift
        # dependency edges from the old invocation graph (a caller's
        # facts depend on every callee it actually invoked).
        edges = prov_edges
        if edges is None:
            edges = {}
            for caller, callees in old_analysis.ig.call_graph().items():
                for callee in callees:
                    edges.setdefault(callee, set()).add(caller)
        changed = sorted(parsed.changed)
        dirty: set[str] = set()
        worklist = list(changed)
        while worklist:
            func = worklist.pop()
            if func in dirty:
                continue
            dirty.add(func)
            worklist.extend(edges.get(func, ()))
        plan = UpdatePlan(
            changed=changed,
            added=[],
            removed=[],
            dirty=sorted(dirty),
            kill_propagations=len(dirty - set(changed)),
        )
    else:
        new_fps = function_fingerprints(new_program)
        new_deps = static_deps(new_program)
        if live:
            old_fps = function_fingerprints(old_program)
            old_deps = static_deps(old_program)
        else:
            skel = getattr(old_analysis, "incremental", None) or {}
            old_fps = skel.get("fingerprints", {})
            old_deps = skel.get("deps", {})
        plan = plan_update(old_fps, old_deps, new_fps, new_deps, prov_edges)

    if parsed is None:
        fallback = (
            "no incremental parse of the edit" if live
            else "no live base analysis"
        )
    else:
        spliced = splice_update(old_analysis, parsed, options)
        if spliced is not None:
            analysis, info = spliced
            report = UpdateReport(
                mode="splice",
                changed=plan.changed + plan.added,
                removed=plan.removed,
                dirty_functions=plan.dirty,
                kill_propagations=plan.kill_propagations,
                reused_summaries=info["reused_summaries"],
                reanalyzed=info["reanalyzed"],
            )
            _emit_counters(report)
            return analysis, report
        fallback = "splice conditions not met"

    analysis = analyze(new_program, options)
    report = UpdateReport(
        mode="cold",
        changed=plan.changed + plan.added,
        removed=plan.removed,
        dirty_functions=plan.dirty,
        kill_propagations=plan.kill_propagations,
        reused_summaries=0,
        reanalyzed=_reanalyzed_functions(analysis.stats),
        fallback=fallback,
    )
    _emit_counters(report)
    return analysis, report


def _emit_counters(report: UpdateReport) -> None:
    if not obs.active():
        return
    obs.count("incremental.updates")
    obs.count("incremental.dirty_functions", len(report.dirty_functions))
    obs.count("incremental.reused_summaries", report.reused_summaries)
    obs.count("incremental.kill_propagations", report.kill_propagations)
