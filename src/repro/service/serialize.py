"""Stable, versioned JSON encoding of a completed analysis.

``encode_analysis`` flattens a live
:class:`~repro.core.analysis.PointsToAnalysis` into a JSON-safe dict;
``decode_analysis`` rebuilds a :class:`DecodedAnalysis` that answers
the same questions *without the program*: labels, per-statement
triples, the invocation graph, per-function name-resolution scopes and
precomputed read/write sets all travel inside the payload.  That
self-containment is what makes the result store's warm path fast — a
cache hit never re-parses the C source (parsing costs more than the
analysis itself on this suite).  The payload carries only what a query
reads: the Tables 2-6 and perf summaries are derived on demand from a
live (or decoded) analysis by :mod:`repro.core.statistics`.

Determinism: the encoder never iterates an unordered container without
sorting it, and :func:`encode_analysis_bytes` serializes with
``sort_keys`` and fixed separators, so encoding the same analysis in
two different processes (different ``PYTHONHASHSEED``) produces
byte-identical output.  The store's content-addressing and the
round-trip property test both rely on this.

The format is versioned (:data:`FORMAT_VERSION`); the version is part
of the store key, so a format change simply misses the cache instead
of mis-decoding stale payloads.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict

from repro.core.analysis import AnalysisOptions, _is_temp_name
from repro.core.incremental import skeleton
from repro.core.interproc import MemoStats
from repro.core.invocation_graph import (
    GraphQueries,
    IGNode,
    root_of_table,
    subtree_table,
)
from repro.core.locations import AbsLoc, LocKind, LocTable
from repro.core.pointsto import PointsToSet, iter_bits, locations_of
from repro.checkers.facts import CheckFacts, analysis_facts
from repro.core.provenance import CLASSIFICATION, Derivation
from repro.core.readwrite import ReadWriteSets, function_read_write
from repro.service.gcpause import gc_paused

#: Bump whenever the payload layout changes; stale store entries are
#: then simply cache misses (the version participates in the key).
#: v2: "checkfacts" section (checker-framework program facts) and
#: call read/write sets folded over resolved callees.
#: v3: "incremental" section (per-function body fingerprints, the
#: static dependency graph, and the globals fingerprint) feeding the
#: incremental update planner.
#: v4: Tables 2-6/perf "summaries" section dropped; derive on demand.
#: v5: "point_info" spells each shared row and set once
#: (:func:`_encode_point_info`); "stmt_func" is one ``[start, stop]``
#: id range per function.
#: v6: "ig" spells each distinct invocation subtree once
#: (:func:`_encode_ig`) instead of every node.
#: v7: "options" drops the sub-tree sharing switch (the slice memo is
#: the one cross-context memo).
#: v8: "incremental" drops the per-function body fingerprints; only the
#: static dependency graph and the globals fingerprint remain, for
#: ``check --diff`` on decoded artifacts.  Only v8 decodes: every older
#: payload sits under an older store key, so the store never hands one
#: back.
FORMAT_VERSION = 8

#: Payload versions :class:`DecodedAnalysis` accepts.
SUPPORTED_VERSIONS = frozenset({8})

#: Version of the *optional* ``"provenance"`` payload section.  The
#: section is versioned independently: it only appears when the
#: producing run recorded derivations, and payloads without it must
#: stay byte-identical across releases that only change this schema.
PROVENANCE_VERSION = 1


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------


def _loc_sort_key(loc: AbsLoc):
    return (loc.kind.value, loc.func or "", loc.base, loc.path)


class _LocTable:
    """Interning table assigning dense indexes to abstract locations.

    Indexes are assigned in sorted order over the full location
    population (collected up front), so the table — and every index
    that references it — is independent of hash ordering.
    """

    def __init__(self, locations: set[AbsLoc]):
        self.locations = sorted(locations, key=_loc_sort_key)
        self._index = {loc: i for i, loc in enumerate(self.locations)}
        self._encodings: dict[LocTable, tuple[list[int], dict]] = {}

    def index(self, loc: AbsLoc) -> int:
        return self._index[loc]

    def encoding_for(self, table: LocTable) -> tuple[list[int], dict]:
        """Location id of ``table`` -> index here, and the memo of
        encoded rows :func:`_encode_point_info` shares across the sets
        of ``table``."""
        encoding = self._encodings.get(table)
        if encoding is None:
            get = self._index.get
            encoding = ([get(table.loc_of(i)) for i in range(len(table))], {})
            self._encodings[table] = encoding
        return encoding

    def encode(self) -> list:
        return [
            [loc.base, loc.kind.value, loc.func, list(loc.path)]
            for loc in self.locations
        ]


def _collect_locations(analysis, readwrite) -> set[AbsLoc]:
    locations = locations_of(analysis.point_info.values())
    for sets_list in readwrite.values():
        for sets in sets_list:
            locations |= sets.must_write | sets.may_write | sets.reads
    return locations


def _encode_point_info(point_info: dict, table: _LocTable) -> dict:
    """The per-statement point sets as a dictionary: ``rows`` holds
    each distinct row once, as ``[src, [D targets], [P targets]]`` of
    location indexes; ``sets`` each distinct set once, as its row ids
    ordered by source index; ``stmts`` each statement's set id.

    Rows and sets are numbered in order of first appearance over
    ascending statement ids, keyed by their encoded content, so the
    bytes do not depend on how the live sets share rows or on which
    tables they use.  The row memo and the cache of shared row dicts
    only skip repeated work."""
    row_ids: dict[tuple, int] = {}
    set_ids: dict[tuple, int] = {}
    by_rows: dict[int, int] = {}
    stmts: dict[str, int] = {}
    for stmt_id, info in sorted(point_info.items()):
        set_id = by_rows.get(id(info.rows))
        if set_id is None:
            index, memo = table.encoding_for(info.table)
            encoded = []
            for row in info.rows.items():
                content = memo.get(row)
                if content is None:
                    sid, (defs, poss) = row
                    content = memo[row] = (
                        index[sid],
                        tuple(sorted(index[t] for t in iter_bits(defs))),
                        tuple(sorted(index[t] for t in iter_bits(poss))),
                    )
                encoded.append(content)
            encoded.sort()  # sources are distinct: by source index
            members = tuple(
                row_ids.setdefault(content, len(row_ids))
                for content in encoded
            )
            set_id = set_ids.setdefault(members, len(set_ids))
            by_rows[id(info.rows)] = set_id
        stmts[str(stmt_id)] = set_id
    return {
        "rows": [[src, list(defs), list(poss)] for src, defs, poss in row_ids],
        "sets": [list(members) for members in set_ids],
        "stmts": stmts,
    }


def _encode_ig(ig) -> list:
    """The invocation graph as each distinct subtree once
    (:func:`~repro.core.invocation_graph.subtree_table`).

    Children are listed in their original insertion order (the order
    the analysis attached them), which is deterministic because the
    analysis is; preserving it makes ``render()``/``to_dot()`` of the
    decoded graph byte-identical to the original's.
    """
    return subtree_table(ig.root)


def _encode_scopes(analysis) -> dict:
    """Per-function name-resolution tables mirroring
    :meth:`repro.core.env.FuncEnv.var_loc`'s lookup order."""
    program = analysis.program
    scopes: dict[str, dict] = {}
    for name in sorted(program.functions):
        fn = program.functions[name]
        env = analysis.env(name)
        scopes[name] = {
            "params": sorted(fn.param_names),
            "locals": sorted(fn.local_types),
            "symbolics": sorted(env.symbolic_names()),
        }
    return scopes


def _encode_readwrite(readwrite, table: _LocTable) -> dict:
    index = table._index

    def locs(values) -> list[int]:
        return sorted([index[loc] for loc in values])

    return {
        func: [
            [
                s.stmt_id,
                locs(s.must_write),
                locs(s.may_write),
                locs(s.reads),
            ]
            for s in sets_list
        ]
        for func, sets_list in sorted(readwrite.items())
    }


def _encode_provenance(log) -> dict:
    """The derivation log as a self-contained payload section.

    The section carries its *own* location table: reusing the main
    payload's table would shift its indexes (derivations mention
    killed/intermediate locations the final triples don't), and the
    contract is that stripping the ``"provenance"`` key from an
    enabled-run payload yields the byte-identical disabled-run payload.

    Records keep their list order (a record's id is its index), so
    ``latest`` and the parent links survive encoding for free.  A
    ``None`` statement (NULL initialization) stays ``null``.
    """
    locations: set[AbsLoc] = set()
    for record in log.records:
        locations.add(record.src)
        locations.add(record.tgt)
    table = _LocTable(locations)
    return {
        "version": PROVENANCE_VERSION,
        "locations": table.encode(),
        "records": [
            [
                table.index(record.src),
                table.index(record.tgt),
                1 if record.definite else 0,
                record.rule,
                record.stmt_id,
                record.func,
                list(record.path),
                list(record.parents),
                record.extra,
            ]
            for record in log.records
        ],
        "kill_count": log.kill_count,
        "symbolic_intros": list(log.symbolic_intros),
    }


def encode_analysis(
    analysis, name: str = "<source>", source: str | None = None
) -> dict:
    """Flatten a live analysis into a JSON-safe, deterministic dict."""
    program = analysis.program
    readwrite = {
        fn: function_read_write(analysis, fn)
        for fn in sorted(program.functions)
    }
    table = _LocTable(_collect_locations(analysis, readwrite))
    payload = {
        "format_version": FORMAT_VERSION,
        "name": name,
        "options": asdict(analysis.options),
        "statements": program.count_basic_stmts(),
        "locations": table.encode(),
        "labels": {
            label: [func, stmt_id]
            for label, (func, stmt_id) in sorted(program.labels.items())
        },
        "stmt_func": {
            name: [stmt_ids.start, stmt_ids.stop]
            for name, stmt_ids in program.stmt_ids.items()
        },
        "point_info": _encode_point_info(analysis.point_info, table),
        "ig": _encode_ig(analysis.ig),
        "scopes": _encode_scopes(analysis),
        "globals": sorted(program.global_types),
        "functions": sorted(program.functions),
        "externals": sorted(program.externals),
        "readwrite": _encode_readwrite(readwrite, table),
        "checkfacts": analysis_facts(analysis).encode(),
        "warnings": list(analysis.warnings),
        "stats": analysis.stats.as_dict(),
        "incremental": skeleton(program),
    }
    log = getattr(analysis, "provenance", None)
    if log is not None:
        # Optional section: present exactly when the producing run
        # recorded derivations, absent (not null) otherwise, so
        # provenance-off artifacts are byte-identical to pre-provenance
        # ones.
        payload["provenance"] = _encode_provenance(log)
    if source is not None:
        payload["source_sha256"] = hashlib.sha256(
            source.encode()
        ).hexdigest()
    return payload


def encode_analysis_bytes(
    analysis, name: str = "<source>", source: str | None = None
) -> bytes:
    """Canonical byte serialization (stable across processes)."""
    return canonical_json(encode_analysis(analysis, name, source))


def canonical_json(payload: dict) -> bytes:
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":")
    ).encode()


def semantic_payload_bytes(
    analysis, name: str = "<source>", source: str | None = None
) -> bytes:
    """Canonical bytes of the *semantic* payload: the encoded analysis
    minus the run-shape counters (top-level ``stats``), which
    legitimately differ between memoization protocols and update
    tiers.  This is the byte-identity contract the core is
    held to by the golden digests, incremental updates and provenance
    runs — everything an analysis *means* (per-point triples,
    invocation graph, warnings, check facts, read/write summaries)
    with nothing about how fast it was computed."""
    payload = encode_analysis(analysis, name, source)
    payload.pop("stats", None)
    return canonical_json(payload)


# ---------------------------------------------------------------------------
# Decoding
# ---------------------------------------------------------------------------


class DecodedInvocationGraph(GraphQueries):
    """An invocation graph rebuilt from a payload: the same lazy
    :class:`~repro.core.invocation_graph.IGNode` contexts over shared
    shapes as a live graph, so every query of the live class applies
    verbatim."""

    def __init__(self, root: IGNode, root_func: str):
        self.root = root
        self.root_func = root_func


class DecodedProvenance:
    """A derivation log rebuilt from the ``"provenance"`` section.

    Exposes the read surface the witness helpers and query verbs need
    — ``records`` (real :class:`~repro.core.provenance.Derivation`
    tuples), ``latest``, ``kill_count``, ``symbolic_intros``,
    ``class_counts()`` — so :func:`repro.core.provenance.witness` and
    friends work on it verbatim.  ``latest`` is rebuilt by scanning
    records in order, which reproduces the live dict exactly: the
    recorder overwrites ``latest[(src, tgt)]`` on every append, so the
    last record per pair wins in both.

    Statement ids are the producing program's own, the same ids as the
    payload's ``labels`` / ``point_info``.
    """

    def __init__(self, section: dict):
        version = section.get("version")
        if version != PROVENANCE_VERSION:
            raise ValueError(
                f"provenance section version {version!r} != "
                f"{PROVENANCE_VERSION}"
            )
        locs = [
            AbsLoc(base, LocKind(kind), func, tuple(path))
            for base, kind, func, path in section["locations"]
        ]
        self.records: list[Derivation] = [
            Derivation(
                src=locs[si],
                tgt=locs[ti],
                definite=bool(definite),
                rule=rule,
                stmt_id=stmt_id,
                func=func,
                path=tuple(path),
                parents=tuple(parents),
                extra=extra,
            )
            for si, ti, definite, rule, stmt_id, func, path, parents, extra
            in section["records"]
        ]
        self.latest: dict[tuple, int] = {
            (record.src, record.tgt): rid
            for rid, record in enumerate(self.records)
        }
        self.kill_count: int = section["kill_count"]
        self.symbolic_intros: list[dict] = section["symbolic_intros"]

    def class_counts(self) -> dict[str, int]:
        counts = {
            "gen": 0, "kill": self.kill_count, "weaken": 0, "transfer": 0
        }
        classify = CLASSIFICATION.get
        for record in self.records:
            counts[classify(record.rule, "transfer")] += 1
        return counts


class DecodedAnalysis:
    """A cached analysis result decoded from its JSON payload.

    Mirrors the query surface of
    :class:`~repro.core.analysis.PointsToAnalysis` — ``at_label``,
    ``at_stmt``, ``triples_at``, ``function_of_stmt``, ``labels``,
    ``ig``, ``warnings``, ``options``, ``stats`` — without holding a
    :class:`~repro.simple.ir.SimpleProgram` (``program`` is None).
    Name resolution and read/write sets come from the payload's scope
    tables and precomputed sets instead of the frontend.
    """

    #: Decoded results carry no program; callers that need statements
    #: must re-simplify the source (the query layer never does).
    program = None

    def __init__(self, payload: dict):
        version = payload.get("format_version")
        if version not in SUPPORTED_VERSIONS:
            raise ValueError(
                f"payload format version {version!r} not in "
                f"{sorted(SUPPORTED_VERSIONS)}"
            )
        self.payload = payload
        self.name: str = payload["name"]
        self.options = AnalysisOptions(**payload["options"])
        self.statements: int = payload["statements"]
        self._locs = [
            AbsLoc(base, LocKind(kind), func, tuple(path))
            for base, kind, func, path in payload["locations"]
        ]
        self.labels: dict[str, tuple[str, int]] = {
            label: (func, stmt_id)
            for label, (func, stmt_id) in payload["labels"].items()
        }
        stmt_func, point_info = payload["stmt_func"], payload["point_info"]
        # Each decoded artifact gets its own table, as each run does.
        locs, table, ids = self._locs, LocTable(), [-1] * len(self._locs)
        self._stmt_func = {
            i: f for f, span in stmt_func.items() for i in range(*span)
        }
        self.point_info: dict[int, PointsToSet] = {}
        rows, sets = point_info["rows"], point_info["sets"]
        decoded, built = [None] * len(rows), {}
        for stmt_id, set_id in point_info["stmts"].items():
            pts = built.get(set_id)
            if pts is None:
                pts = built[set_id] = PointsToSet.from_indexed_rows(
                    table, locs, rows, sets[set_id], ids, decoded
                )
            self.point_info[int(stmt_id)] = pts.copy()
        root = root_of_table(payload["ig"])
        self.ig = DecodedInvocationGraph(root, root.func)
        self.scopes: dict[str, dict] = payload["scopes"]
        self.globals: list[str] = payload["globals"]
        self.functions: list[str] = payload["functions"]
        self.externals: list[str] = payload["externals"]
        self.warnings: list[str] = list(payload["warnings"])
        stats = payload["stats"]
        slice_stats = stats["slice"]
        self.stats = MemoStats(
            hits=stats["hits"],
            misses=stats["misses"],
            evictions=stats["evictions"],
            recursion_truncations=stats["recursion_truncations"],
            truncated_functions=list(stats["truncated_functions"]),
            per_function={
                func: list(counters)
                for func, counters in stats["per_function"].items()
            },
            slice_hits=slice_stats["hits"],
            slice_lookups=slice_stats["lookups"],
            slice_key_pairs=slice_stats["key_pairs"],
            slice_passthrough_pairs=slice_stats["passthrough_pairs"],
        )
        #: Program-shape facts for the checker framework (the same
        #: statement ids as ``point_info``).
        self.checkfacts = CheckFacts.decode(payload["checkfacts"])
        #: Derivation log of the producing run (mirrors the live
        #: ``PointsToAnalysis.provenance`` attribute), or None when the
        #: payload was produced with provenance tracking off.
        self.provenance = (
            DecodedProvenance(payload["provenance"])
            if "provenance" in payload
            else None
        )
        #: The incremental skeleton (static deps / globals fingerprint),
        #: read by ``check --diff``.
        self.incremental: dict = payload["incremental"]
        self._readwrite: dict[str, list[ReadWriteSets]] | None = None

    # -- the PointsToAnalysis query surface ------------------------------

    def at_label(self, label: str) -> PointsToSet:
        func, stmt_id = self.labels[label]
        info = self.point_info.get(stmt_id)
        if info is None:
            return PointsToSet()
        return info

    def at_stmt(self, stmt_id: int) -> PointsToSet | None:
        return self.point_info.get(stmt_id)

    def function_of_stmt(self, stmt_id: int) -> str | None:
        return self._stmt_func.get(stmt_id)

    def triples_at(
        self, label: str, skip_null: bool = True, skip_temps: bool = True
    ):
        result = []
        for src, tgt, definiteness in self.at_label(label).triples():
            if skip_null and tgt.is_null:
                continue
            if skip_temps and _is_temp_name(src.base):
                continue
            result.append((str(src), str(tgt), str(definiteness)))
        return sorted(result)

    # -- payload-backed extensions ---------------------------------------

    def resolve(self, name: str, func: str | None) -> AbsLoc | None:
        """Resolve a variable name in ``func``'s scope, mirroring
        :meth:`repro.core.env.FuncEnv.var_loc`'s precedence."""
        scope = self.scopes.get(func) if func else None
        if scope is not None:
            if name in scope["params"]:
                return AbsLoc(name, LocKind.PARAM, func)
            if name in scope["locals"]:
                return AbsLoc(name, LocKind.LOCAL, func)
            if name in scope["symbolics"]:
                return AbsLoc(name, LocKind.SYMBOLIC, func)
        if name in self.globals:
            return AbsLoc(name, LocKind.GLOBAL)
        if name in self.functions or name in self.externals:
            return AbsLoc(name, LocKind.FUNCTION)
        return None

    def read_write(self, func: str) -> list[ReadWriteSets]:
        if self._readwrite is None:
            self._readwrite = {
                fn: [
                    ReadWriteSets(
                        stmt_id=stmt_id,
                        func=fn,
                        must_write={self._locs[i] for i in must},
                        may_write={self._locs[i] for i in may},
                        reads={self._locs[i] for i in reads},
                    )
                    for stmt_id, must, may, reads in entries
                ]
                for fn, entries in self.payload["readwrite"].items()
            }
        return self._readwrite.get(func, [])


def decode_analysis(payload: dict | bytes | str) -> DecodedAnalysis:
    """Rebuild a queryable result from an encoded payload.

    The cyclic garbage collector is paused meanwhile: the JSON parse
    and the point sets built from it are tens of thousands of new,
    acyclic containers, and collecting while they pile up only
    traverses them again and again.  In a process holding a large
    heap, those passes took more time than the decode itself."""
    with gc_paused():
        if isinstance(payload, (bytes, str)):
            payload = json.loads(payload)
        return DecodedAnalysis(payload)
