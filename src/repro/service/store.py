"""Content-addressed result store over a pluggable backend.

Results are keyed by ``sha256(source, AnalysisOptions, FORMAT_VERSION)``
— the *content* of the request, not the file path — so renaming a file
still hits, editing a file misses, and bumping the payload format
invalidates everything without any migration logic.

The store owns key computation, canonical encoding/decoding, dropping
corrupt payloads, and traffic counters; raw object IO goes through a
:class:`~repro.service.backends.StoreBackend` selected by URL
(``file:…`` or ``memory://`` — see :mod:`repro.service.backends`).
The default is the filesystem backend with the historical layout
(``<root>/objects/<k[:2]>/<k>.json``, atomic writes), byte- and
key-compatible with existing on-disk stores.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass
from pathlib import Path

from repro import obs
from repro.core import perf
from repro.core.analysis import AnalysisOptions, analyze_source
# ``SUMMARY_VERSION`` versions the per-function summary records (``fn-``
# keys) and skeleton records (``skel-`` keys).  It participates in both
# key derivations, so a schema change is a clean cache miss.
from repro.core.incremental import (
    SUMMARY_VERSION,
    SeedBank,
    bank_from_records,
    capture_records,
    function_fingerprints,
    globals_fingerprint,
    skeleton,
    static_deps,
)
from repro.core.slices import closure_members
from repro.service.backends import (
    FileBackend,
    StoreBackend,
    open_backend,
)
from repro.service.gcpause import gc_paused
from repro.service.serialize import (
    FORMAT_VERSION,
    DecodedAnalysis,
    canonical_json,
    decode_analysis,
    encode_analysis,
)


#: Environment variable overriding the default store location.  Holds
#: either a bare directory path (filesystem backend, historical
#: behavior) or any backend URL (``file:…``, ``memory://``); an
#: explicit ``--store`` / constructor argument always wins over the
#: environment.
STORE_ENV = "REPRO_PTA_STORE"


def default_store_url() -> str:
    """The backend URL the environment selects (path or URL forms)."""
    env = os.environ.get(STORE_ENV)
    if env:
        return env
    return str(Path.home() / ".cache" / "repro-pta")


@dataclass
class StoreStats:
    """Per-store-instance traffic counters."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    invalid: int = 0  # corrupt / version-skewed payloads dropped

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0

    def as_dict(self) -> dict:
        result = asdict(self)
        result["hit_rate"] = round(self.hit_rate, 4)
        return result


class ResultStore:
    """A content-addressed cache of encoded analysis results.

    ``location`` may be a directory path (filesystem backend), a
    backend URL string, an opened :class:`StoreBackend`, or ``None``
    for the environment/default location.
    """

    def __init__(
        self, location: str | Path | StoreBackend | None = None
    ) -> None:
        if location is None:
            location = default_store_url()
        if isinstance(location, (str, Path)):
            self.backend: StoreBackend = open_backend(location)
        else:
            self.backend = location
        self.stats = StoreStats()

    # -- backend passthroughs ----------------------------------------------

    @property
    def url(self) -> str:
        """URL that reopens this store (e.g. in a worker process)."""
        return self.backend.url

    @property
    def process_shared(self) -> bool:
        return self.backend.process_shared

    def path_for(self, key: str) -> Path:
        """On-disk object path, for file-backed stores only."""
        if isinstance(self.backend, FileBackend):
            return self.backend.path_for(key)
        raise AttributeError(
            f"store backend {self.url!r} keeps no per-object paths"
        )

    # -- keys -------------------------------------------------------------

    @staticmethod
    def key_for(source: str, options: AnalysisOptions | None = None) -> str:
        """The content address of one (source, options) request.

        When provenance tracking is on, the key carries a marker:
        provenance-enabled artifacts embed an extra payload section, so
        they must not satisfy (or be overwritten by) plain requests for
        the same source.  The marker is *omitted* — not ``False`` —
        when tracking is off, keeping every pre-provenance cache entry
        valid.
        """
        options = options or AnalysisOptions()
        request: dict = {
            "source": source,
            "options": asdict(options),
            "format_version": FORMAT_VERSION,
        }
        if perf.CONFIG.track_provenance:
            request["provenance"] = True
        return hashlib.sha256(
            json.dumps(
                request, sort_keys=True, separators=(",", ":")
            ).encode()
        ).hexdigest()

    @staticmethod
    def summary_key(
        function: str,
        members: dict[str, str],
        globals_fp: str,
        options: AnalysisOptions | None = None,
    ) -> str:
        """Content address of one per-function summary record.

        Keyed on the function's transitive closure *fingerprints* (not
        the source text), so any program whose closure bodies match —
        including a differently-edited file — hits the same record; the
        lookup itself proves the seed valid."""
        options = options or AnalysisOptions()
        body = {
            "summary_version": SUMMARY_VERSION,
            "function": function,
            "members": dict(sorted(members.items())),
            "globals": globals_fp,
            "options": asdict(options),
        }
        return "fn-" + hashlib.sha256(canonical_json(body)).hexdigest()

    @staticmethod
    def skeleton_key(
        source: str, options: AnalysisOptions | None = None
    ) -> str:
        """Key of the skeleton record for one (source, options)
        request — the root set that keeps its summaries alive."""
        return "skel-" + ResultStore.key_for(source, options)

    @staticmethod
    def baseline_key(
        source: str,
        options: AnalysisOptions | None = None,
        checkers=None,
        unused_suppressions: bool = True,
    ) -> str:
        """Key of the finding-baseline record for one check request
        (:mod:`repro.checkers.diff`).  Keyed beside the artifact —
        same source/options/format inputs — plus the check
        configuration, since the recorded findings depend on which
        checkers ran and whether unused-suppression notes were on."""
        from repro.checkers.diff import BASELINE_VERSION

        options = options or AnalysisOptions()
        body = {
            "baseline_version": BASELINE_VERSION,
            "source": source,
            "options": asdict(options),
            "checkers": sorted(checkers) if checkers is not None else None,
            "unused_suppressions": bool(unused_suppressions),
            "format_version": FORMAT_VERSION,
        }
        return "base-" + hashlib.sha256(canonical_json(body)).hexdigest()

    # -- raw object access -------------------------------------------------

    def has(self, key: str) -> bool:
        return self.backend.has(key)

    def get(self, key: str) -> DecodedAnalysis | None:
        """The decoded payload under ``key``, or None on miss."""
        raw = self.backend.get(key)
        if raw is None:
            self.stats.misses += 1
            obs.count("store.misses")
            return None
        with obs.timed("store.decode"):
            try:
                decoded = decode_analysis(raw)
            except (ValueError, KeyError, TypeError, IndexError):
                # Corrupt or stale-format payload: drop it, report a miss.
                self.stats.invalid += 1
                self.stats.misses += 1
                obs.count("store.invalid")
                obs.count("store.misses")
                self.backend.delete(key)
                return None
        self.stats.hits += 1
        obs.count("store.hits")
        return decoded

    def put(self, key: str, payload: dict) -> None:
        """Atomically write ``payload`` under ``key``."""
        data = canonical_json(payload)
        self.backend.put(key, data)
        self.stats.puts += 1
        if obs.active():
            obs.count("store.puts")
            obs.count("store.put_bytes", len(data))

    def get_record(self, key: str) -> dict | None:
        """A raw JSON record (summary / skeleton key spaces) or None;
        undecodable records are dropped like corrupt payloads."""
        raw = self.backend.get(key)
        if raw is None:
            return None
        try:
            record = json.loads(raw)
        except ValueError:
            self.stats.invalid += 1
            obs.count("store.invalid")
            self.backend.delete(key)
            return None
        if not isinstance(record, dict):
            self.stats.invalid += 1
            obs.count("store.invalid")
            self.backend.delete(key)
            return None
        return record

    # -- per-function summary records --------------------------------------
    #
    # No request path writes or reads these records: the update ladder
    # is splice or cold, and the splice seeds its mini run from the
    # live capture.  The layer stays for the backend conformance tests
    # and because perfbench's layer map binds two of its methods by
    # name (docs/INCREMENTAL.md, "Per-function summaries in the store").

    def put_function_summaries(
        self,
        analysis,
        source: str,
        options: AnalysisOptions | None = None,
    ) -> dict[str, str]:
        """Split a live analysis into per-function summary records plus
        one skeleton record, and store them all.

        Returns ``{function: summary_key}`` for the records written.
        The skeleton record lists its summary keys, forming the root
        set :meth:`gc_summaries` traces."""
        options = options or analysis.options
        records = capture_records(analysis, options)
        summary_keys: dict[str, str] = {}
        for func, record in records.items():
            key = self.summary_key(
                func, record["members"], record["globals"], options
            )
            self.put(key, record)
            summary_keys[func] = key
        self.put(
            self.skeleton_key(source, options),
            {
                "summary_version": SUMMARY_VERSION,
                "skeleton": skeleton(analysis.program),
                "summaries": sorted(summary_keys.values()),
            },
        )
        obs.count("store.summary_puts", len(summary_keys))
        return summary_keys

    def load_summary_bank(self, program, options=None) -> SeedBank:
        """Revive every stored summary valid for ``program`` into a
        seed bank, by content-addressed lookup from the *new* program's
        closure fingerprints (a hit is proof of validity).  Records
        whose body contradicts their address — a partial write or a
        producer bug — are dropped, never revived."""
        options = options or AnalysisOptions()
        fps = function_fingerprints(program)
        deps = static_deps(program)
        gfp = globals_fingerprint(program)
        records: dict[str, dict] = {}
        for func in program.functions:
            members = {
                member: fps[member]
                for member in sorted(closure_members(deps, func))
            }
            key = self.summary_key(func, members, gfp, options)
            record = self.get_record(key)
            if record is None:
                continue
            if (
                record.get("summary_version") != SUMMARY_VERSION
                or record.get("function") != func
                or record.get("members") != members
                or record.get("globals") != gfp
            ):
                # Stale summary: the record's own skeleton claim no
                # longer matches the address it sits under.
                self.backend.delete(key)
                self.stats.invalid += 1
                obs.count("store.stale_summaries")
                continue
            records[func] = record
        return bank_from_records(records, program)

    def gc_summaries(self) -> dict:
        """Delete orphaned summary records: ``fn-`` objects referenced
        by no ``skel-`` record (their producing artifacts were evicted
        or their sources edited away)."""
        live: set[str] = set()
        for key in self.backend.keys("skel-"):
            record = self.get_record(key)
            if record is not None:
                live.update(record.get("summaries", ()))
        removed = 0
        for key in self.backend.keys("fn-"):
            if key not in live and self.backend.delete(key):
                removed += 1
        return {"removed": removed, "live": len(live)}

    # -- maintenance -------------------------------------------------------

    def keys(self, prefix: str = "") -> list[str]:
        return self.backend.keys(prefix)

    def clear(self) -> int:
        """Delete every stored object; returns the number removed."""
        return self.backend.clear()

    def gc(self, max_bytes: int) -> dict:
        """Evict oldest objects until total size fits ``max_bytes``.

        Returns ``{"removed", "freed_bytes", "kept", "kept_bytes"}``.
        """
        entries = sorted(self.backend.entries(), key=lambda e: e[2])
        total = sum(size for _, size, _ in entries)
        removed = freed = 0
        for key, size, _ in entries:
            if total <= max_bytes:
                break
            if self.backend.delete(key):
                total -= size
                removed += 1
                freed += size
        kept = self.backend.entries()
        return {
            "removed": removed,
            "freed_bytes": freed,
            "kept": len(kept),
            "kept_bytes": sum(size for _, size, _ in kept),
        }

    def backend_stats(self) -> dict:
        return self.backend.stats()

    # -- the analyze-or-hit entry point -----------------------------------

    def load_or_analyze(
        self,
        source: str,
        options: AnalysisOptions | None = None,
        name: str = "<source>",
        refresh: bool = False,
    ):
        """Return ``(analysis_like, hit)`` for a source text.

        On a hit the cached :class:`DecodedAnalysis` is returned and no
        parsing or analysis happens at all.  On a miss the source is
        analyzed, encoded, stored, and the *live*
        :class:`~repro.core.analysis.PointsToAnalysis` is returned
        (queries accept either form).  ``refresh=True`` forces a miss.
        """
        options = options or AnalysisOptions()
        key = self.key_for(source, options)
        if not refresh:
            cached = self.get(key)
            if cached is not None:
                return cached, True
        else:
            self.stats.misses += 1
            obs.count("store.misses")
        # A cold analysis is one tree of new objects that all stay
        # alive until the request ends; collecting meanwhile could
        # free none of them (see repro.service.gcpause).
        with gc_paused():
            analysis = analyze_source(source, options, filename=name)
            with obs.timed("store.encode"):
                payload = encode_analysis(analysis, name=name, source=source)
            self.put(key, payload)
        return analysis, False
