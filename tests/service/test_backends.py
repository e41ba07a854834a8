"""Backend conformance suite: one test class, every backend.

Each backend (file, memory, sqlite — plus the tiered memory-over-file
composition) must satisfy the same :class:`StoreBackend` contract:
byte-identical put/get round trips, correct key listing and deletion
(including prefix scans), atomicity under concurrent writers, and
(through :class:`ResultStore`) corrupt-object dropping.  The
per-function summary key scheme (``fn-``/``skel-`` objects; no request
path writes them) is conformance-tested over every backend too:
partial writes are dropped, stale summaries are evicted on address
mismatch, and orphaned summaries are garbage-collected.  LRU eviction
bounds are the memory backend's own obligation and are tested
separately.
"""

from __future__ import annotations

import json
import multiprocessing
import threading

import pytest

from repro.core.analysis import analyze_source
from repro.simple import simplify_source
from repro.service.backends import (
    BackendError,
    FileBackend,
    MemoryBackend,
    SqliteBackend,
    TieredBackend,
    open_backend,
)
from repro.service.serialize import encode_analysis
from repro.service.store import ResultStore

SOURCE = "int g; int main() { int *p; p = &g; L: return 0; }\n"

KEY_A = "aa" + "0" * 62
KEY_B = "bb" + "1" * 62

BACKENDS = ["file", "memory", "sqlite", "memory+file"]


def make_backend(kind: str, tmp_path):
    if kind == "file":
        return FileBackend(tmp_path / "file-store")
    if kind == "memory":
        return MemoryBackend()
    if kind == "sqlite":
        return SqliteBackend(tmp_path / "store.db")
    if kind == "memory+file":
        return TieredBackend(
            MemoryBackend(), FileBackend(tmp_path / "tier-store")
        )
    raise AssertionError(kind)


@pytest.fixture(params=BACKENDS)
def backend(request, tmp_path):
    instance = make_backend(request.param, tmp_path)
    yield instance
    instance.close()


def _hammer_shared(url: str, key: str, payloads: list[bytes]) -> None:
    """Concurrent-writer body for process-shared backends."""
    backend = open_backend(url)
    try:
        for payload in payloads:
            backend.put(key, payload)
    finally:
        backend.close()


class TestConformance:
    def test_roundtrip_byte_identity(self, backend):
        data = json.dumps({"x": list(range(100))}).encode()
        backend.put(KEY_A, data)
        assert backend.get(KEY_A) == data
        assert backend.has(KEY_A)
        assert not backend.has(KEY_B)
        assert backend.get(KEY_B) is None

    def test_overwrite_replaces(self, backend):
        backend.put(KEY_A, b"first")
        backend.put(KEY_A, b"second, longer payload")
        assert backend.get(KEY_A) == b"second, longer payload"
        assert backend.keys() == [KEY_A]

    def test_keys_delete_clear(self, backend):
        backend.put(KEY_A, b"a")
        backend.put(KEY_B, b"b")
        assert backend.keys() == sorted([KEY_A, KEY_B])
        assert backend.delete(KEY_A)
        assert not backend.delete(KEY_A)  # already gone
        assert backend.keys() == [KEY_B]
        assert backend.clear() == 1
        assert backend.keys() == []

    def test_entries_and_stats(self, backend):
        backend.put(KEY_A, b"x" * 10)
        backend.put(KEY_B, b"y" * 30)
        entries = {key: size for key, size, _ in backend.entries()}
        assert entries == {KEY_A: 10, KEY_B: 30}
        stats = backend.stats()
        assert stats["objects"] == 2
        assert stats["bytes"] == 40
        assert stats["url"] == backend.url

    def test_url_reopens_equivalent_backend(self, backend):
        backend.put(KEY_A, b"payload")
        backend.flush()
        reopened = open_backend(backend.url)
        try:
            if backend.process_shared:
                # Same object space through a second handle.
                assert reopened.get(KEY_A) == b"payload"
            else:
                # A per-process backend reopens empty but equivalent.
                assert type(reopened) is type(backend)
                assert reopened.get(KEY_A) is None
        finally:
            reopened.close()

    def test_corrupt_object_dropped_by_store(self, backend):
        store = ResultStore(backend)
        key = store.key_for(SOURCE)
        backend.put(key, b"{definitely not a payload")
        assert store.get(key) is None
        assert store.stats.invalid == 1
        assert not backend.has(key), "corrupt object must be dropped"

    def test_store_roundtrip_through_backend(self, backend):
        store = ResultStore(backend)
        analysis = analyze_source(SOURCE)
        key = store.key_for(SOURCE)
        store.put(key, encode_analysis(analysis, source=SOURCE))
        decoded = store.get(key)
        assert decoded is not None
        assert decoded.triples_at("L") == analysis.triples_at("L")

    def test_concurrent_writers_atomic(self, backend, tmp_path):
        """Racing writers never produce a torn object: the final value
        is exactly one of the written payloads."""
        payloads = [
            json.dumps({"writer": i, "pad": "p" * 256}).encode()
            for i in range(4)
        ]
        if backend.process_shared:
            procs = [
                multiprocessing.Process(
                    target=_hammer_shared,
                    args=(backend.url, KEY_A, payloads * 5),
                )
                for _ in range(4)
            ]
            for proc in procs:
                proc.start()
            for proc in procs:
                proc.join(60)
                assert proc.exitcode == 0
        else:
            threads = [
                threading.Thread(
                    target=lambda: [
                        backend.put(KEY_A, p) for p in payloads * 20
                    ]
                )
                for _ in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        final = backend.get(KEY_A)
        assert final in payloads, "torn or corrupt object after race"


class TestKeysPrefix:
    def test_prefix_scan(self, backend):
        backend.put(KEY_A, b"a")
        backend.put(KEY_B, b"b")
        assert backend.keys("aa") == [KEY_A]
        assert backend.keys("bb") == [KEY_B]
        assert backend.keys("") == sorted([KEY_A, KEY_B])
        assert backend.keys("cc") == []

    def test_prefix_is_literal_not_glob(self, backend):
        backend.put(KEY_A, b"a")
        assert backend.keys("a?") == []
        assert backend.keys(KEY_A) == [KEY_A]


#: Calls with reusable summaries, so a live run captures slice
#: entries and ``put_function_summaries`` has something to write.
SUMMARY_SOURCE = """
int g; int h;
int *p;
void set(void) { p = &g; }
void flip(void) { p = &h; }
int main(void) { set(); flip(); L: return 0; }
"""


class TestFunctionSummaries:
    """The per-function summary key scheme, over every backend."""

    def _seed(self, backend):
        store = ResultStore(backend)
        analysis = analyze_source(SUMMARY_SOURCE)
        keys = store.put_function_summaries(analysis, SUMMARY_SOURCE)
        return store, keys

    def test_put_writes_content_addressed_keys(self, backend):
        store, keys = self._seed(backend)
        assert keys, "no function summaries captured"
        assert all(key.startswith("fn-") for key in keys.values())
        assert sorted(store.keys("fn-")) == sorted(keys.values())
        skeletons = store.keys("skel-")
        assert len(skeletons) == 1
        skeleton = store.get_record(skeletons[0])
        assert sorted(skeleton["summaries"]) == sorted(keys.values())

    def test_bank_revives_from_records(self, backend):
        store, keys = self._seed(backend)
        bank = store.load_summary_bank(simplify_source(SUMMARY_SOURCE))
        assert bank, "revived bank is empty"
        assert set(bank.functions) <= set(keys)

    def test_partial_write_dropped(self, backend):
        """A torn/truncated summary object is dropped on read, never
        surfaced as a record."""
        store, keys = self._seed(backend)
        victim = sorted(keys.values())[0]
        backend.put(victim, b'{"summary_version": 2, "trunc')
        invalid_before = store.stats.invalid
        assert store.get_record(victim) is None
        assert store.stats.invalid == invalid_before + 1
        assert not backend.has(victim), "torn summary must be dropped"

    def test_stale_summary_dropped_on_mismatch(self, backend):
        """A record whose body disagrees with its content address
        (e.g. left behind by an interrupted writer) is evicted when
        the bank loads."""
        store, keys = self._seed(backend)
        victim = sorted(keys.values())[0]
        record = store.get_record(victim)
        record["globals"] = "tampered"
        backend.put(victim, json.dumps(record).encode())
        invalid_before = store.stats.invalid
        bank = store.load_summary_bank(simplify_source(SUMMARY_SOURCE))
        assert store.stats.invalid == invalid_before + 1
        assert not backend.has(victim), "stale summary must be dropped"
        # The other functions' summaries still seed.
        surviving = {
            func for func, key in keys.items() if key != victim
        }
        assert set(bank.functions) <= surviving

    def test_gc_removes_orphans_keeps_live(self, backend):
        store, keys = self._seed(backend)
        orphan = "fn-" + "0" * 64
        backend.put(orphan, json.dumps({"summary_version": 2}).encode())
        report = store.gc_summaries()
        assert report["removed"] == 1
        assert report["live"] == len(keys)
        assert not backend.has(orphan)
        for key in keys.values():
            assert backend.has(key), "live summary must survive gc"

    def test_gc_without_skeletons_drops_everything(self, backend):
        store, keys = self._seed(backend)
        for skel in store.keys("skel-"):
            backend.delete(skel)
        report = store.gc_summaries()
        assert report["live"] == 0
        assert report["removed"] == len(keys)
        assert store.keys("fn-") == []


#: A program with one definite null dereference, and a one-function
#: edit that adds a second one — enough to exercise the differential
#: checker's baseline records end to end.
DIFF_OLD = """
int g;
void set_null(int **pp) { *pp = 0; }
int main() {
    int *p;
    p = &g;
    set_null(&p);
    L: *p = 1;
    return 0;
}
"""

DIFF_NEW = DIFF_OLD.replace(
    "    L: *p = 1;",
    "    L: *p = 1;\n    int *q;\n    q = 0;\n    *q = 2;",
)


class TestFindingBaselines:
    """The ``base-`` finding-baseline key scheme (repro.checkers.diff),
    over every backend: records persist beside the artifact, re-checks
    resolve them from the store, and classification round-trips."""

    def test_diff_persists_base_records(self, backend):
        from repro.checkers import check_diff

        store = ResultStore(backend)
        report = check_diff(DIFF_NEW, old_source=DIFF_OLD, store=store)
        base_keys = store.keys("base-")
        assert store.baseline_key(DIFF_OLD) in base_keys
        assert store.baseline_key(DIFF_NEW) in base_keys
        assert report.new_baseline_key == store.baseline_key(DIFF_NEW)
        record = store.get_record(report.new_baseline_key)
        assert record is not None and "reported" in record

    def test_recheck_hits_stored_baseline(self, backend):
        from repro import obs
        from repro.checkers import check_diff

        store = ResultStore(backend)
        check_diff(DIFF_NEW, old_source=DIFF_OLD, store=store)
        tracer = obs.Tracer()
        with obs.tracing(tracer):
            report = check_diff(
                DIFF_NEW, old_source=DIFF_OLD, store=store
            )
        counters = tracer.snapshot()["counters"]
        assert counters.get("diffcheck.baseline_hits") == 1
        assert [
            f.checker for f, s in zip(report.findings, report.statuses)
            if s == "new"
        ] == ["null-deref"]

    def test_classification_round_trips(self, backend):
        from repro.checkers import check_diff

        store = ResultStore(backend)
        first = check_diff(DIFF_NEW, old_source=DIFF_OLD, store=store)
        assert sorted(first.statuses).count("new") == 1
        # Diffing the new text against itself: everything unchanged,
        # resolved purely from the persisted records.
        second = check_diff(DIFF_NEW, old_source=DIFF_NEW, store=store)
        assert set(second.statuses) == {"unchanged"}
        assert second.absent == []


class TestMemoryEviction:
    def test_max_objects_bound(self):
        backend = MemoryBackend(max_objects=2)
        for i in range(5):
            backend.put(f"{i:02d}" + "0" * 62, b"x")
        assert len(backend.keys()) == 2
        assert backend.evictions == 3

    def test_max_bytes_bound_evicts_lru(self):
        backend = MemoryBackend(max_bytes=100)
        backend.put(KEY_A, b"a" * 60)
        backend.put(KEY_B, b"b" * 60)  # exceeds 100 -> KEY_A evicted
        assert backend.keys() == [KEY_B]
        assert backend.stats()["bytes"] == 60

    def test_get_refreshes_recency(self):
        backend = MemoryBackend(max_objects=2)
        backend.put(KEY_A, b"a")
        backend.put(KEY_B, b"b")
        backend.get(KEY_A)  # A is now most recent
        backend.put("cc" + "2" * 62, b"c")
        assert KEY_A in backend.keys() and KEY_B not in backend.keys()

    def test_oversized_object_refused(self):
        backend = MemoryBackend(max_bytes=10)
        backend.put(KEY_A, b"tiny")
        backend.put(KEY_B, b"x" * 1000)
        assert backend.keys() == [KEY_A]


class TestTiered:
    def test_read_through_populates_front(self, tmp_path):
        back = FileBackend(tmp_path / "back")
        back.put(KEY_A, b"durable")
        tiered = TieredBackend(MemoryBackend(), back)
        assert tiered.get(KEY_A) == b"durable"
        assert tiered.front.get(KEY_A) == b"durable"

    def test_write_through_lands_in_both(self, tmp_path):
        tiered = TieredBackend(MemoryBackend(), FileBackend(tmp_path / "b"))
        tiered.put(KEY_A, b"data")
        assert tiered.front.get(KEY_A) == b"data"
        assert tiered.back.get(KEY_A) == b"data"

    def test_front_eviction_never_loses_data(self, tmp_path):
        tiered = TieredBackend(
            MemoryBackend(max_objects=1), FileBackend(tmp_path / "b")
        )
        tiered.put(KEY_A, b"a")
        tiered.put(KEY_B, b"b")  # evicts KEY_A from the front
        assert tiered.get(KEY_A) == b"a"  # read-through refills


class TestUrls:
    def test_bare_path_is_file(self, tmp_path):
        backend = open_backend(str(tmp_path / "plain"))
        assert isinstance(backend, FileBackend)
        assert backend.root == tmp_path / "plain"

    def test_file_scheme(self, tmp_path):
        backend = open_backend(f"file:{tmp_path}/s")
        assert isinstance(backend, FileBackend)
        assert backend.root == tmp_path / "s"

    def test_memory_with_bounds(self):
        backend = open_backend("memory://?max_bytes=1024&max_objects=3")
        assert isinstance(backend, MemoryBackend)
        assert backend.max_bytes == 1024 and backend.max_objects == 3

    def test_sqlite_scheme(self, tmp_path):
        backend = open_backend(f"sqlite:{tmp_path}/db.sqlite")
        assert isinstance(backend, SqliteBackend)

    def test_tiered_scheme(self, tmp_path):
        backend = open_backend(f"memory+file:{tmp_path}/t?max_objects=8")
        assert isinstance(backend, TieredBackend)
        assert isinstance(backend.front, MemoryBackend)
        assert backend.front.max_objects == 8
        assert isinstance(backend.back, FileBackend)

    @pytest.mark.parametrize(
        "bad",
        [
            "memory://?max_bytes=lots",
            "memory://some/path",
            "memory://?bogus=1",
            "file:",
            "sqlite:",
            "sqlite+memory:/x",
            "memory+bogus:/x",
            "file:/x?max_bytes=1",
        ],
    )
    def test_bad_urls_rejected(self, bad):
        with pytest.raises(BackendError):
            open_backend(bad)


class TestFileCompatibility:
    """The file backend must stay byte- and key-compatible with the
    pre-backend on-disk stores."""

    def test_layout_unchanged(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        analysis = analyze_source(SOURCE)
        key = store.key_for(SOURCE)
        store.put(key, encode_analysis(analysis, source=SOURCE))
        expected = tmp_path / "store" / "objects" / key[:2] / f"{key}.json"
        assert expected.exists()
        assert store.path_for(key) == expected

    def test_preexisting_objects_still_hit(self, tmp_path):
        # Write with one handle, read with a fresh one rooted at the
        # same directory (simulates a store produced by an old build).
        first = ResultStore(tmp_path / "store")
        first.load_or_analyze(SOURCE)
        second = ResultStore(f"file:{tmp_path}/store")
        result, hit = second.load_or_analyze(SOURCE)
        assert hit
