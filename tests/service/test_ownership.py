"""Ownership of the analysis object graph, and the collector pause.

An analysis is a tree with weak back-edges (DESIGN.md, "Ownership"):
when its last user drops it, reference counting frees all of it, and
the cyclic garbage collector finds nothing of it to do.  The cold path
relies on that: :func:`repro.service.gcpause.gc_paused` keeps the
collector off while a cold request builds, encodes and stores its
analysis.

The ownership checks run the golden corpus through a cold request, a
warm decode and a session eviction with ``gc.DEBUG_SAVEALL`` set, so
every object the collector would free stays in ``gc.garbage`` for
inspection.  Only C's own recursive struct types (a struct whose field
points back to it) may be there.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.benchsuite import PERF_BENCHMARKS
from repro.core import locations
from repro.core.analysis import analyze_source
from repro.core.invocation_graph import IGNode, IGNodeKind, IGShape
from repro.frontend import ctypes
from repro.service.commands import SessionCache, handle_request
from repro.service.gcpause import gc_paused
from repro.service.serialize import decode_analysis, encode_analysis_bytes
from repro.service.store import ResultStore

from tests.interp.test_golden_digests import corpus

#: A recursive program: its invocation graph holds an approximate node
#: whose back-edge names its recursive ancestor.
RECURSIVE = """
int g;
int *walk(int *p, int n) { if (n) { return walk(p, n - 1); } return p; }
int main() { int *q; q = walk(&g, 3); L: return 0; }
"""


@pytest.fixture()
def saved_garbage():
    """Run the test with ``gc.DEBUG_SAVEALL`` on, starting from a clean
    slate; yields a function that collects and returns the garbage."""
    was_enabled = gc.isenabled()
    gc.collect()
    flags = gc.get_debug()
    gc.set_debug(flags | gc.DEBUG_SAVEALL)

    def collect() -> list:
        gc.collect()
        return list(gc.garbage)

    try:
        yield collect
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        gc.collect()
        if was_enabled:
            gc.enable()


def _foreign(garbage: list) -> list:
    """The garbage objects that are neither C type objects nor reachable
    from one through garbage (the fields list of a recursive struct)."""
    in_garbage = {id(obj) for obj in garbage}
    types = [obj for obj in garbage if type(obj).__module__ == ctypes.__name__]
    reachable = {id(obj) for obj in types}
    stack = list(types)
    while stack:
        for child in gc.get_referents(stack.pop()):
            if id(child) in in_garbage and id(child) not in reachable:
                reachable.add(id(child))
                stack.append(child)
    return [obj for obj in garbage if id(obj) not in reachable]


def test_cold_warm_and_evicted_requests_leave_no_cyclic_garbage(
    saved_garbage, tmp_path
):
    programs = corpus()
    store = ResultStore(tmp_path / "store")
    # Capacity one: every request evicts the previous session.
    sessions = SessionCache(1)
    for source in programs.values():
        response = handle_request(
            {"source": source, "query": "labels"}, store, sessions
        )
        assert response["ok"] and not response["cached"]
    sessions = SessionCache(1)
    for source in programs.values():
        response = handle_request(
            {"source": source, "query": "labels"}, store, sessions
        )
        assert response["ok"] and response["cached"]
    assert sessions.evictions == len(programs) - 1
    del store, sessions, response

    foreign = _foreign(saved_garbage())
    names = sorted({type(obj).__qualname__ for obj in foreign})
    assert foreign == [], f"cyclic garbage outside C struct types: {names}"


def test_a_dropped_analysis_is_freed_without_the_collector():
    with gc_paused():
        analysis = analyze_source(RECURSIVE)
        ig_root = weakref.ref(analysis.ig.root)
        approximate = [
            node
            for node in analysis.ig.nodes()
            if node.rec_partner is not None
        ]
        assert approximate and approximate[0].rec_partner.func == "walk"
        partner = weakref.ref(approximate[0])
        env = weakref.ref(analysis.env("walk"))
        result = weakref.ref(analysis)
        del analysis, approximate
        assert ig_root() is None
        assert partner() is None
        assert env() is None
        assert result() is None


def _live(cls) -> int:
    return sum(1 for obj in gc.get_objects() if type(obj) is cls)


def test_invocation_shapes_are_acyclic():
    """A shape refers only to its call sites' callee shapes: nothing
    reachable from one leads back to it, or to a node or a graph."""
    for source in (RECURSIVE, PERF_BENCHMARKS["relay"].source):
        for graph in (
            analyze_source(source).ig,
            decode_analysis(encode_analysis_bytes(analyze_source(source))).ig,
        ):
            root = graph.root._shape
            assert root is not None
            state: dict[int, str] = {}
            stack = [(root, False)]
            while stack:
                obj, leaving = stack.pop()
                if leaving:
                    state[id(obj)] = "done"
                    continue
                if state.get(id(obj)) == "done":
                    continue
                assert state.get(id(obj)) != "open", "a shape cycle"
                assert obj is None or isinstance(obj, (IGShape, tuple, str, int))
                state[id(obj)] = "open"
                stack.append((obj, True))
                stack.extend(
                    (child, False)
                    for child in gc.get_referents(obj)
                    if not isinstance(child, (type, IGNodeKind))
                )


def test_a_dropped_lazy_graph_dies_without_the_collector():
    with gc_paused():
        before = _live(IGShape), _live(IGNode)
        analysis = analyze_source(PERF_BENCHMARKS["relay"].source)
        decoded = decode_analysis(encode_analysis_bytes(analysis))
        # Contexts the analysis never entered, made on both graphs.
        for graph in (analysis.ig, decoded.ig):
            graph.nodes()
        assert _live(IGShape) > before[0] and _live(IGNode) > before[1]
        del analysis, decoded, graph
        assert (_live(IGShape), _live(IGNode)) == before


def test_decoding_leaves_the_fallback_table_alone():
    """Each decoded artifact binds its sets to a table of its own, so
    decoding and dropping results never grows the process-wide table
    that sets made outside a run share."""
    artifacts = [
        encode_analysis_bytes(analyze_source(source))
        for source in corpus().values()
    ]
    before = len(locations._FALLBACK_TABLE)
    for _ in range(3):
        decoded = [decode_analysis(artifact) for artifact in artifacts]
        del decoded
    assert len(locations._FALLBACK_TABLE) == before


def test_back_edges_do_not_outlive_the_tree():
    analysis = analyze_source(RECURSIVE)
    node = next(n for n in analysis.ig.nodes() if n.rec_partner is not None)
    assert node.parent is not None and node.path()[0] == "main"
    del analysis
    gc.collect()
    assert node.parent is None and node.rec_partner is None
    assert node.path() == [node.func]


class TestGcPaused:
    def test_pauses_and_restores(self):
        assert gc.isenabled()
        with gc_paused():
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_restores_on_exception(self):
        with pytest.raises(ValueError):
            with gc_paused():
                raise ValueError("boom")
        assert gc.isenabled()

    def test_nests(self):
        with gc_paused():
            with gc_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_leaves_a_disabled_collector_alone(self):
        gc.disable()
        try:
            with gc_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_never_collects(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("the pause must not collect")

        monkeypatch.setattr(gc, "collect", forbidden)
        with gc_paused():
            pass
        assert gc.isenabled()

    def test_a_daemon_worker_starts_with_the_collector_on(self, tmp_path):
        # A worker forked while a pause was open inherits a collector
        # that no end of that pause will switch back on.
        import queue

        from repro import obs
        from repro.daemon.worker import worker_main

        jobs, results = queue.Queue(), queue.Queue()
        jobs.put(None)
        previous = obs.get_tracer()
        gc.disable()
        try:
            worker_main(0, str(tmp_path / "store"), 1, jobs, results, False)
            assert gc.isenabled()
        finally:
            gc.enable()
            obs.set_tracer(previous)
        assert results.get_nowait() == (0, None, None, None)

    def test_covers_the_cold_miss_path(self, tmp_path, monkeypatch):
        from repro.service import store as store_module

        seen = []
        real_encode = store_module.encode_analysis

        def encode(*args, **kwargs):
            seen.append(gc.isenabled())
            return real_encode(*args, **kwargs)

        monkeypatch.setattr(store_module, "encode_analysis", encode)
        store = ResultStore(tmp_path / "store")
        _, hit = store.load_or_analyze(RECURSIVE)
        assert not hit and seen == [False]
        assert gc.isenabled()
