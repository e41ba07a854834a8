"""Per-layer attribution for the traced run.

The benchmark records spans from its own code: for a traced request
it swaps each layer's public function (``frontend.parser.parse``,
``simple.simplify.simplify_program``, ``core.analysis.analyze``, the
serializer, the store, query evaluation, the incremental updater and
the checkers) for a wrapper that times the call, everywhere that
function is bound, and swaps the originals back afterwards.  The
request then runs its real path; spans nest, are kept in memory, and
each layer's self time is its span's duration minus its child spans.

Counts come from the wrapped calls' results (``collect_perf``-style
statistics of each analysis, the diff reports), the ``repro.obs``
counters of a metrics tracer installed for the request, and response
fields.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

from repro import obs

#: (layer, module, attribute path) of every wrapped function.  A
#: dotted attribute path wraps a method on its class.
BINDINGS = (
    ("frontend.parse", "repro.frontend.parser", "parse"),
    ("simple.simplify", "repro.simple.simplify", "simplify_program"),
    ("core.analyze", "repro.core.analysis", "analyze"),
    ("serialize.encode", "repro.service.serialize", "encode_analysis"),
    ("serialize.encode", "repro.service.serialize", "canonical_json"),
    ("serialize.decode", "repro.service.serialize", "decode_analysis"),
    ("store.key", "repro.service.store", "ResultStore.key_for"),
    ("store.put", "repro.service.store", "ResultStore.put"),
    ("store.put", "repro.service.store", "ResultStore.put_function_summaries"),
    ("store.get", "repro.service.store", "ResultStore.get"),
    ("store.get", "repro.service.store", "ResultStore.get_record"),
    ("store.get", "repro.service.store", "ResultStore.load_summary_bank"),
    ("queries.eval", "repro.service.queries", "QuerySession.evaluate"),
    ("incremental.update", "repro.core.incremental", "update_analysis"),
    ("checkers.check", "repro.checkers.runner", "run_checkers"),
    ("checkers.check", "repro.checkers.diff", "build_baseline"),
    ("checkers.diff", "repro.checkers.diff", "check_diff"),
)

class SpanRecorder:
    """In-memory spans of the traced requests.

    A span is ``(request, span_id, parent_id, layer, start, end,
    detail)``; the benchmark opens one root span per request
    (:meth:`traced_call`) and the wrappers open layer spans inside it.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.results: list[tuple[str, tuple, object]] = []
        self._stack: list[int] = []
        self._next = 0
        self._request = None
        self._swaps = _swaps(self)

    # -- recording ---------------------------------------------------------

    def _open(self) -> tuple[int, int | None]:
        self._next += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(self._next)
        return self._next, parent

    def _close(self, span_id, parent, layer, start, detail=None) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self.spans.append((self._request, span_id, parent, layer, start, end, detail))

    def wrap(self, layer: str, fn):
        recorder = self
        query_kind = layer == "queries.eval"

        def traced(*args, **kwargs):
            span_id, parent = recorder._open()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                detail = None
                if query_kind:
                    text = args[1] if len(args) > 1 else kwargs.get("text")
                    detail = getattr(text, "kind", None) or str(text).partition(":")[0].strip()
                recorder._close(span_id, parent, layer, start, detail)
            recorder.results.append((fn.__name__, args, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def traced_call(self, request_id, call, *args):
        """Run ``call(*args)`` as one traced request: layer functions
        wrapped, a metrics tracer collecting counters, a root span
        around it all.  Returns ``(call's result, counters)``."""
        self._request = request_id
        self.results = []
        tracer = obs.MetricsTracer()
        for target, name, _, wrapper in self._swaps:
            setattr(target, name, wrapper)
        span_id, parent = self._open()
        start = time.perf_counter()
        try:
            with obs.tracing(tracer):
                result = call(*args)
        finally:
            self._close(span_id, parent, "request", start)
            for target, name, original, _ in self._swaps:
                setattr(target, name, original)
        return result, tracer.snapshot()["counters"]

    # -- attribution -------------------------------------------------------

    def per_request(self) -> dict:
        """``{request: {layer: self seconds}}``; layer ``"request"`` is
        the part of the root span no layer covers, and
        ``"queries.eval.<kind>"`` splits query evaluation by kind."""
        child_time: dict[int, float] = defaultdict(float)
        for _, span_id, parent, _, start, end, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict = defaultdict(lambda: defaultdict(float))
        for request, span_id, _, layer, start, end, detail in self.spans:
            own = (end - start) - child_time[span_id]
            out[request][layer] += own
            if layer == "queries.eval":
                out[request][f"queries.eval.{detail}"] += own
        return out

    def root_time(self, request) -> float:
        for span_request, _, parent, _, start, end, _ in self.spans:
            if span_request == request and parent is None:
                return end - start
        raise KeyError(request)


def _resolve(module_name: str, path: str):
    """``(owner, attribute, original)``; for a static method the
    original is the ``staticmethod`` object itself."""
    module = importlib.import_module(module_name)
    owner = module
    *parents, name = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    original = vars(owner)[name] if isinstance(owner, type) else getattr(owner, name)
    return owner, name, original


def _swaps(recorder: SpanRecorder) -> list[tuple]:
    """``(target, attribute, original, wrapper)`` for every place a
    layer function is bound: its defining module or class, and every
    loaded ``repro`` module that imported it by name."""
    swaps = []
    for layer, module_name, path in BINDINGS:
        owner, name, original = _resolve(module_name, path)
        if isinstance(original, staticmethod):
            wrapper = staticmethod(recorder.wrap(layer, original.__func__))
        else:
            wrapper = recorder.wrap(layer, original)
        swaps.append((owner, name, original, wrapper))
        if owner is not sys.modules[module_name]:
            continue  # a method: binding on the class covers all callers
        for loaded_name, module in list(sys.modules.items()):
            if not loaded_name.startswith("repro") or module is owner:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    swaps.append((module, attr, original, wrapper))
    return swaps
