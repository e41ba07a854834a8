"""Demand-driven service layer over the exhaustive analysis.

The paper's algorithm (like most of its era) is *exhaustive*: one run
computes the points-to sets of every program point.  This package
turns that exhaustive result into something a tool can *ask questions
of* and *reuse across runs*:

* :mod:`repro.service.serialize` — a stable, versioned JSON encoding
  of a completed :class:`~repro.core.analysis.PointsToAnalysis`.  The
  payload is self-contained: labels, per-statement triples, the
  invocation graph, name-resolution scopes and read/write sets all
  travel with it, so answering a query from a cached result needs *no*
  re-parsing of the C source.  It carries only what queries read; the
  Tables 2-6 summaries are derived on demand
  (:mod:`repro.core.statistics`).
* :mod:`repro.service.store` — an on-disk, content-addressed result
  store keyed by ``sha256(source, options, format-version)``.
* :mod:`repro.service.queries` — a :class:`QuerySession` answering
  demand queries (``points_to``, ``may_alias``, ``callees_at``,
  ``callers_of``, ``read_write``) against a fresh or cached result.
* :mod:`repro.service.batch` — a parallel batch driver that fans out
  over files with ``multiprocessing`` workers and fills the store, and
  a JSON-lines ``serve`` loop for warm editor/tool sessions.
"""

from repro.service.serialize import (
    FORMAT_VERSION,
    DecodedAnalysis,
    decode_analysis,
    encode_analysis,
    encode_analysis_bytes,
)
from repro.service.store import ResultStore, StoreStats
from repro.service.queries import QueryError, QuerySession, parse_query
from repro.service.batch import BatchReport, run_batch, serve

__all__ = [
    "FORMAT_VERSION",
    "DecodedAnalysis",
    "decode_analysis",
    "encode_analysis",
    "encode_analysis_bytes",
    "ResultStore",
    "StoreStats",
    "QueryError",
    "QuerySession",
    "parse_query",
    "BatchReport",
    "run_batch",
    "serve",
]
