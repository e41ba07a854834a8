"""Round-trip guarantees of the versioned JSON encoding."""

import json

import pytest

from repro.benchsuite import BENCHMARKS
from repro.core import perf
from repro.core.analysis import AnalysisOptions, analyze_source
from repro.core.invocation_graph import IGNodeKind
from repro.core.statistics import collect_perf
from repro.service.queries import QueryError, QuerySession
from repro.service.serialize import (
    FORMAT_VERSION,
    SUPPORTED_VERSIONS,
    decode_analysis,
    encode_analysis,
    encode_analysis_bytes,
)

SAMPLE = """
int g;
int helper(int **q) { *q = &g; return 0; }
int main() {
    int *p;
    int **pp;
    helper(&p);
    pp = &p;
    A: *pp = &g;
    B: return 0;
}
"""

RECURSIVE = """
int *walk(int *p, int n) {
    if (n) { L: return walk(p, n - 1); }
    return p;
}
int main() { int x; int *r; r = walk(&x, 3); E: return 0; }
"""


def roundtrip(source, options=None):
    analysis = analyze_source(source, options)
    payload = encode_analysis(analysis, name="t", source=source)
    # Through real JSON text, as the store does.
    decoded = decode_analysis(json.dumps(payload))
    return analysis, decoded


class TestRoundTrip:
    def test_triples_at_every_label(self):
        analysis, decoded = roundtrip(SAMPLE)
        for label in analysis.program.labels:
            assert decoded.triples_at(label) == analysis.triples_at(label)
            assert decoded.triples_at(
                label, skip_null=False, skip_temps=False
            ) == analysis.triples_at(label, skip_null=False, skip_temps=False)

    def test_at_label_set_equality(self):
        analysis, decoded = roundtrip(SAMPLE)
        for label in analysis.program.labels:
            assert decoded.at_label(label) == analysis.at_label(label)

    def test_point_info_complete(self):
        # Statement ids are canonicalized by the encoding (live ids
        # come from a process-global counter), so compare the
        # per-statement sets as an order-insensitive multiset.
        analysis, decoded = roundtrip(SAMPLE)
        assert len(decoded.point_info) == len(analysis.point_info)
        assert sorted(str(info) for info in decoded.point_info.values()) == (
            sorted(str(info) for info in analysis.point_info.values())
        )

    def test_graph_shape_exact(self):
        analysis, decoded = roundtrip(SAMPLE)
        assert decoded.ig.render() == analysis.ig.render()
        assert decoded.ig.to_dot() == analysis.ig.to_dot()
        assert decoded.ig.node_count() == analysis.ig.node_count()

    def test_recursive_graph_partners(self):
        analysis, decoded = roundtrip(RECURSIVE)
        assert decoded.ig.render() == analysis.ig.render()
        for kind in IGNodeKind:
            assert decoded.ig.count_kind(kind) == analysis.ig.count_kind(kind)
        approx = [
            node
            for node in decoded.ig.root.walk()
            if node.kind is IGNodeKind.APPROXIMATE
        ]
        assert approx and all(n.rec_partner is not None for n in approx)

    def test_warnings_and_options(self):
        source = "int main() { int *p; mystery(&p); W: return 0; }"
        options = AnalysisOptions(function_pointer_strategy="address_taken")
        analysis, decoded = roundtrip(source, options)
        assert decoded.warnings == analysis.warnings and decoded.warnings
        assert decoded.options == options

    def test_stats_survive(self):
        analysis, decoded = roundtrip(RECURSIVE)
        assert decoded.stats.hits == analysis.stats.hits
        assert decoded.stats.misses == analysis.stats.misses
        assert (
            decoded.stats.recursion_truncations
            == analysis.stats.recursion_truncations
        )

    def test_function_of_stmt(self):
        analysis, decoded = roundtrip(SAMPLE)
        assert set(decoded.labels) == set(analysis.program.labels)
        for label, (func, _) in analysis.program.labels.items():
            decoded_func, decoded_id = decoded.labels[label]
            assert decoded_func == func
            assert decoded.function_of_stmt(decoded_id) == func

    def test_collect_perf_accepts_decoded(self):
        analysis, decoded = roundtrip(SAMPLE)
        live = collect_perf(analysis, "t").as_dict()
        cached = collect_perf(decoded, "t").as_dict()
        assert cached == live

    def test_summaries_section_absent(self):
        # v4 dropped the Tables 2-6 / perf section: nothing read it,
        # and the tables derive on demand from the analysis.
        analysis, decoded = roundtrip(SAMPLE)
        payload = encode_analysis(analysis, name="t", source=SAMPLE)
        assert payload["format_version"] == FORMAT_VERSION == 4
        assert "summaries" not in payload
        assert not hasattr(decoded, "summaries")

    def test_version_mismatch_rejected(self):
        analysis, _ = roundtrip(SAMPLE)
        payload = encode_analysis(analysis)
        payload["format_version"] = FORMAT_VERSION + 1
        with pytest.raises(ValueError, match="format version"):
            decode_analysis(payload)

    def test_benchmarks_roundtrip(self):
        for name in ("misr", "dry", "fixoutput"):
            source = BENCHMARKS[name].source
            analysis, decoded = roundtrip(source)
            for label in analysis.program.labels:
                assert decoded.triples_at(label) == analysis.triples_at(label)
            assert decoded.ig.render() == analysis.ig.render()

    def test_encoding_is_json_safe_and_deterministic(self):
        analysis = analyze_source(SAMPLE)
        first = encode_analysis_bytes(analysis, name="t", source=SAMPLE)
        again = encode_analysis_bytes(
            analyze_source(SAMPLE), name="t", source=SAMPLE
        )
        assert first == again
        json.loads(first)  # well-formed


DISPATCH = """
int a; int b;
int *pa;
void install(int ***h) { *h = &pa; pa = &a; }
void install_b(int ***h) { *h = &pa; pa = &b; }
int main() {
    int **p; void (*fp)(int ***); int sel;
    sel = 0;
    fp = install;
    if (sel) { fp = install_b; }
    fp(&p);
    L: return 0;
}
"""


def _answers(session: QuerySession, queries: list[str]) -> list:
    answers = []
    for query in queries:
        try:
            answers.append(("ok", session.evaluate(query)))
        except QueryError as exc:
            answers.append(("error", str(exc)))
    return answers


class TestOlderVersions:
    def test_supported_versions(self):
        assert SUPPORTED_VERSIONS == {2, 3, 4}

    def test_v3_payload_with_summaries_answers_every_query_kind(self):
        with perf.configured(track_provenance=True):
            analysis = analyze_source(DISPATCH)
        payload = encode_analysis(analysis, name="t", source=DISPATCH)
        # A v3 artifact: same layout plus the summaries section the
        # decoder now ignores.
        v3 = dict(payload, format_version=3)
        v3["summaries"] = {
            "table6": {"ig_nodes": analysis.ig.node_count()},
            "perf": {"statements": analysis.program.count_basic_stmts()},
        }
        current = QuerySession(decode_analysis(json.dumps(payload)))
        old_result = decode_analysis(json.dumps(v3))
        assert not hasattr(old_result, "summaries")
        old = QuerySession(old_result)
        (site,) = QuerySession(analysis).call_sites()
        queries = [
            "points_to:*p@L",
            "points_to:pa@L",
            "may_alias:*p,pa@L",
            "explain:**p@L",
            "why_possible:**p@L",
            "blame_invisible:pa",
            f"callees_at:{site}",
            "callers_of:install",
            "read_write:main",
            "read_write:install_b",
            "call_sites",
            "labels",
            "warnings",
            "graph",
            "summary",
        ]
        answers = _answers(old, queries)
        assert answers == _answers(current, queries)
        by_query = dict(zip(queries, answers))
        assert by_query["points_to:*p@L"] == ("ok", [("a", "P"), ("b", "P")])
        assert by_query[f"callees_at:{site}"] == ("ok", ["install", "install_b"])
        assert by_query["explain:**p@L"][0] == "ok"
        assert QuerySession(analysis).points_to("**p", "L") == (
            old.points_to("**p", "L")
        )
