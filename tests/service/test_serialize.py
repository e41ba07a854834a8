"""Round-trip guarantees of the versioned JSON encoding."""

import json

import pytest

from repro.benchsuite import BENCHMARKS
from repro.core.analysis import AnalysisOptions, analyze_source
from repro.core.invocation_graph import IGNodeKind
from repro.core.statistics import collect_perf
from repro.service.serialize import (
    FORMAT_VERSION,
    SUPPORTED_VERSIONS,
    canonical_json,
    decode_analysis,
    encode_analysis,
    encode_analysis_bytes,
)

from tests.interp.test_golden_digests import corpus, v4_payload

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
        analysis, decoded = roundtrip(SAMPLE)
        assert decoded.point_info == analysis.point_info

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
        assert payload["format_version"] == FORMAT_VERSION == 8
        assert "summaries" not in payload
        assert not hasattr(decoded, "summaries")

    def test_incremental_section_is_deps_and_globals(self):
        # v8 dropped the per-function body fingerprints: no update
        # tier reads them, and ``check --diff`` reads only these two.
        analysis, decoded = roundtrip(SAMPLE)
        payload = encode_analysis(analysis, name="t", source=SAMPLE)
        assert set(payload["incremental"]) == {"deps", "globals"}
        assert decoded.incremental == payload["incremental"]

    def test_version_mismatch_rejected(self):
        analysis, _ = roundtrip(SAMPLE)
        payload = encode_analysis(analysis)
        payload["format_version"] = FORMAT_VERSION + 1
        with pytest.raises(ValueError, match="format version"):
            decode_analysis(payload)

    def test_only_the_current_version_decodes(self):
        # Older payloads sit under older store keys (the version is
        # part of the key), so the decoder reads the current one only.
        assert SUPPORTED_VERSIONS == {FORMAT_VERSION}
        analysis, _ = roundtrip(SAMPLE)
        payload = encode_analysis(analysis)
        payload["format_version"] = FORMAT_VERSION - 1
        with pytest.raises(ValueError, match="format version"):
            decode_analysis(payload)
        assert "share_subtrees" not in payload["options"]

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


def _table_locations(decoded) -> list:
    (table,) = {pts.table for pts in decoded.point_info.values()}
    return [table.loc_of(i) for i in range(len(table))]


def test_v4_and_v5_forms_decode_alike_over_the_golden_corpus():
    """Decoding the row and set dictionary gives the sets, row order,
    table ids and statement owners that ``PointsToSet.from_triples``
    and one owner per statement id give over the spelled-out v4
    triples (:func:`v4_payload`), and statements that share a set id
    share one row dict."""
    from repro.core.locations import AbsLoc, LocKind, LocTable, install_table
    from repro.core.pointsto import D, P, PointsToSet

    for name, source in corpus().items():
        encoded = encode_analysis_bytes(analyze_source(source))
        new = decode_analysis(encoded)
        # The v4 form, read back through JSON text.
        old = json.loads(canonical_json(v4_payload(json.loads(encoded))))
        locs = [
            AbsLoc(base, LocKind(kind), func, tuple(path))
            for base, kind, func, path in old["locations"]
        ]
        reference_table = LocTable()
        previous = install_table(reference_table)
        try:
            reference = {
                int(stmt_id): PointsToSet.from_triples(
                    (locs[si], locs[ti], D if d == "D" else P)
                    for si, ti, d in triples
                )
                for stmt_id, triples in old["point_info"].items()
            }
        finally:
            install_table(previous)
        assert list(new.point_info) == list(reference), name
        for stmt_id, expected in reference.items():
            assert list(new.point_info[stmt_id].rows.items()) == list(
                expected.rows.items()
            ), (name, stmt_id)
        assert _table_locations(new) == [
            reference_table.loc_of(i) for i in range(len(reference_table))
        ], name
        assert new._stmt_func == {
            int(stmt_id): func for stmt_id, func in old["stmt_func"].items()
        }, name
        shared = {}
        for stmt_id, set_id in new.payload["point_info"]["stmts"].items():
            rows = new.point_info[int(stmt_id)].rows
            assert shared.setdefault(set_id, rows) is rows, (name, stmt_id)
