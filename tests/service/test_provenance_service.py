"""The service surface of the provenance layer.

Three contracts:

* **Artifact neutrality** — payloads produced with provenance
  recording *off* carry no ``"provenance"`` key and are byte-identical
  to pre-provenance artifacts; an enabled-run payload reduces to the
  disabled-run payload when the optional section is stripped (the
  section is fully self-contained), modulo the perf counters in
  ``stats`` — recording forces opaque whole-input memo keys, so those
  legitimately differ.  This is the gate CI runs
  on every push.
* **Round-trip fidelity** — enabled payloads encode deterministically
  across separate parses, decode to a log the witness helpers accept
  verbatim, and answer the ``explain:`` family identically to the
  live result (modulo statement-id renumbering).
* **Serve/store integration** — the store addresses provenance-enabled
  requests separately, and the serve loop's ``{"cmd": "provenance"}``
  is gated on the recording switch.
"""

from __future__ import annotations

import io
import json

import pytest

from repro.core import perf
from repro.core.analysis import analyze_source
from repro.core.provenance import SOURCE_RULES, witness
from repro.service.batch import SERVE_COMMANDS, serve
from repro.service.queries import QueryError, QuerySession
from repro.service.serialize import (
    canonical_json,
    decode_analysis,
    encode_analysis,
    encode_analysis_bytes,
)
from repro.service.store import ResultStore

SOURCE = """
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


def encode_with_provenance() -> tuple[dict, bytes]:
    with perf.configured(track_provenance=True):
        analysis = analyze_source(SOURCE)
    payload = encode_analysis(analysis, name="fig5", source=SOURCE)
    return payload, canonical_json(payload)


class TestArtifactNeutrality:
    def test_off_payload_has_no_provenance_key(self):
        payload = encode_analysis(
            analyze_source(SOURCE), name="fig5", source=SOURCE
        )
        assert "provenance" not in payload

    def test_stripped_on_payload_reduces_to_off(self):
        off_payload = encode_analysis(
            analyze_source(SOURCE), name="fig5", source=SOURCE
        )
        payload_on, _ = encode_with_provenance()
        assert "provenance" in payload_on
        stripped = {
            key: value
            for key, value in payload_on.items()
            if key != "provenance"
        }

        # Provenance recording forces opaque whole-input memo keys
        # (the slice memo is off while recording), so the perf
        # counters in ``stats`` legitimately differ between the two
        # runs; everything else — the semantic payload — must be
        # byte-identical.
        def semantic(payload: dict) -> bytes:
            return canonical_json(
                {key: value for key, value in payload.items() if key != "stats"}
            )

        assert semantic(stripped) == semantic(off_payload)

    def test_enabled_encoding_stable_across_parses(self):
        _, first = encode_with_provenance()
        _, second = encode_with_provenance()
        assert first == second


class TestRoundTrip:
    def test_decoded_log_answers_witnesses(self):
        payload, raw = encode_with_provenance()
        decoded = decode_analysis(raw)
        log = decoded.provenance
        assert log is not None
        assert log.kill_count > 0
        assert len(log.records) == len(payload["provenance"]["records"])
        for key in log.latest:
            chain = witness(log, *key)
            assert chain and chain[-1][1].rule in SOURCE_RULES

    def test_live_and_decoded_explain_agree(self):
        with perf.configured(track_provenance=True):
            analysis = analyze_source(SOURCE)
        raw = encode_analysis_bytes(analysis, name="fig5", source=SOURCE)
        live = QuerySession(analysis)
        cached = QuerySession(decode_analysis(raw))

        def shape(answer):
            # Statement ids are renumbered in the payload; everything
            # else must match exactly.
            return [
                (
                    pair["src"], pair["tgt"], pair["definiteness"],
                    [
                        (step["rule"], step["src"], step["tgt"],
                         step["definiteness"], step["func"],
                         tuple(step["path"]))
                        for step in pair["witness"]
                    ],
                )
                for pair in answer["pairs"]
            ]

        for query in ("explain:*main::p@L", "explain:pa@L"):
            assert shape(live.evaluate(query)) == shape(
                cached.evaluate(query)
            )
        live_weak = live.evaluate("why_possible:pa@L")
        cached_weak = cached.evaluate("why_possible:pa@L")
        assert [
            (p["src"], p["tgt"], p["weakening"]["rule"])
            for p in live_weak["pairs"]
        ] == [
            (p["src"], p["tgt"], p["weakening"]["rule"])
            for p in cached_weak["pairs"]
        ]
        assert [
            {k: v for k, v in intro.items() if k != "stmt_id"}
            for intro in live.evaluate("blame_invisible:1_h")
        ] == [
            {k: v for k, v in intro.items() if k != "stmt_id"}
            for intro in cached.evaluate("blame_invisible:1_h")
        ]

    def test_explain_without_log_is_a_query_error(self):
        session = QuerySession(analyze_source(SOURCE))
        with pytest.raises(QueryError, match="track_provenance"):
            session.evaluate("explain:p@L")
        with pytest.raises(QueryError, match="track_provenance"):
            session.evaluate("why_possible:p@L")
        with pytest.raises(QueryError, match="track_provenance"):
            session.evaluate("blame_invisible:1_h")

    def test_blame_unknown_name_lists_known(self):
        with perf.configured(track_provenance=True):
            analysis = analyze_source(SOURCE)
        session = QuerySession(analysis)
        with pytest.raises(QueryError, match="1_h"):
            session.evaluate("blame_invisible:nope")


class TestStoreKeyGating:
    def test_provenance_requests_address_distinct_objects(self, tmp_path):
        plain = ResultStore.key_for(SOURCE)
        assert ResultStore.key_for(SOURCE) == plain
        with perf.configured(track_provenance=True):
            enabled = ResultStore.key_for(SOURCE)
        assert enabled != plain
        # And the marker is omission-based: turning the switch back off
        # reproduces the pre-provenance key exactly.
        assert ResultStore.key_for(SOURCE) == plain

    def test_cached_hit_preserves_provenance(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        with perf.configured(track_provenance=True):
            _, hit = store.load_or_analyze(SOURCE)
            assert hit is False
            cached, hit = store.load_or_analyze(SOURCE)
            assert hit is True
        assert cached.provenance is not None
        assert QuerySession(cached).evaluate("explain:pa@L")["pairs"]


def run_serve(requests, store):
    stdin = io.StringIO(
        "".join(json.dumps(request) + "\n" for request in requests)
    )
    stdout = io.StringIO()
    assert serve(stdin, stdout, store) == 0
    return [json.loads(line) for line in stdout.getvalue().splitlines()]


class TestServeLoop:
    def test_unknown_cmd_structured_error(self, tmp_path):
        (response,) = run_serve(
            [{"cmd": "bogus"}], ResultStore(tmp_path / "store")
        )
        assert response["ok"] is False
        assert "unknown cmd" in response["error"]
        assert response["cmd"] == "bogus"
        assert response["known_cmds"] == list(SERVE_COMMANDS)
        assert "provenance" in response["known_cmds"]

    def test_provenance_cmd_gated_when_off(self, tmp_path):
        assert perf.CONFIG.track_provenance is False
        (response,) = run_serve(
            [{"cmd": "provenance"}], ResultStore(tmp_path / "store")
        )
        assert response["ok"] is False
        assert "track_provenance" in response["error"]

    def test_provenance_cmd_reports_sessions_when_on(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        with perf.configured(track_provenance=True):
            responses = run_serve(
                [
                    {"id": 1, "source": SOURCE, "query": "explain:pa@L"},
                    {"cmd": "provenance"},
                ],
                store,
            )
        explain, summary = responses
        assert explain["ok"], explain
        assert {"src", "tgt", "witness"} <= set(
            explain["result"]["pairs"][0]
        )
        assert summary["ok"], summary
        result = summary["result"]
        assert result["enabled"] is True
        (session_summary,) = result["sessions"].values()
        assert session_summary["records"] > 0
        assert session_summary["symbolic_intros"] > 0
        classes = session_summary["classes"]
        assert classes["gen"] > 0 and classes["kill"] > 0
