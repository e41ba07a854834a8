"""SARIF output shape, suppressions, and live-vs-decoded equality.

The strongest property here is byte-identity: running the checkers over
a live analysis and over the same analysis decoded from its
content-addressed payload must render the *exact same* SARIF document.
That pins the checkfacts serialization, statement ids, and witness
encoding all at once.
"""

import json
from pathlib import Path

from repro.checkers import run_checkers
from repro.checkers.sarif import (
    SARIF_SCHEMA,
    SARIF_VERSION,
    render_findings,
    render_sarif,
    to_sarif,
)
from repro.core import perf
from repro.core.analysis import analyze_source
from repro.service.serialize import decode_analysis, encode_analysis

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"

SOURCE = """
int g;
void set_null(int **pp) { *pp = 0; }
int *dangle(void) {
    int x;
    ESCAPE: return &x;
}
int main() {
    int *p;
    int *q;
    p = &g;
    set_null(&p);
    L: *p = 1;
    q = dangle();
    DONE: return 0;
}
"""


def analyze(source):
    with perf.configured(track_provenance=True):
        return analyze_source(source)


def sarif_doc(findings, artifact="test.c"):
    return to_sarif(findings, artifact)


class TestSarifShape:
    def test_document_skeleton(self):
        analysis = analyze(SOURCE)
        findings = run_checkers(analysis, source=SOURCE)
        doc = sarif_doc(findings)
        assert doc["version"] == SARIF_VERSION == "2.1.0"
        assert doc["$schema"] == SARIF_SCHEMA
        (run,) = doc["runs"]
        assert run["tool"]["driver"]["name"] == "repro-pta"
        rule_ids = {rule["id"] for rule in run["tool"]["driver"]["rules"]}
        assert {"null-deref", "dangling-stack-return"} <= rule_ids
        # Rules are only listed for checkers that actually reported.
        assert rule_ids == {r["ruleId"] for r in run["results"]}

    def test_result_fields(self):
        analysis = analyze(SOURCE)
        findings = run_checkers(
            analysis, source=SOURCE, checkers=["null-deref"]
        )
        doc = sarif_doc(findings)
        (result,) = doc["runs"][0]["results"]
        assert result["level"] == "error"
        assert result["properties"]["definiteness"] == "D"
        assert result["properties"]["function"] == "main"
        assert result["properties"]["witness"], "witness must survive SARIF"
        loc = result["locations"][0]["physicalLocation"]
        assert loc["artifactLocation"]["uri"] == "test.c"
        assert loc["region"]["startLine"] > 0

    def test_render_is_valid_json(self):
        analysis = analyze(SOURCE)
        findings = run_checkers(analysis, source=SOURCE)
        text = render_sarif(findings, "test.c")
        assert json.loads(text)["version"] == "2.1.0"


class TestLiveVsDecoded:
    def assert_identical(self, source):
        analysis = analyze(source)
        live = run_checkers(analysis, source=source)
        payload = encode_analysis(analysis, source=source)
        decoded = decode_analysis(payload)
        stored = run_checkers(decoded, source=source)
        assert render_sarif(live, "x.c") == render_sarif(stored, "x.c")
        assert render_findings(live, "x.c") == render_findings(stored, "x.c")

    def test_synthetic_program(self):
        self.assert_identical(SOURCE)

    def test_pointer_bugs_example(self):
        self.assert_identical((EXAMPLES / "pointer_bugs.c").read_text())

    def test_funcptr_dispatch_example(self):
        self.assert_identical((EXAMPLES / "funcptr_dispatch.c").read_text())


class TestSuppressions:
    def test_inline_suppression_drops_finding(self):
        noisy = "int main() { int *p; p = 0; L: *p = 1; return 0; }\n"
        quiet = (
            "int main() { int *p; p = 0;"
            " L: *p = 1;  // repro-ignore[null-deref]\n"
            "return 0; }\n"
        )
        assert run_checkers(analyze(noisy), source=noisy)
        assert run_checkers(analyze(quiet), source=quiet) == []

    def test_bare_suppression_drops_all(self):
        source = (
            "int main() { int *p; p = 0;"
            " L: *p = 1;  // repro-ignore\n"
            "return 0; }\n"
        )
        assert run_checkers(analyze(source), source=source) == []

    def test_other_id_does_not_suppress(self):
        source = (
            "int main() { int *p; p = 0;"
            " L: *p = 1;  // repro-ignore[heap-leak]\n"
            "return 0; }\n"
        )
        findings = run_checkers(analyze(source), source=source)
        # The heap-leak suppression doesn't silence null-deref, and —
        # suppressing nothing — earns an unused-suppression note.
        assert [f.checker for f in findings] == [
            "null-deref", "unused-suppression"
        ]
        findings = run_checkers(
            analyze(source), source=source, unused_suppressions=False
        )
        assert [f.checker for f in findings] == ["null-deref"]


class TestAcceptance:
    """The ISSUE acceptance command, as a test."""

    def test_funcptr_dispatch_sarif(self):
        source = (EXAMPLES / "funcptr_dispatch.c").read_text()
        analysis = analyze(source)
        findings = run_checkers(analysis, source=source)
        doc = sarif_doc(findings, "examples/funcptr_dispatch.c")
        results = doc["runs"][0]["results"]
        definite = [
            r
            for r in results
            if r["level"] == "error"
            and r["properties"]["definiteness"] == "D"
            and r["properties"].get("witness")
        ]
        assert definite, "expected a definite finding with a witness"
        # The suppressed shadow deref must not appear.
        assert not any(
            "shadow" in r["message"]["text"] for r in results
        )
