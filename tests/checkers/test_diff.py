"""Differential checking: fingerprints, baselines, replay, the CLI.

The load-bearing property throughout is byte-identity: whatever mix of
replayed and fresh findings a diff check assembles, rendering them to
SARIF must equal a cold full check of the new text, byte for byte.
Everything else (classification, baseline persistence, suppression
drift) is layered on top of that guarantee.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.benchsuite import BENCHMARKS
from repro.benchsuite.edits import propose_edits
from repro.checkers import (
    build_baseline,
    check_diff,
    finding_fingerprint,
    render_sarif,
    run_checkers,
)
from repro.checkers.base import Finding
from repro.checkers.diff import _rows_fingerprint
from repro.cli import main
from repro.core import perf
from repro.core.analysis import AnalysisOptions, analyze_source
from repro.core.incremental import update_analysis
from repro.service.store import ResultStore

SOURCE = """
int g;
void set_null(int **pp) { *pp = 0; }
int *dangle(void) {
    int x;
    ESCAPE: return &x;
}
int helper(void) { return 0; }
int main() {
    int *p;
    int *q;
    int h;
    p = &g;
    set_null(&p);
    L: *p = 1;
    q = dangle();
    h = helper();
    DONE: return h;
}
"""


def analyze(source):
    with perf.configured(track_provenance=False):
        return analyze_source(source)


def cold_findings(source):
    with perf.configured(track_provenance=False):
        return run_checkers(analyze_source(source), source=source)


def diff(old, new, **kw):
    with perf.configured(track_provenance=False):
        base = analyze_source(old)
        baseline = build_baseline(base, old)
        return check_diff(
            new, old_source=old, old_analysis=base, baseline=baseline, **kw
        )


def assert_identical(report, new_source):
    assert render_sarif(report.findings, "x.c") == render_sarif(
        cold_findings(new_source), "x.c"
    )


class TestFingerprint:
    def test_stable_under_line_and_stmt_shift(self):
        finding = Finding(
            checker="null-deref", message="m", definite=True,
            func="f", stmt=10, line=5,
        )
        shifted = Finding(
            checker="null-deref", message="m", definite=True,
            func="f", stmt=210, line=55,
        )
        assert finding_fingerprint(finding) == finding_fingerprint(shifted)

    def test_payload_changes_it(self):
        base = Finding(checker="c", message="m", definite=True, func="f")
        for variant in (
            Finding(checker="c2", message="m", definite=True, func="f"),
            Finding(checker="c", message="m2", definite=True, func="f"),
            Finding(checker="c", message="m", definite=False, func="f"),
            Finding(checker="c", message="m", definite=True, func="g"),
            Finding(checker="c", message="m", definite=True, func="f",
                    labels=("L",)),
        ):
            assert finding_fingerprint(base) != finding_fingerprint(variant)

    def test_line_extras_excluded(self):
        a = Finding(checker="c", message="m", definite=True, func="f",
                    extra={"other_line": 10, "loop_line": 3, "kept": 1})
        b = Finding(checker="c", message="m", definite=True, func="f",
                    extra={"other_line": 90, "loop_line": 77, "kept": 1})
        c = Finding(checker="c", message="m", definite=True, func="f",
                    extra={"other_line": 10, "loop_line": 3, "kept": 2})
        assert finding_fingerprint(a) == finding_fingerprint(b)
        assert finding_fingerprint(a) != finding_fingerprint(c)

    def test_accepts_dict_form(self):
        finding = Finding(checker="c", message="m", definite=True, func="f")
        assert finding_fingerprint(finding) == finding_fingerprint(
            finding.as_dict()
        )


class TestReplay:
    def test_line_shift_replays_with_remapped_lines(self):
        # Growing set_null (defined above dangle) pushes dangle down
        # the file without touching its text: dangle stays clean and
        # its finding replays, remapped to the new line numbers — the
        # byte-identity assertion checks the remap against cold.
        edited = SOURCE.replace(
            "void set_null(int **pp) { *pp = 0; }",
            "void set_null(int **pp) {\n    int pad;\n    pad = 0;\n"
            "    *pp = 0;\n}",
        )
        report = diff(SOURCE, edited)
        assert_identical(report, edited)
        assert "dangle" in report.clean_functions
        assert report.replayed > 0
        assert all(status == "unchanged" for status in report.statuses)

    def test_injected_bug_is_new(self):
        edited = SOURCE.replace(
            "int helper(void) { return 0; }",
            "int helper(void) { int *z; z = 0; B: *z = 1; return 0; }",
        )
        report = diff(SOURCE, edited)
        assert_identical(report, edited)
        new = report.new_findings
        assert [f.checker for f in new] == ["null-deref"]
        assert new[0].func == "helper"
        assert not report.absent

    def test_fixed_bug_is_absent(self):
        edited = SOURCE.replace(
            "int helper(void) { return 0; }",
            "int helper(void) { int *z; z = 0; B: *z = 1; return 0; }",
        )
        report = diff(edited, SOURCE)
        assert_identical(report, SOURCE)
        assert [rec["checker"] for rec in report.absent] == ["null-deref"]
        assert not report.new_findings

    def test_global_change_dirties_everything(self):
        edited = "int brand_new;\n" + SOURCE
        report = diff(SOURCE, edited)
        assert_identical(report, edited)
        assert not report.clean_functions

    def test_unchanged_source(self):
        report = diff(SOURCE, SOURCE)
        assert_identical(report, SOURCE)
        assert report.mode == "unchanged"
        assert not report.new_findings and not report.absent

    def test_chained_diffs_self_heal_rows(self):
        # Step 1 dirties main's closure (rows stored as None for the
        # untouched neighbors); step 2 edits an unrelated leaf and must
        # still be byte-identical, with the None rows re-hashed fresh.
        step1 = SOURCE.replace(
            "int helper(void) { return 0; }",
            "int helper(void) { int h2; h2 = 0; return h2; }",
        )
        step2 = step1.replace(
            "void set_null(int **pp) { *pp = 0; }",
            "void set_null(int **pp) { int t; t = 0; *pp = 0; }",
        )
        with perf.configured(track_provenance=False):
            base = analyze_source(SOURCE)
            baseline = build_baseline(base, SOURCE)
            first = check_diff(
                step1, old_source=SOURCE, old_analysis=base,
                baseline=baseline,
            )
            second = check_diff(
                step2, old_source=step1, old_analysis=first.analysis,
                baseline=first.baseline,
            )
        assert_identical(second, step2)


class TestRowsFingerprint:
    def test_shared_cache_agrees_with_fresh_cache_across_tables(self):
        # A chain of splice-tier updates leaves lws holding rows from
        # several location tables; equal row ids under different
        # tables must not share a cached digest.
        source = BENCHMARKS["lws"].source
        with perf.configured(track_provenance=False):
            analysis = analyze_source(source)
            for step in range(6):
                edited = propose_edits(source, step)[0].source
                analysis, _ = update_analysis(analysis, source, edited)
                source = edited
        program = analysis.program
        assert len({id(pts._table) for pts in analysis.point_info.values()}) > 1
        shared: dict = {}
        for func in sorted(program.functions):
            stmt_ids = program.stmt_ids[func]
            assert _rows_fingerprint(analysis, stmt_ids, shared) == (
                _rows_fingerprint(analysis, stmt_ids, {})
            ), func


class TestSuppressionDrift:
    #: A suppressed null deref in main, with a function ABOVE it that
    #: the edit grows — the suppression comment rides down the file.
    OLD = (
        "int above(void) { return 1; }\n"
        "int main() { int *p; p = 0;"
        " L: *p = 1;  // repro-ignore[null-deref]\n"
        "return 0; }\n"
    )
    NEW = (
        "int above(void) { int pad; pad = 2;\n"
        "    pad = pad + 1;\n"
        "    return pad; }\n"
        "int main() { int *p; p = 0;"
        " L: *p = 1;  // repro-ignore[null-deref]\n"
        "return 0; }\n"
    )

    def test_insertion_above_keeps_finding_suppressed(self):
        # Cold check of the new text: still suppressed.
        assert [f.checker for f in cold_findings(self.NEW)] == []
        # Diff mode must agree — the regression was keying suppression
        # lines on the OLD text's numbering during replay.
        report = diff(self.OLD, self.NEW)
        assert_identical(report, self.NEW)
        assert [f.checker for f in report.findings] == []

    def test_unused_note_appears_when_edit_fixes_the_bug(self):
        fixed = self.OLD.replace("p = 0;", "int s; p = &s;")
        report = diff(self.OLD, fixed)
        assert_identical(report, fixed)
        checkers = [f.checker for f in report.findings]
        assert "unused-suppression" in checkers


class TestUnusedSuppressions:
    def test_note_suppressed_only_by_its_own_id(self):
        bare = (
            "int main() { int g2; int *p; p = &g2;"
            " L: *p = 1;  // repro-ignore\n"
            "return 0; }\n"
        )
        listed = bare.replace(
            "// repro-ignore",
            "// repro-ignore[unused-suppression]",
        )
        # A bare unused ignore earns the note (it does not silence
        # itself); naming unused-suppression explicitly does.
        notes = [
            f for f in cold_findings(bare)
            if f.checker == "unused-suppression"
        ]
        assert len(notes) == 1
        assert notes[0].line is None or "line" not in notes[0].message
        assert cold_findings(listed) == []

    def test_flag_disables_notes(self):
        source = (
            "int main() { int g3; int *p; p = &g3;"
            " L: *p = 1;  // repro-ignore[heap-leak]\n"
            "return 0; }\n"
        )
        with perf.configured(track_provenance=False):
            analysis = analyze_source(source)
            noisy = run_checkers(analysis, source=source)
            quiet = run_checkers(
                analysis, source=source, unused_suppressions=False
            )
        assert [f.checker for f in noisy] == ["unused-suppression"]
        assert quiet == []


class TestBaselineStore:
    def test_round_trip_and_hit_counter(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        options = AnalysisOptions()
        edited = SOURCE.replace(
            "int helper(void) { return 0; }",
            "int helper(void) { int *z; z = 0; B: *z = 1; return 0; }",
        )
        first = check_diff(
            edited, old_source=SOURCE, store=store, options=options
        )
        assert first.baseline_key and store.has(first.baseline_key)
        assert first.new_baseline_key and store.has(first.new_baseline_key)
        # Second diff from the same old text hits the stored baseline.
        tracer = obs.Tracer()
        with obs.tracing(tracer):
            second = check_diff(
                edited, old_source=SOURCE, store=store, options=options
            )
        counters = tracer.snapshot()["counters"]
        assert counters.get("diffcheck.baseline_hits") == 1
        assert render_sarif(second.findings, "x.c") == render_sarif(
            first.findings, "x.c"
        )

    def test_baseline_key_inputs(self):
        options = AnalysisOptions()
        plain = ResultStore.baseline_key(SOURCE, options)
        assert plain.startswith("base-")
        assert plain == ResultStore.baseline_key(SOURCE, options)
        assert plain != ResultStore.baseline_key(SOURCE + " ", options)
        assert plain != ResultStore.baseline_key(
            SOURCE, options, checkers=["null-deref"]
        )
        assert plain != ResultStore.baseline_key(
            SOURCE, options, unused_suppressions=False
        )


class TestCheckDiffCli:
    def _write(self, tmp_path, name, text):
        path = tmp_path / name
        path.write_text(text)
        return path

    def test_new_finding_exits_one(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_PTA_STORE", str(tmp_path / "store"))
        edited = SOURCE.replace(
            "int helper(void) { return 0; }",
            "int helper(void) { int *z; z = 0; B: *z = 1; return 0; }",
        )
        old = self._write(tmp_path, "old.c", SOURCE)
        new = self._write(tmp_path, "new.c", edited)
        assert main(["check", str(new), "--diff", str(old)]) == 1
        out = capsys.readouterr().out
        assert "diff: mode=" in out
        assert "new: " in out and "null-deref" in out
        assert "baseline: base-" in out

    def test_clean_diff_exits_zero(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_PTA_STORE", str(tmp_path / "store"))
        edited = SOURCE.replace("DONE: return 0;", "DONE: return g;")
        old = self._write(tmp_path, "old.c", SOURCE)
        new = self._write(tmp_path, "new.c", edited)
        assert main(["check", str(new), "--diff", str(old)]) == 0
        assert "new: " not in capsys.readouterr().out

    def test_missing_baseline_record_exits_two(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setenv("REPRO_PTA_STORE", str(tmp_path / "store"))
        new = self._write(tmp_path, "new.c", SOURCE)
        assert main(
            ["check", str(new), "--baseline", "base-deadbeef"]
        ) == 2
        assert "no baseline record" in capsys.readouterr().err

    def test_baseline_key_reuse(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_PTA_STORE", str(tmp_path / "store"))
        old = self._write(tmp_path, "old.c", SOURCE)
        new = self._write(tmp_path, "new.c", SOURCE + "\n// trailing\n")
        assert main(["check", str(new), "--diff", str(old)]) == 0
        out = capsys.readouterr().out
        key = next(
            line.split()[-1]
            for line in out.splitlines()
            if line.startswith("baseline: ")
        )
        edited = self._write(
            tmp_path, "edited.c",
            SOURCE.replace(
                "int helper(void) { return 0; }",
                "int helper(void) { int *z; z = 0; B: *z = 1; "
                "return 0; }",
            ) + "\n// trailing\n",
        )
        assert main(["check", str(edited), "--baseline", key]) == 1
        assert "null-deref" in capsys.readouterr().out

    def test_sarif_diff_keeps_stdout_clean(
        self, tmp_path, capsys, monkeypatch
    ):
        import json

        monkeypatch.setenv("REPRO_PTA_STORE", str(tmp_path / "store"))
        old = self._write(tmp_path, "old.c", SOURCE)
        new = self._write(tmp_path, "new.c", SOURCE + "\n// x\n")
        assert main(
            ["check", str(new), "--diff", str(old), "--format", "sarif"]
        ) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["version"] == "2.1.0"
        assert "diff: mode=" in captured.err


class TestErrors:
    def test_needs_some_baseline_input(self):
        from repro.checkers import DiffError

        with pytest.raises(DiffError):
            check_diff(SOURCE)
