"""CLI: the interpreter-backed and client-analysis subcommands."""

import pytest

from repro.cli import main

HEAPY = """
struct node { int v; struct node *next; };
int main() {
    struct node *a, *b;
    a = (struct node *) malloc(8);
    b = (struct node *) malloc(8);
    MID: a->next = b;
    return a->next == b;
}
"""

BROKEN_AT_RUNTIME = """
int main() {
    int *p;
    p = 0;
    return *p;
}
"""


@pytest.fixture()
def heapy_file(tmp_path):
    path = tmp_path / "heapy.c"
    path.write_text(HEAPY)
    return str(path)


class TestRunCommand:
    def test_executes_and_reports(self, heapy_file, capsys):
        assert main(["run", heapy_file]) == 0
        out = capsys.readouterr().out
        assert "exit value: 1" in out
        assert "heap objects: 2" in out


class TestSoundnessCommand:
    def test_clean_program(self, heapy_file, capsys):
        assert main(["soundness", heapy_file]) == 0
        out = capsys.readouterr().out
        assert "OK:" in out
        assert "facts compared" in out

    def test_runtime_halt_is_not_a_violation(self, tmp_path, capsys):
        path = tmp_path / "broken.c"
        path.write_text(BROKEN_AT_RUNTIME)
        assert main(["soundness", str(path)]) == 0
        assert "halted: null-deref" in capsys.readouterr().out


class TestHeapCommand:
    def test_reports_connections(self, heapy_file, capsys):
        assert main(["heap", heapy_file]) == 0
        out = capsys.readouterr().out
        assert "MID:" in out
        assert "disconnected" in out


class TestDotOutput:
    def test_dot_flag(self, heapy_file, capsys):
        assert main(["analyze", heapy_file, "--dot"]) == 0
        out = capsys.readouterr().out
        assert "digraph invocation_graph" in out
        assert 'label="main"' in out

    def test_dot_marks_recursion(self, tmp_path, capsys):
        path = tmp_path / "rec.c"
        path.write_text(
            "int f(int n) { if (n) f(n - 1); return n; }"
            "int main() { return f(3); }"
        )
        assert main(["analyze", str(path), "--dot"]) == 0
        out = capsys.readouterr().out
        assert "(R)" in out and "(A)" in out
        assert "style=dashed, constraint=false" in out


FIG5 = """
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


@pytest.fixture()
def fig5_file(tmp_path):
    path = tmp_path / "fig5.c"
    path.write_text(FIG5)
    return str(path)


class TestExplainFlag:
    def test_witness_crosses_call_boundary(self, fig5_file, capsys):
        assert main(["analyze", fig5_file, "--explain", "*main::p@L"]) == 0
        out = capsys.readouterr().out
        # The witness for (p, pa) crosses the indirect call: unmapped
        # back into main from a mapped installer formal.
        assert "unmap.strong" in out
        assert "map.formal" in out
        assert "indirect=True" in out
        assert "Precision dashboard" in out

    def test_bare_explain_prints_dashboard_only(self, fig5_file, capsys):
        assert main(["analyze", fig5_file, "--explain"]) == 0
        out = capsys.readouterr().out
        assert "Precision dashboard" in out
        assert "derivations:" in out
        assert "explain:" not in out

    def test_bad_expression_is_reported(self, fig5_file, capsys):
        assert main(["analyze", fig5_file, "--explain", "nosuch@L"]) == 1
        captured = capsys.readouterr()
        assert "error" in captured.err

    def test_query_provenance_flag(self, fig5_file, tmp_path, capsys):
        assert main([
            "query", fig5_file, "explain:pa@L",
            "--provenance", "--store", str(tmp_path / "store"),
        ]) == 0
        out = capsys.readouterr().out
        assert "witness" in out

    def test_query_without_provenance_flag_errors(
        self, fig5_file, tmp_path, capsys
    ):
        assert main([
            "query", fig5_file, "explain:pa@L",
            "--store", str(tmp_path / "store"),
        ]) == 1
        assert "track_provenance" in capsys.readouterr().err


class TestUpdateStore:
    """``update OLD NEW --store DIR`` serves NEW from the store once
    OLD's artifact is stored, as the serve and daemon verb does."""

    OLD = "int g; int h; int *p;\nvoid set(void) { p = &g; }\n" \
        "int main(void) { set(); return 0; }\n"
    #: A summary-preserving edit of ``set``: a live base splices it.
    NEW = OLD.replace("p = &g; }", "int t; t = 0; p = &g; }")

    def _update(self, tmp_path, capsys):
        import json

        store = str(tmp_path / "store")
        assert main([
            "update", str(tmp_path / "a.c"), str(tmp_path / "b.c"),
            "--store", store,
        ]) == 0
        return json.loads(capsys.readouterr().out)

    def test_repeated_update_is_served_from_the_store(
        self, tmp_path, capsys
    ):
        from repro.core.analysis import AnalysisOptions
        from repro.service.store import ResultStore

        (tmp_path / "a.c").write_text(self.OLD)
        (tmp_path / "b.c").write_text(self.NEW)
        first = self._update(tmp_path, capsys)
        assert first["mode"] == "splice"
        # a.c is stored now: its decoded artifact cannot splice, so
        # b.c is analyzed cold and stored ...
        second = self._update(tmp_path, capsys)
        assert second["mode"] == "cold"
        assert second["fallback"] == "no live base session"
        assert second["reanalyzed"] == ["main", "set"]
        # ... and from then on the store serves it.
        third = self._update(tmp_path, capsys)
        assert third["mode"] == "cached"
        assert third["fallback"] == "no live base session"
        assert third["reanalyzed"] == []

        assert main(["store", "ls", "--store", str(tmp_path / "store")]) == 0
        listing = capsys.readouterr().out
        store = ResultStore(str(tmp_path / "store"))
        for source in (self.OLD, self.NEW):
            assert store.key_for(source, AnalysisOptions()) in listing
