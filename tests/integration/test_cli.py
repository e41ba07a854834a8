"""The repro-pta command-line interface."""

import pytest

from repro.cli import main

DEMO = """
int g;
void set(int **q) { *q = &g; }
int main() {
    int *p;
    int *never_set;
    set(&p);
    HERE: return 0;
}
"""


@pytest.fixture()
def demo_file(tmp_path):
    path = tmp_path / "demo.c"
    path.write_text(DEMO)
    return str(path)


class TestAnalyzeCommand:
    def test_prints_labeled_points(self, demo_file, capsys):
        assert main(["analyze", demo_file]) == 0
        out = capsys.readouterr().out
        assert "HERE: (p,g,D)" in out
        assert "Invocation graph" in out
        assert "main" in out and "set" in out

    def test_strategy_flag(self, demo_file, capsys):
        assert main(["analyze", demo_file, "--fnptr", "all_functions"]) == 0

    def test_show_null_flag(self, demo_file, capsys):
        assert main(["analyze", demo_file, "--show-null"]) == 0
        assert "NULL" in capsys.readouterr().out


class TestSimpleCommand:
    def test_prints_lowering(self, demo_file, capsys):
        assert main(["simple", demo_file]) == 0
        out = capsys.readouterr().out
        assert "int main()" in out
        assert "(*q) = " in out


class TestTablesCommand:
    def test_selected_benchmarks(self, capsys):
        assert main(["tables", "hash", "msc"]) == 0
        out = capsys.readouterr().out
        for table in ("Table 2", "Table 3", "Table 4", "Table 5", "Table 6"):
            assert table in out
        assert "hash" in out and "msc" in out
        assert "headline figures" in out


class TestLivcCommand:
    def test_runs_study(self, capsys):
        assert main(["livc"]) == 0
        out = capsys.readouterr().out
        assert "precise algorithm" in out
        assert "address-taken" in out
