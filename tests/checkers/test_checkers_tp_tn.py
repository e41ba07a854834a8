"""Interprocedural true-positive / true-negative pairs per checker.

Each shipped checker gets a program where it must fire (with the right
severity) and a near-identical program where it must stay silent — the
satellite acceptance for the checker framework.  Every pair exercises
an *interprocedural* flow (the fact crosses at least one call
boundary) so the map/unmap machinery is in the loop, not just the
intraprocedural rules.
"""

import pytest

from repro.checkers import run_checkers
from repro.core import perf
from repro.core.analysis import analyze_source


def findings_for(source, checker, provenance=False):
    if provenance:
        with perf.configured(track_provenance=True):
            analysis = analyze_source(source)
    else:
        analysis = analyze_source(source)
    return run_checkers(analysis, source=source, checkers=[checker])


class TestNullDeref:
    TP = """
    int g;
    void set_null(int **pp) { *pp = 0; }
    int main() {
        int *p;
        p = &g;
        set_null(&p);
        L: *p = 1;
        return 0;
    }
    """
    TN = """
    int g;
    void set_g(int **pp) { *pp = &g; }
    int main() {
        int *p;
        p = 0;
        set_g(&p);
        L: *p = 1;
        return 0;
    }
    """
    MAYBE = """
    int g;
    void set_null(int **pp) { *pp = 0; }
    int main(int argc) {
        int *p;
        p = &g;
        if (argc) { set_null(&p); }
        L: *p = 1;
        return 0;
    }
    """

    def test_fires_definitely_after_callee_nulls(self):
        findings = findings_for(self.TP, "null-deref")
        assert len(findings) == 1
        finding = findings[0]
        assert finding.severity == "error" and finding.definite
        assert finding.func == "main" and "L" in finding.labels
        assert "'p'" in finding.message

    def test_silent_when_callee_repoints(self):
        assert findings_for(self.TN, "null-deref") == []

    def test_possible_is_warning(self):
        findings = findings_for(self.MAYBE, "null-deref")
        assert len(findings) == 1
        assert findings[0].severity == "warning"


class TestUninitPtrUse:
    TP = """
    int take(int *q) { return 0; }
    int main() {
        int *p;
        take(p);
        return 0;
    }
    """
    TN = """
    int g;
    int take(int *q) { return 0; }
    int main() {
        int *p;
        p = &g;
        take(p);
        return 0;
    }
    """

    def test_fires_on_never_assigned_argument(self):
        findings = findings_for(self.TP, "uninit-ptr-use")
        assert len(findings) == 1
        finding = findings[0]
        assert finding.severity == "error"
        assert "'p'" in finding.message and finding.func == "main"

    def test_silent_once_assigned(self):
        assert findings_for(self.TN, "uninit-ptr-use") == []

    def test_address_taken_counts_as_assigned(self):
        # A callee may initialize through the address: not a use-before-
        # assignment even though no local assignment is visible.
        source = """
        int g;
        void init(int **pp) { *pp = &g; }
        int use(int *q) { return 0; }
        int main() {
            int *p;
            init(&p);
            use(p);
            return 0;
        }
        """
        assert findings_for(source, "uninit-ptr-use") == []


class TestDanglingStackReturn:
    TP = """
    int *dangle(void) {
        int x;
        int *p;
        x = 1;
        p = &x;
        ESCAPE: return p;
    }
    int main() {
        int *q;
        q = dangle();
        return 0;
    }
    """
    TN = """
    int g;
    int *ok(void) {
        int *p;
        p = &g;
        RET: return p;
    }
    int main() {
        int *q;
        q = ok();
        return 0;
    }
    """

    def test_fires_on_returned_local(self):
        findings = findings_for(self.TP, "dangling-stack-return")
        # Return-site error plus the caller-side unmap warning.
        severities = sorted(f.severity for f in findings)
        assert severities == ["error", "warning"]
        error = next(f for f in findings if f.severity == "error")
        assert error.func == "dangle" and "ESCAPE" in error.labels
        assert "'x'" in error.message

    def test_silent_for_global_target(self):
        assert findings_for(self.TN, "dangling-stack-return") == []

    def test_direct_address_return(self):
        source = """
        int *grab(void) {
            int x;
            GRAB: return &x;
        }
        int main() { int *q; q = grab(); return 0; }
        """
        findings = findings_for(source, "dangling-stack-return")
        assert any(
            f.severity == "error" and f.func == "grab" for f in findings
        )


class TestHeapLeak:
    TP = """
    void drop(void) {
        int *h;
        h = (int *) malloc(4);
        *h = 5;
        h = 0;
        LOST: return;
    }
    int main(void) { drop(); return 0; }
    """
    TN_ESCAPE = """
    void keepit(int **out) {
        *out = (int *) malloc(4);
        return;
    }
    int main(void) { int *k; keepit(&k); return 0; }
    """
    TN_GLOBAL = """
    int *gp;
    void stash(void) {
        gp = (int *) malloc(8);
        return;
    }
    int main(void) { stash(); return 0; }
    """

    def test_fires_when_last_pointer_overwritten(self):
        findings = findings_for(self.TP, "heap-leak")
        assert len(findings) == 1
        finding = findings[0]
        assert finding.severity == "warning"  # heap facts cap at possible
        assert finding.func == "drop" and "'h'" in finding.message

    def test_silent_when_escaping_through_out_param(self):
        assert findings_for(self.TN_ESCAPE, "heap-leak") == []

    def test_silent_when_stored_in_global(self):
        assert findings_for(self.TN_GLOBAL, "heap-leak") == []


class TestLoopInterference:
    TP = """
    int g;
    void stir(int *a, int *b) {
        int i;
        for (i = 0; i < 8; i = i + 1) {
            MIX: *a = *b + i;
        }
    }
    int main(void) { stir(&g, &g); return 0; }
    """
    TN = """
    int g;
    int h;
    void stir(int *a, int *b) {
        int i;
        for (i = 0; i < 8; i = i + 1) {
            MIX: *a = *b + i;
        }
    }
    int main(void) { stir(&g, &h); return 0; }
    """

    def test_fires_on_aliased_arguments(self):
        findings = findings_for(self.TP, "loop-interference")
        assert len(findings) >= 1
        finding = findings[0]
        assert finding.severity == "warning" and finding.func == "stir"
        assert "g" in finding.extra["locations"]

    def test_silent_on_disjoint_arguments(self):
        assert findings_for(self.TN, "loop-interference") == []

    def test_plain_index_dependence_not_reported(self):
        # The classic i = i + 1 loop dependence involves no pointer:
        # out of scope for a points-to client.
        source = """
        void count(void) {
            int i;
            int total;
            total = 0;
            for (i = 0; i < 8; i = i + 1) {
                BODY: total = total + i;
            }
            return;
        }
        int main(void) { count(); return 0; }
        """
        assert findings_for(source, "loop-interference") == []


class TestSuppressionsAndSelection:
    def test_unknown_checker_rejected(self):
        from repro.checkers import CheckerError

        with pytest.raises(CheckerError, match="no-such"):
            findings_for("int main() { return 0; }", "no-such")

    def test_witness_attached_when_provenance_on(self):
        findings = findings_for(
            TestNullDeref.TP, "null-deref", provenance=True
        )
        assert findings[0].witness, "expected a derivation witness"
        step = findings[0].witness[-1]
        assert {"rule", "src", "tgt", "definiteness"} <= set(step)

    def test_no_witness_when_provenance_off(self):
        findings = findings_for(TestNullDeref.TP, "null-deref")
        assert findings[0].witness == []
