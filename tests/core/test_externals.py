"""External-function models and the unknown-external policies."""

from repro.core.analysis import AnalysisOptions, analyze_source
from repro.interp import check_soundness


def at(source, label, options=None):
    return analyze_source(source, options).triples_at(label)


class TestKnownModels:
    def test_printf_family_pure(self):
        source = """
        int main() { int a; int *p; p = &a;
            printf("%d", a); fprintf(0, "x"); puts("y");
            OUT: return 0; }
        """
        result = analyze_source(source)
        assert result.triples_at("OUT") == [("p", "a", "D")]
        assert not result.warnings

    def test_math_functions_pure(self):
        source = """
        int main() { double x; int *p; int a; p = &a;
            x = sqrt(2.0) + sin(1.0);
            OUT: return 0; }
        """
        assert at(source, "OUT") == [("p", "a", "D")]

    def test_memcpy_transfers_contained_pointers(self):
        source = """
        struct holder { int *p; };
        int g;
        int main() {
            struct holder src, dst;
            struct holder *ps, *pd;
            src.p = &g;
            ps = &src; pd = &dst;
            memcpy(pd, ps, 8);
            OUT: return 0;
        }
        """
        triples = at(source, "OUT")
        assert ("dst.p", "g", "P") in triples

    def test_strcat_returns_destination(self):
        source = """
        int main() {
            char buf[8]; char *r;
            r = strcat(buf, "x");
            OUT: return 0;
        }
        """
        assert ("r", "buf[head]", "D") in at(source, "OUT")


class TestUnknownPolicy:
    SOURCE = """
    int main() {
        int a; int *p; int **pp;
        p = &a; pp = &p;
        blackbox(pp);
        OUT: return 0;
    }
    """

    def test_ignore_policy_keeps_relationships(self):
        result = analyze_source(self.SOURCE)
        assert result.triples_at("OUT") == [("p", "a", "D"), ("pp", "p", "D")]
        assert any("blackbox" in w for w in result.warnings)

    def test_havoc_policy_smashes_reachable(self):
        options = AnalysisOptions(unknown_external_policy="havoc")
        triples = at(self.SOURCE, "OUT", options)
        # p is reachable from pp: blackbox may have redirected it
        p_pairs = {(t, d) for s, t, d in triples if s == "p"}
        assert ("a", "P") in p_pairs
        assert ("heap", "P") in p_pairs

    def test_havoc_does_not_touch_unreachable(self):
        source = """
        int main() {
            int a, b; int *p, *q;
            p = &a; q = &b;
            blackbox(p);
            OUT: return 0;
        }
        """
        options = AnalysisOptions(unknown_external_policy="havoc")
        triples = at(source, "OUT", options)
        assert ("q", "b", "D") in triples

    def test_unknown_pointer_return_assumed_heap(self):
        source = """
        int main() {
            int *p;
            p = (int *) blackbox();
            OUT: return 0;
        }
        """
        assert ("p", "heap", "P") in at(source, "OUT")


class TestIndirectExternals:
    """An external reached through a function pointer gets the same
    model as a direct call to it (``stmt.callee`` is None there: the
    name comes from the pointer's resolved target)."""

    MALLOC = """
    void *malloc(int n);
    int main() {
        void *(*fp)(int); int *p;
        fp = malloc; p = fp(4);
        OUT: return 0;
    }
    """
    STRCPY = """
    char *strcpy(char *d, char *s);
    int main() {
        char *(*fp)(char *, char *); char buf[8]; char src[4]; char *r;
        src[0] = 0;
        fp = strcpy; r = fp(buf, src);
        OUT: return 0;
    }
    """
    UNKNOWN = """
    int *blackbox(int *q);
    int main() {
        int *(*fp)(int *); int a; int *p; int *r;
        p = &a; fp = blackbox; r = fp(p);
        OUT: return 0;
    }
    """

    def test_allocator_through_pointer_returns_heap(self):
        result = analyze_source(self.MALLOC)
        assert ("p", "heap", "P") in result.triples_at("OUT")
        assert not result.warnings

    def test_first_argument_returner_through_pointer(self):
        result = analyze_source(self.STRCPY)
        assert ("r", "buf[head]", "D") in result.triples_at("OUT")
        assert not result.warnings

    def test_unknown_prototype_through_pointer_warns_by_name(self):
        result = analyze_source(self.UNKNOWN)
        assert ("r", "heap", "P") in result.triples_at("OUT")
        assert len(result.warnings) == 1
        assert "'blackbox'" in result.warnings[0]

    def test_havoc_policy_through_pointer(self):
        options = AnalysisOptions(unknown_external_policy="havoc")
        triples = at(self.UNKNOWN, "OUT", options)
        assert ("a", "heap", "P") in triples

    def test_sound_against_the_interpreter(self):
        for source in (self.MALLOC, self.STRCPY, self.UNKNOWN):
            report = check_soundness(source)
            assert report.ok, report.violations[:5]
