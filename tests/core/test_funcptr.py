"""Section 5 / Figures 5-7: function-pointer handling."""

from repro.core.analysis import AnalysisOptions, analyze_source
from repro.core.funcptr import address_taken_functions
from repro.core.invocation_graph import IGNodeKind
from repro.simple import simplify_source


def at(source, label, skip_null=True):
    return analyze_source(source).triples_at(label, skip_null=skip_null)


PAPER_FIGURE6 = """
int a,b,c;
int *pa,*pb,*pc;
int (*fp)();
int cond;

void foo() {
    pa = &a;
    if (cond)
        fp();
    C: pa = pa;
}

void bar() {
    pb = &b;
    D: pb = pb;
}

int main() {
    pc = &c;
    if (cond)
        fp = foo;
    else
        fp = bar;
    A: fp();
    B: pc = pc;
    return 0;
}
"""


TABLE_INITIALIZED_GLOBALLY = """
int g; int *gp;
void set_g(void) { gp = &g; }
void clear_g(void) { gp = 0; }
void (*ops[2])(void) = { set_g, clear_g };
int main() {
    void (*f)(void);
    f = ops[0];
    f();
    OUT: return 0;
}
"""


UNKNOWN_TABLE_INDEX = """
int sel;
int g; int *gp;
void set_g(void) { gp = &g; }
void clear_g(void) { gp = 0; }
void (*ops[2])(void) = { set_g, clear_g };
int main() {
    void (*f)(void);
    f = ops[sel];
    f();
    OUT: return 0;
}
"""


STRUCT_FIELD_POINTER = """
int g; int *gp;
void set_g(void) { gp = &g; }
struct driver { void (*init)(void); };
int main() {
    struct driver d;
    void (*f)(void);
    d.init = set_g;
    f = d.init;
    f();
    OUT: return 0;
}
"""


POINTER_ARGUMENT = """
int g; int *gp;
void set_g(void) { gp = &g; }
void apply(void (*f)(void)) { f(); }
int main() { apply(set_g); OUT: return 0; }
"""


MULTI_LEVEL_POINTER = """
int g; int *gp;
void set_g(void) { gp = &g; }
int main() {
    void (*f)(void);
    void (**pf)(void);
    void (*f2)(void);
    f = set_g;
    pf = &f;
    f2 = *pf;
    f2();
    OUT: return 0;
}
"""


SELF_CALL_VIA_POINTER = """
int depth;
void f(void);
void (*fp)(void);
void f(void) { if (depth > 0) { depth--; fp(); } }
int main() { fp = f; fp(); OUT: return 0; }
"""


ALTERNATING_POINTERS = """
int n; int g; int *gp;
void f(void); void h(void);
void (*fp)(void);
void f(void) { gp = &g; if (n > 0) { n--; fp = h; fp(); } }
void h(void) { if (n > 0) { n--; fp = f; fp(); } }
int main() { fp = f; fp(); OUT: return 0; }
"""


NULL_ONLY_POINTER = """
int main() { void (*f)(void); f = 0; f(); OUT: return 0; }
"""


STRATEGY_CHOICE = """
int g; int *gp;
void used(void) { gp = &g; }
void unused_but_taken(void) { gp = 0; }
void never_taken(void) { }
void (*keep)(void);
int main() {
    void (*f)(void);
    keep = unused_but_taken;
    f = used;
    f();
    OUT: return 0;
}
"""

#: The function-pointer and recursion programs above, by name.
PROGRAMS = {
    "paper_figure6": PAPER_FIGURE6,
    "table_initialized_globally": TABLE_INITIALIZED_GLOBALLY,
    "unknown_table_index": UNKNOWN_TABLE_INDEX,
    "struct_field_pointer": STRUCT_FIELD_POINTER,
    "pointer_argument": POINTER_ARGUMENT,
    "multi_level_pointer": MULTI_LEVEL_POINTER,
    "self_call_via_pointer": SELF_CALL_VIA_POINTER,
    "alternating_pointers": ALTERNATING_POINTERS,
    "null_only_pointer": NULL_ONLY_POINTER,
    "strategy_choice": STRATEGY_CHOICE,
}


class TestPaperFigure6:
    """The paper's worked example, checked point for point."""

    def test_point_a(self):
        assert at(PAPER_FIGURE6, "A") == [
            ("fp", "bar", "P"),
            ("fp", "foo", "P"),
            ("pc", "c", "D"),
        ]

    def test_point_b(self):
        assert at(PAPER_FIGURE6, "B") == [
            ("fp", "bar", "P"),
            ("fp", "foo", "P"),
            ("pa", "a", "P"),
            ("pb", "b", "P"),
            ("pc", "c", "D"),
        ]

    def test_point_c_fp_definitely_foo(self):
        assert at(PAPER_FIGURE6, "C") == [
            ("fp", "foo", "D"),
            ("pa", "a", "D"),
            ("pc", "c", "D"),
        ]

    def test_point_d_fp_definitely_bar(self):
        assert at(PAPER_FIGURE6, "D") == [
            ("fp", "bar", "D"),
            ("pb", "b", "D"),
            ("pc", "c", "D"),
        ]

    def test_invocation_graph_matches_figure7c(self):
        result = analyze_source(PAPER_FIGURE6)
        ig = result.ig
        # main calls foo and bar; foo's nested fp() resolves to foo
        # alone (fp is definitely foo inside foo), creating the
        # recursive/approximate pair of Figure 7(c).
        assert ig.count_kind(IGNodeKind.RECURSIVE) == 1
        assert ig.count_kind(IGNodeKind.APPROXIMATE) == 1
        foo_children = {
            n.func
            for n in ig.nodes()
            if n.kind is IGNodeKind.APPROXIMATE
        }
        assert foo_children == {"foo"}

    def test_indirect_call_binds_only_pointed_to_functions(self):
        result = analyze_source(PAPER_FIGURE6)
        main_node = result.ig.root
        indirect_children = set()
        for children in main_node.children.values():
            indirect_children |= set(children)
        assert indirect_children == {"foo", "bar"}


class TestDispatchTables:
    def test_table_initialized_globally(self):
        source = TABLE_INITIALIZED_GLOBALLY
        triples = at(source, "OUT")
        # ops[0] is definitely set_g (head location, strong init)
        assert ("gp", "g", "D") in triples

    def test_unknown_table_index_merges_all_entries(self):
        source = UNKNOWN_TABLE_INDEX
        triples = at(source, "OUT")
        assert ("gp", "g", "P") in triples

    def test_function_pointer_in_struct_field(self):
        source = STRUCT_FIELD_POINTER
        assert ("gp", "g", "D") in at(source, "OUT")

    def test_function_pointer_passed_as_argument(self):
        source = POINTER_ARGUMENT
        assert ("gp", "g", "D") in at(source, "OUT")

    def test_multi_level_function_pointer(self):
        source = MULTI_LEVEL_POINTER
        assert ("gp", "g", "D") in at(source, "OUT")


class TestRecursionThroughFunctionPointers:
    def test_self_call_via_pointer_marks_recursion(self):
        source = SELF_CALL_VIA_POINTER
        result = analyze_source(source)
        assert result.ig.count_kind(IGNodeKind.RECURSIVE) >= 1
        assert result.ig.count_kind(IGNodeKind.APPROXIMATE) >= 1

    def test_alternating_pointers_converge(self):
        source = ALTERNATING_POINTERS
        triples = at(source, "OUT")
        # gp = &g is the first statement of f on every path, so the
        # relationship is in fact definite here.
        assert ("gp", "g", "D") in triples or ("gp", "g", "P") in triples
        assert ("fp", "f", "P") in triples and ("fp", "h", "P") in triples


class TestStrategies:
    SOURCE = STRATEGY_CHOICE

    def test_address_taken_set(self):
        program = simplify_source(self.SOURCE)
        assert address_taken_functions(program) == {"used", "unused_but_taken"}

    def test_precise_binds_one_function(self):
        result = analyze_source(self.SOURCE)
        assert result.triples_at("OUT") == [
            ("f", "used", "D"),
            ("gp", "g", "D"),
            ("keep", "unused_but_taken", "D"),
        ]

    def test_all_functions_strategy_merges_everything(self):
        result = analyze_source(
            self.SOURCE, AnalysisOptions(function_pointer_strategy="all_functions")
        )
        triples = result.triples_at("OUT")
        gp_defs = [d for s, t, d in triples if s == "gp"]
        assert "D" not in gp_defs  # merged over 4 candidate callees

    def test_address_taken_strategy_intermediate(self):
        precise = analyze_source(self.SOURCE)
        taken = analyze_source(
            self.SOURCE, AnalysisOptions(function_pointer_strategy="address_taken")
        )
        all_fns = analyze_source(
            self.SOURCE, AnalysisOptions(function_pointer_strategy="all_functions")
        )
        assert (
            precise.ig.node_count()
            <= taken.ig.node_count()
            <= all_fns.ig.node_count()
        )

    def test_null_only_function_pointer_warns(self):
        source = NULL_ONLY_POINTER
        result = analyze_source(source)
        assert any("no known" in w for w in result.warnings)
