"""The connection-matrix heap analysis (the paper's companion work)."""

from repro.core.analysis import analyze_source
from repro.core.heapconn import (
    ConnectionMatrix,
    analyze_heap_connections,
)
from repro.core.locations import AbsLoc, LocKind
from repro.simple.ir import SFor


def L(name):
    return AbsLoc(name, LocKind.LOCAL, "main")


def run(source):
    analysis = analyze_source(source)
    return analyze_heap_connections(analysis)


class TestConnectionMatrix:
    def test_connect_and_query(self):
        m = ConnectionMatrix()
        m.connect(L("a"), L("b"))
        assert m.connected(L("a"), L("b"))
        assert m.connected(L("b"), L("a"))
        assert not m.connected(L("a"), L("c"))

    def test_self_connection_requires_membership(self):
        m = ConnectionMatrix()
        assert not m.connected(L("a"), L("a"))
        m.enter(L("a"))
        assert m.connected(L("a"), L("a"))

    def test_leave_removes_pairs(self):
        m = ConnectionMatrix()
        m.connect(L("a"), L("b"))
        m.leave(L("a"))
        assert not m.connected(L("a"), L("b"))
        assert L("b") in m.members()

    def test_join_structure(self):
        m = ConnectionMatrix()
        m.connect(L("q"), L("r"))
        m.enter(L("p"))
        m.join_structure(L("p"), L("q"))
        assert m.connected(L("p"), L("q"))
        assert m.connected(L("p"), L("r"))

    def test_merge_structures(self):
        m = ConnectionMatrix()
        m.connect(L("a"), L("a2"))
        m.connect(L("b"), L("b2"))
        m.merge_structures(L("a"), L("b"))
        assert m.connected(L("a2"), L("b2"))

    def test_merge_operator_is_union(self):
        m1 = ConnectionMatrix()
        m1.connect(L("a"), L("b"))
        m2 = ConnectionMatrix()
        m2.connect(L("c"), L("d"))
        merged = m1.merge(m2)
        assert merged.connected(L("a"), L("b"))
        assert merged.connected(L("c"), L("d"))
        assert not merged.connected(L("a"), L("c"))


class TestTransferFunctions:
    def test_two_mallocs_disconnected(self):
        heap = run("""
        int main() {
            int *p, *q;
            p = (int *) malloc(4);
            q = (int *) malloc(4);
            HERE: return 0;
        }
        """)
        assert not heap.connected_at("HERE", "p", "q")
        assert heap.connected_at("HERE", "p", "p")

    def test_copy_joins_structure(self):
        heap = run("""
        int main() {
            int *p, *q;
            p = (int *) malloc(4);
            q = p;
            HERE: return 0;
        }
        """)
        assert heap.connected_at("HERE", "p", "q")

    def test_load_joins_structure(self):
        heap = run("""
        struct node { struct node *next; };
        int main() {
            struct node *p, *q;
            p = (struct node *) malloc(8);
            q = p->next;
            HERE: return 0;
        }
        """)
        assert heap.connected_at("HERE", "p", "q")

    def test_store_merges_structures(self):
        heap = run("""
        struct node { struct node *next; };
        int main() {
            struct node *a, *b;
            a = (struct node *) malloc(8);
            b = (struct node *) malloc(8);
            BEFORE: a->next = b;
            AFTER: return 0;
        }
        """)
        assert not heap.connected_at("BEFORE", "a", "b")
        assert heap.connected_at("AFTER", "a", "b")

    def test_reassignment_disconnects(self):
        heap = run("""
        int main() {
            int *p, *q;
            p = (int *) malloc(4);
            q = p;
            q = (int *) malloc(4);
            HERE: return 0;
        }
        """)
        assert not heap.connected_at("HERE", "p", "q")

    def test_null_assignment_leaves_domain(self):
        heap = run("""
        int main() {
            int *p, *q;
            p = (int *) malloc(4);
            q = p;
            q = 0;
            HERE: return 0;
        }
        """)
        matrix = heap.matrix_at("HERE")
        assert not heap.connected_at("HERE", "p", "q")
        env_q = [m for m in matrix.members() if m.base == "q"]
        assert not env_q

    def test_branches_merge_possibly(self):
        heap = run("""
        int c;
        int main() {
            int *p, *q, *r;
            p = (int *) malloc(4);
            q = (int *) malloc(4);
            if (c) r = p; else r = q;
            HERE: return 0;
        }
        """)
        assert heap.connected_at("HERE", "r", "p")
        assert heap.connected_at("HERE", "r", "q")
        assert not heap.connected_at("HERE", "p", "q")

    def test_loop_fixed_point(self):
        heap = run("""
        struct node { struct node *next; };
        int main() {
            struct node *head, *p;
            int i;
            head = 0;
            for (i = 0; i < 3; i++) {
                p = (struct node *) malloc(8);
                p->next = head;
                head = p;
            }
            HERE: return 0;
        }
        """)
        assert heap.connected_at("HERE", "head", "p")

    def test_for_initializer_runs_before_the_loop(self):
        analysis = analyze_source("""
        int main() {
            int *p, *q;
            int i;
            q = (int *) malloc(4);
            i = 0;
            for (p = (int *) malloc(4); i < 3; i++) {
                BODY: q = q;
            }
            return 0;
        }
        """)
        heap = analyze_heap_connections(analysis)
        main = analysis.program.functions["main"]
        loop = next(s for s in main.iter_stmts() if isinstance(s, SFor))
        alloc, copy = loop.init.stmts
        assert alloc.stmt_id in heap.point_info
        assert copy.stmt_id in heap.point_info
        # The loop starts from the matrix the initializer leaves: its
        # condition and body already hold p's fresh structure.
        (test,) = loop.cond_eval.stmts
        assert L("p") in heap.point_info[test.stmt_id].members()
        assert heap.connected_at("BODY", "p", "p")
        assert not heap.connected_at("BODY", "p", "q")


class TestCalls:
    def test_heap_inert_callee_preserves_disconnection(self):
        heap = run("""
        int tally(int a, int b) { return a + b; }
        int main() {
            int *p, *q;
            int t;
            p = (int *) malloc(4);
            q = (int *) malloc(4);
            t = tally(1, 2);
            HERE: return t;
        }
        """)
        assert not heap.connected_at("HERE", "p", "q")

    def test_heap_touching_callee_merges_arguments(self):
        heap = run("""
        struct node { struct node *next; };
        void link(struct node *a, struct node *b) { a->next = b; }
        int main() {
            struct node *p, *q;
            p = (struct node *) malloc(8);
            q = (struct node *) malloc(8);
            link(p, q);
            HERE: return 0;
        }
        """)
        assert heap.connected_at("HERE", "p", "q")

    def test_returned_pointer_connects_to_arguments(self):
        heap = run("""
        struct node { struct node *next; };
        struct node *advance(struct node *n) { return n->next; }
        int main() {
            struct node *p, *r;
            p = (struct node *) malloc(8);
            r = advance(p);
            HERE: return 0;
        }
        """)
        assert heap.connected_at("HERE", "r", "p")


class TestMetrics:
    def test_disconnection_ratio_range(self):
        heap = run("""
        int main() {
            int *a, *b, *c;
            a = (int *) malloc(4);
            b = (int *) malloc(4);
            c = (int *) malloc(4);
            HERE: return 0;
        }
        """)
        ratio = heap.disconnection_ratio()
        assert 0.0 < ratio <= 1.0

    def test_benchmarks_run_clean(self):
        from repro.benchsuite import BENCHMARKS

        for name in ("hash", "misr", "xref", "sim"):
            analysis = analyze_source(BENCHMARKS[name].source)
            heap = analyze_heap_connections(analysis)
            assert heap.point_info, name
