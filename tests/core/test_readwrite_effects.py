"""Visible call effects are computed once per analysis, in linear time.

A function's visible effects (the globals and heap it, or anything it
can call, reads or may write) must equal the union of the *own*
effects of every function reachable from it.  The tests check that
against a naive reachability walk, and count the callee-free
statement evaluations instead of timing them: each basic statement is
evaluated once per analysis however many call paths reach it.
"""

import sys

import pytest

from repro.core import readwrite
from repro.core.analysis import analyze_source
from repro.core.readwrite import (
    function_read_write,
    resolved_callees,
    statement_read_write,
)
from repro.simple.ir import BasicKind, BasicStmt, SReturn

CHAIN_LENGTH = 200


def chain_source(length: int) -> str:
    lines = [f"int g{i};" for i in range(length)]
    lines.append(f"void f{length - 1}(void) {{ g{length - 1} = 1; }}")
    for i in range(length - 2, -1, -1):
        lines.append(f"void f{i}(void) {{ g{i} = g{i + 1}; f{i + 1}(); }}")
    lines.append("int main() { f0(); f0(); return 0; }")
    return "\n".join(lines)


CYCLE = """
int ga; int gb; int gc; int depth;
void c(void);
void a(void) { ga = 1; if (depth) { b(); } }
void b(void) { gb = ga; c(); }
void c(void) { gc = 1; depth = depth - 1; a(); }
int main() { depth = 3; a(); return 0; }
"""

TABLE = """
int g0; int g1; int g2; int gh;
void helper(void) { gh = 1; }
void f0(void) { g0 = 1; }
void f1(void) { g1 = 1; helper(); }
void f2(void) { g2 = 1; }
void (*table[3])(void);
int main(int k) {
    void (*fp)(void);
    table[0] = f0;
    table[1] = f1;
    fp = table[k];
    fp();
    return 0;
}
"""

#: Diamonds stacked ten deep: 2**10 call paths reach the bottom.
DIAMONDS = "\n".join(
    ["int bottom;", "void d10(void) { bottom = 1; }"]
    + [
        f"void l{i}(void) {{ d{i + 1}(); }}\n"
        f"void r{i}(void) {{ d{i + 1}(); }}\n"
        f"void d{i}(void) {{ l{i}(); r{i}(); }}"
        for i in range(9, -1, -1)
    ]
    + ["int main() { d0(); return 0; }"]
)


@pytest.fixture(autouse=True)
def deep_stack():
    """The fixpoint recurses once per call-chain level (several frames
    each), which a 200-deep chain takes past the default limit; the
    read/write pass under test is iterative."""
    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, 10_000))
    yield
    sys.setrecursionlimit(old_limit)


def basic_stmts(analysis):
    return [
        (name, stmt)
        for name, fn in analysis.program.functions.items()
        for stmt in fn.iter_stmts()
        if isinstance(stmt, (BasicStmt, SReturn))
    ]


def is_call(stmt):
    return isinstance(stmt, BasicStmt) and stmt.kind is BasicKind.CALL


def visible(loc):
    return loc.is_visible_everywhere and not loc.is_null and not loc.is_function


def naive_visible_effects(analysis, fn_name):
    """Union of own visible effects over everything reachable from
    ``fn_name``, by an explicit worklist over resolved callees."""
    reachable = {fn_name}
    work = [fn_name]
    while work:
        fn = analysis.program.functions[work.pop()]
        for stmt in fn.iter_stmts():
            for callee in resolved_callees(analysis, stmt):
                if callee not in reachable:
                    reachable.add(callee)
                    work.append(callee)
    reads, writes = set(), set()
    for name in reachable:
        for stmt in analysis.program.functions[name].iter_stmts():
            if not isinstance(stmt, (BasicStmt, SReturn)):
                continue
            own = statement_read_write(analysis, name, stmt, callee_effects=False)
            if own is not None:
                reads |= {loc for loc in own.reads if visible(loc)}
                writes |= {loc for loc in own.may_write if visible(loc)}
    return reads, writes


def names(locs):
    return {str(loc) for loc in locs}


@pytest.fixture()
def own_evaluations(monkeypatch):
    """Counts callee-free evaluations, per statement id."""
    counts: dict[int, int] = {}
    original = readwrite.statement_read_write

    def counting(analysis, fn_name, stmt, callee_effects=True):
        if not callee_effects:
            counts[stmt.stmt_id] = counts.get(stmt.stmt_id, 0) + 1
        return original(analysis, fn_name, stmt, callee_effects)

    monkeypatch.setattr(readwrite, "statement_read_write", counting)
    return counts


@pytest.mark.parametrize(
    "source",
    [chain_source(CHAIN_LENGTH), CYCLE, TABLE, DIAMONDS],
    ids=["chain200", "cycle3", "fnptr_table", "diamonds"],
)
def test_each_statement_evaluated_once(source, own_evaluations):
    analysis = analyze_source(source)
    for name in sorted(analysis.program.functions):
        function_read_write(analysis, name)
    for name, stmt in basic_stmts(analysis):
        if is_call(stmt):
            readwrite.statement_read_write(analysis, name, stmt)
    assert own_evaluations == {
        stmt.stmt_id: 1 for _, stmt in basic_stmts(analysis)
    }


@pytest.mark.parametrize(
    "source",
    [chain_source(CHAIN_LENGTH), CYCLE, TABLE, DIAMONDS],
    ids=["chain200", "cycle3", "fnptr_table", "diamonds"],
)
def test_visible_effects_equal_naive_reachable_union(source):
    analysis = analyze_source(source)
    oracle = analyze_source(source)
    for name in sorted(analysis.program.functions):
        reads, writes = readwrite._visible_effects(analysis, name)
        assert (reads, writes) == naive_visible_effects(oracle, name), name


def test_chain_head_sees_the_whole_chain():
    analysis = analyze_source(chain_source(CHAIN_LENGTH))
    reads, writes = readwrite._visible_effects(analysis, "f0")
    assert names(writes) == {f"g{i}" for i in range(CHAIN_LENGTH)}
    assert names(reads) == {f"g{i}" for i in range(1, CHAIN_LENGTH)}
    reads, writes = readwrite._visible_effects(analysis, f"f{CHAIN_LENGTH - 1}")
    assert names(writes) == {f"g{CHAIN_LENGTH - 1}"}


def test_cycle_members_share_their_effects():
    analysis = analyze_source(CYCLE)
    effects = {name: readwrite._visible_effects(analysis, name) for name in "abc"}
    assert effects["a"] == effects["b"] == effects["c"]
    assert names(effects["a"][1]) >= {"ga", "gb", "gc", "depth"}


def test_table_dispatch_charges_only_installed_targets():
    analysis = analyze_source(TABLE)
    (call,) = [
        stmt
        for _, stmt in basic_stmts(analysis)
        if is_call(stmt) and stmt.callee is None
    ]
    assert resolved_callees(analysis, call) == ["f0", "f1"]
    sets = statement_read_write(analysis, "main", call)
    assert {"g0", "g1", "gh"} <= names(sets.may_write)
    assert "g2" not in names(sets.may_write)
