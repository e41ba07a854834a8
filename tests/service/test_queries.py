"""The demand-query engine, fresh and cached.

The suite-wide classes at the bottom assert the PR's core guarantee:
every query answered from a cached (decoded) result is identical to
the same query answered from a freshly computed analysis.
"""

import pytest

from repro.benchsuite import BENCHMARKS
from repro.core.analysis import analyze_source
from repro.core.locations import LocKind
from repro.service.commands import SessionCache, handle_request
from repro.service.queries import QueryError, QuerySession, parse_query
from repro.service.serialize import decode_analysis, encode_analysis
from repro.service.store import ResultStore

SAMPLE = """
int g;
void set(int **q) { *q = &g; }
int main() {
    int *p;
    int **pp;
    int x;
    set(&p);
    pp = &p;
    if (x) { A: p = &x; }
    B: return 0;
}
"""

FUNCPTR = """
int add(int a, int b) { return a + b; }
int sub(int a, int b) { return a - b; }
int main() {
    int (*op)(int, int);
    int which;
    if (which) { op = add; } else { op = sub; }
    C: return op(1, 2);
}
"""


def sessions_for(source):
    analysis = analyze_source(source)
    decoded = decode_analysis(encode_analysis(analysis, source=source))
    return QuerySession(analysis), QuerySession(decoded)


class TestParse:
    def test_points_to(self):
        query = parse_query("points_to:**p@HERE")
        assert query.kind == "points_to"
        assert query.args == ("**p",)
        assert query.label == "HERE"

    def test_may_alias(self):
        query = parse_query("may_alias:*p, q @ B")
        assert query.args == ("*p", "q") and query.label == "B"

    def test_bare_kinds(self):
        for text in ("labels", "call_sites", "warnings", "graph", "summary"):
            assert parse_query(text).kind == text

    @pytest.mark.parametrize(
        "bad",
        [
            "points_to:p",  # no label
            "may_alias:p@B",  # one expression
            "nonsense:x",
            "points_to:",
            "",
        ],
    )
    def test_malformed(self, bad):
        with pytest.raises(QueryError):
            parse_query(bad)


class TestPointsTo:
    def test_direct_target(self):
        fresh, cached = sessions_for(SAMPLE)
        assert fresh.points_to("p", "B") == [("g", "P"), ("x", "P")]
        assert fresh.points_to("p", "B") == cached.points_to("p", "B")

    def test_deref_chain(self):
        fresh, cached = sessions_for(SAMPLE)
        # pp -> p, so *pp has p's targets.
        assert fresh.points_to("*pp", "B") == fresh.points_to("p", "B")
        assert cached.points_to("*pp", "B") == fresh.points_to("p", "B")

    def test_definite_at_branch_entry(self):
        # A labels the input of ``p = &x``: the call left p -> g on
        # every path, so the relationship is still definite there.
        fresh, _ = sessions_for(SAMPLE)
        assert fresh.points_to("p", "A") == [("g", "D")]

    def test_explicit_scope(self):
        fresh, cached = sessions_for(SAMPLE)
        assert fresh.points_to("main::p", "B") == fresh.points_to("p", "B")
        assert cached.points_to("main::p", "B") == cached.points_to("p", "B")

    def test_function_pointer_targets(self):
        fresh, cached = sessions_for(FUNCPTR)
        targets = [t for t, _ in fresh.points_to("op", "C", skip_null=True)]
        assert targets == ["add", "sub"]
        assert fresh.points_to("op", "C") == cached.points_to("op", "C")

    def test_unknown_label_and_var(self):
        fresh, cached = sessions_for(SAMPLE)
        for session in (fresh, cached):
            with pytest.raises(QueryError, match="unknown label"):
                session.points_to("p", "NOPE")
            with pytest.raises(QueryError, match="unknown variable"):
                session.points_to("zz", "B")


class TestMayAlias:
    def test_deref_aliases_target(self):
        fresh, cached = sessions_for(SAMPLE)
        assert fresh.may_alias("*pp", "p", "B") is True
        assert cached.may_alias("*pp", "p", "B") is True

    def test_unrelated_not_aliased(self):
        fresh, cached = sessions_for(SAMPLE)
        assert fresh.may_alias("*p", "pp", "B") is False
        assert cached.may_alias("*p", "pp", "B") is False


class TestGraphQueries:
    def test_callees_at_indirect_site(self):
        fresh, cached = sessions_for(FUNCPTR)
        sites = fresh.call_sites()
        assert sites == cached.call_sites()
        (site, callees), = sites.items()
        assert callees == ["add", "sub"]
        assert fresh.callees_at(site) == ["add", "sub"]
        assert cached.callees_at(site) == ["add", "sub"]

    def test_callers_of(self):
        fresh, cached = sessions_for(SAMPLE)
        assert fresh.callers_of("set") == ["main"]
        assert cached.callers_of("set") == ["main"]
        assert fresh.callers_of("main") == []

    def test_read_write(self):
        fresh, cached = sessions_for(SAMPLE)
        live = fresh.read_write("set")
        assert live == cached.read_write("set")
        assert "1_q" in live["may_write"]
        for session in (fresh, cached):
            with pytest.raises(QueryError, match="unknown function"):
                session.read_write("nope")


class TestEvaluate:
    def test_textual_queries_match_api(self):
        fresh, cached = sessions_for(SAMPLE)
        for session in (fresh, cached):
            assert session.evaluate("points_to:p@B") == session.points_to(
                "p", "B"
            )
            assert session.evaluate("may_alias:*pp,p@B") is True
            assert session.evaluate("callers_of:set") == ["main"]
            assert session.evaluate("labels") == session.list_labels()
            assert isinstance(session.evaluate("graph"), str)
            assert session.evaluate("warnings") == []

    def test_counters_accumulate(self):
        fresh, _ = sessions_for(SAMPLE)
        fresh.evaluate("points_to:p@B")
        fresh.evaluate("points_to:pp@B")
        fresh.evaluate("may_alias:*pp,p@B")
        assert fresh.stats.counts == {"points_to": 2, "may_alias": 1}
        assert fresh.stats.total == 3

    def test_summary_reports_cache_state(self):
        fresh, cached = sessions_for(SAMPLE)
        assert fresh.summary()["cached"] is False
        assert cached.summary()["cached"] is True

    def test_removed_sharing_option_is_a_bad_option(self, tmp_path):
        # Sub-tree sharing is the slice memo's default behaviour; the
        # option that selected a second cache no longer exists.
        response = handle_request(
            {
                "source": SAMPLE,
                "query": "labels",
                "options": {"share_subtrees": True},
            },
            ResultStore(tmp_path / "store"),
            SessionCache(),
        )
        assert response["ok"] is False
        assert response["error"].startswith("bad options: ")
        assert "share_subtrees" in response["error"]


class TestStableStatementIds:
    def test_labels_agree_on_miss_hit_and_reparse(self, tmp_path):
        request = {"source": BENCHMARKS["stanford"].source, "query": "labels"}
        store = ResultStore(tmp_path / "store")
        miss = handle_request(request, store, SessionCache())
        hit = handle_request(request, store, SessionCache())
        reparse = handle_request(
            request, ResultStore(tmp_path / "other"), SessionCache()
        )
        assert [miss["cached"], hit["cached"], reparse["cached"]] == [
            False, True, False,
        ]
        assert set(miss["result"]) == {"P1", "P2"}
        assert miss["result"] == hit["result"] == reparse["result"]


def _named_vars_at(analysis, label):
    """Plain variable names occurring at a label (bounded sample)."""
    func, _ = (
        analysis.program.labels[label]
        if analysis.program is not None
        else analysis.labels[label]
    )
    names = set()
    for loc in analysis.at_label(label).locations():
        if loc.path or loc.is_null:
            continue
        if loc.kind in (LocKind.LOCAL, LocKind.PARAM) and loc.func == func:
            names.add(loc.base)
        elif loc.kind is LocKind.GLOBAL:
            names.add(loc.base)
    return sorted(names)[:8]


class TestCachedEqualsFreshOverSuite:
    """The acceptance criterion: cached answers == fresh answers,
    for every benchmark in the paper's suite."""

    @pytest.mark.parametrize("name", sorted(BENCHMARKS))
    def test_suite_program(self, name):
        source = BENCHMARKS[name].source
        analysis = analyze_source(source, filename=name)
        decoded = decode_analysis(
            encode_analysis(analysis, name=name, source=source)
        )
        fresh, cached = QuerySession(analysis), QuerySession(decoded)

        assert set(fresh.labels) == set(cached.labels)
        for label in sorted(fresh.labels):
            assert analysis.triples_at(label) == decoded.triples_at(label)
            variables = _named_vars_at(analysis, label)
            for var in variables:
                assert fresh.points_to(var, label) == cached.points_to(
                    var, label
                ), (name, label, var)
            for x in variables[:3]:
                for y in variables[:3]:
                    assert fresh.may_alias(f"*{x}", y, label) == (
                        cached.may_alias(f"*{x}", y, label)
                    ), (name, label, x, y)

        assert fresh.call_sites() == cached.call_sites()
        for site in fresh.call_sites():
            assert fresh.callees_at(site) == cached.callees_at(site)
        for func in sorted(analysis.program.functions):
            assert fresh.callers_of(func) == cached.callers_of(func)
            assert fresh.read_write(func) == cached.read_write(func), (
                name,
                func,
            )
        assert fresh.analysis.warnings == cached.analysis.warnings
        assert analysis.ig.render() == decoded.ig.render()
