"""The derivation-witness layer (``repro.core.provenance``).

The load-bearing property: with ``perf.CONFIG.track_provenance`` on,
*every* points-to triple the analysis reports has a witness chain
that terminates at a source-level rule (an assignment, allocation,
NULL initialization, call binding, external-call model, or a map of
the call's own argument) — checked here over the tier-1 slice of the
soundness-fuzz corpus, so every generator idiom family (function
pointers, heap, structs, recursion, deep pointers, wide programs) is
exercised.  Plus focused unit tests of the recorder and the
Figure 5 acceptance example: a witness that crosses a map and an
unmap boundary and names the indirect-call binding it went through.
"""

from __future__ import annotations

import pytest

from repro.benchsuite import BENCHMARKS
from repro.benchsuite.generator import GeneratorConfig, generate_program
from repro.core import interproc, perf, provenance
from repro.core.analysis import analyze_source
from repro.core.locations import AbsLoc, LocKind
from repro.core.provenance import (
    CLASSIFICATION,
    SOURCE_RULES,
    NullProvenance,
    ProvenanceLog,
    chain_depth,
    first_weakening,
    witness,
)
from tests.interp.test_soundness_fuzz import CONFIGS

#: The Figure 5 acceptance program: an indirect call through ``fp``
#: (bound to two installers) writes ``&pa`` through a pointer formal,
#: so explaining ``p``'s points-to facts at ``L`` must cross a map
#: *and* an unmap boundary and name the indirect-call binding.
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


def analyze_with_provenance(source: str):
    with perf.configured(track_provenance=True):
        analysis = analyze_source(source)
    assert analysis.provenance is not None
    return analysis


def all_triples(analysis):
    for info in analysis.point_info.values():
        if info is None:
            continue
        yield from info.triples()


class TestWitnessTermination:
    """Every reported triple is justified by a complete witness."""

    @pytest.mark.parametrize("config_name", sorted(CONFIGS))
    def test_fuzz_triples_have_source_witnesses(self, config_name):
        source = generate_program(0, CONFIGS[config_name])
        analysis = analyze_with_provenance(source)
        log = analysis.provenance
        checked = 0
        for src, tgt, _ in all_triples(analysis):
            chain = witness(log, src, tgt)
            assert chain, f"no derivation recorded for ({src}, {tgt})"
            terminal = chain[-1][1]
            assert terminal.rule in SOURCE_RULES, (
                f"({src}, {tgt}) witness ends at non-source rule "
                f"{terminal.rule!r}: "
                f"{[record.rule for _, record in chain]}"
            )
            checked += 1
        assert checked > 0

    @pytest.mark.parametrize("config_name", sorted(CONFIGS))
    def test_parents_point_strictly_backwards(self, config_name):
        source = generate_program(0, CONFIGS[config_name])
        log = analyze_with_provenance(source).provenance
        for rid, record in enumerate(log.records):
            assert all(parent < rid for parent in record.parents)
        # Every record id referenced by ``latest`` exists.
        for key, rid in log.latest.items():
            record = log.records[rid]
            assert (record.src, record.tgt) == key

    def test_every_rule_is_classified(self):
        for rule in CLASSIFICATION:
            assert CLASSIFICATION[rule] in {"gen", "weaken", "transfer"}
        assert SOURCE_RULES <= set(CLASSIFICATION)


class TestFigure5Acceptance:
    """The issue's acceptance example, end to end."""

    def test_witness_crosses_map_and_unmap(self):
        analysis = analyze_with_provenance(FIG5)
        log = analysis.provenance
        p = AbsLoc("p", LocKind.LOCAL, "main")
        pa = AbsLoc("pa", LocKind.GLOBAL)
        chain = witness(log, p, pa)
        rules = [record.rule for _, record in chain]
        assert provenance.RULE_UNMAP_STRONG in rules
        assert provenance.RULE_MAP_FORMAL in rules
        assert chain[-1][1].rule in SOURCE_RULES
        # The unmap step names the indirect-call binding it crossed.
        unmap = next(
            record for _, record in chain
            if record.rule == provenance.RULE_UNMAP_STRONG
        )
        assert unmap.extra["indirect"] is True
        assert unmap.extra["fp"] == "fp"
        assert unmap.extra["callee"] in ("install", "install_b")
        # And the chain passes through the callee's name space.
        assert any(
            record.func in ("install", "install_b")
            for _, record in chain
        )

    def test_first_weakening_is_the_merge(self):
        log = analyze_with_provenance(FIG5).provenance
        pa = AbsLoc("pa", LocKind.GLOBAL)
        a = AbsLoc("a", LocKind.GLOBAL)
        weakening = first_weakening(log, pa, a)
        assert weakening is not None
        assert weakening[1].rule == provenance.RULE_MERGE_WEAKEN

    def test_symbolic_intro_recorded(self):
        log = analyze_with_provenance(FIG5).provenance
        intros = {intro["name"] for intro in log.symbolic_intros}
        assert "1_h" in intros
        intro = next(
            entry for entry in log.symbolic_intros
            if entry["name"] == "1_h"
        )
        assert intro["represents"] == "p"
        assert intro["via"] == "h"

    def test_class_counts_cover_all_records(self):
        log = analyze_with_provenance(FIG5).provenance
        counts = log.class_counts()
        assert counts["gen"] + counts["weaken"] + counts["transfer"] == len(
            log.records
        )
        assert counts["kill"] == log.kill_count > 0


class TestRecorder:
    """Unit behavior of the ProvenanceLog itself."""

    def test_record_dedups_identical_rederivations(self):
        log = ProvenanceLog()
        log.set_stmt(1, "f")
        first = log.record("x", "y", True, provenance.RULE_ASSIGN_GEN)
        again = log.record("x", "y", True, provenance.RULE_ASSIGN_GEN)
        assert first == again and len(log.records) == 1
        # A different statement is a new derivation.
        log.set_stmt(2, "f")
        other = log.record("x", "y", True, provenance.RULE_ASSIGN_GEN)
        assert other != first and len(log.records) == 2

    def test_record_weaken_chains_and_saturates(self):
        log = ProvenanceLog()
        log.set_stmt(1, "f")
        gen = log.record("x", "y", True, provenance.RULE_ASSIGN_GEN)
        weak = log.record_weaken("x", "y")
        assert log.records[weak].parents == (gen,)
        assert log.records[weak].definite is False
        # Weakening an already-possible pair is a no-op (the oldest
        # weakening is the answer ``why_possible`` wants).
        assert log.record_weaken("x", "y") == weak
        assert len(log.records) == 2

    def test_push_pop_call_restores_context(self):
        log = ProvenanceLog()
        log.set_stmt(7, "caller")
        log.push_call(3, "callee", indirect=True, fp="fp")
        assert log.path == ("callee@s3",)
        assert log.call_extra() == {
            "callee": "callee", "site": 3, "indirect": True, "fp": "fp"
        }
        log.set_stmt(9, "callee")
        log.pop_call()
        assert log.stmt_id == 7 and log.func == "caller"
        assert log.path == () and log.call_extra() is None

    def test_support_is_per_statement(self):
        log = ProvenanceLog()
        log.set_stmt(1, "f")
        rid = log.record("p", "x", True, provenance.RULE_ASSIGN_GEN)
        log.add_support("p", [("x", None)])
        assert log.support_parents("x") == (rid,)
        # Statement dispatch only moves stmt_id; stale support must be
        # dropped lazily.
        log.stmt_id = 2
        assert log.support_parents("x") == ()

    def test_chain_depth_matches_witness(self):
        log = analyze_with_provenance(FIG5).provenance
        for key in log.latest:
            assert chain_depth(log, key) == len(witness(log, *key))

    def test_null_provenance_surface(self):
        null = NullProvenance()
        assert null.enabled is False
        assert null.record("x", "y", True, "r") == -1
        assert null.record_gen("x", "y", True) == -1
        assert null.record_weaken("x", "y") == -1
        assert null.support_parents("x") == ()
        assert null.call_extra() is None
        assert null.class_counts() == {
            "gen": 0, "kill": 0, "weaken": 0, "transfer": 0
        }
        null.set_stmt(1, "f")
        null.push_call(1, "g")
        null.pop_call()
        null.record_kill("x", 3)
        null.record_symbolic("s", "r", "v")
        null.add_support("x", [])
        null.add_resolved_support([])
        null.restore_caller_stmt()

    def test_off_by_default_and_no_log_attached(self):
        assert perf.CONFIG.track_provenance is False
        analysis = analyze_source(FIG5)
        assert analysis.provenance is None
        assert provenance.CURRENT is provenance.NULL_PROVENANCE


class TestSliceMemoUnderProvenance:
    """While recording, the slice memo serves only the unrecorded
    re-processing of calls seen before, and its hits merge into the
    point sets before recording resumes: the log is the one a run
    without the memo writes, record for record."""

    PROGRAMS = {
        # A deferred hit merged at the end of the run wrote one more
        # weakening record here (173 instead of 172).
        "gen_f4_s2": generate_program(
            2, GeneratorConfig(n_functions=4, n_stmts=10)
        ),
        "mway": BENCHMARKS["mway"].source,
        "travel": BENCHMARKS["travel"].source,
    }

    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_log_matches_a_run_without_the_slice_memo(
        self, name, monkeypatch
    ):
        source = self.PROGRAMS[name]
        shared = analyze_with_provenance(source)
        assert shared.stats.slice_hits > 0
        monkeypatch.setattr(interproc, "_slice_context", lambda *args: None)
        unshared = analyze_with_provenance(source)
        assert unshared.stats.slice_hits == 0
        assert shared.provenance.records == unshared.provenance.records
