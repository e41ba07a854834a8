"""Fuzz gate: checkers never crash and never over-claim definiteness.

Two invariants over generator-produced programs:

1. **No crashes** — ``run_checkers`` completes on every program the
   analysis accepts, with and without provenance tracking.
2. **Definite means definite** — if the null-deref checker reports a
   *definite* (error-severity) dereference at some line, no concrete
   interpreter run may execute that line and still terminate normally.
   A completed run that passed through the claimed statement is a
   counterexample to the D classification.

The concrete check keys on source lines, which the interpreter's own
lowering of the program shares with the analyzed one.  Only executed
statements that actually dereference count: a loop condition shares
its line with an inline body, so a bare "line executed" signal would
blame statements the run never reached.

A small seed set runs in tier-1; the wide sweep rides the ``slow``
marker like the existing soundness campaign.
"""

import pytest

from repro.benchsuite.generator import GeneratorConfig, generate_program
from repro.checkers import run_checkers
from repro.core import perf
from repro.core.analysis import analyze_source
from repro.interp.machine import (
    ExecutionLimit,
    InterpreterError,
    NullDereference,
    run_source,
)
from repro.simple.ir import Ref


def _stmt_derefs(stmt):
    """True if executing this statement reads or writes through a pointer."""
    refs = []
    if stmt.lhs is not None:
        refs.append(stmt.lhs)
    if isinstance(stmt.rvalue, Ref):
        refs.append(stmt.rvalue)
    refs.extend(op for op in stmt.operands if isinstance(op, Ref))
    refs.extend(arg for arg in stmt.args if isinstance(arg, Ref))
    if stmt.callee_ptr is not None:
        return True
    return any(ref.deref for ref in refs)

TIER1_SEEDS = [3, 11, 17, 29, 42, 97]
SLOW_SEEDS = list(range(100, 160))

CONFIG = GeneratorConfig(
    n_functions=4,
    n_globals=3,
    n_locals=4,
    n_stmts=8,
)


def check_seed(seed, provenance):
    source = generate_program(seed, CONFIG)
    if provenance:
        with perf.configured(track_provenance=True):
            analysis = analyze_source(source)
    else:
        analysis = analyze_source(source)
    findings = run_checkers(analysis, source=source)
    for finding in findings:
        finding.as_dict()  # must be serializable without crashing
    _check_definite_null_derefs(source, findings)
    return findings


def _check_definite_null_derefs(source, findings):
    claimed = {
        f.line
        for f in findings
        if f.checker == "null-deref" and f.definite and f.line
    }
    if not claimed:
        return
    executed = set()

    def observer(stmt, interp):
        if stmt.loc.line and _stmt_derefs(stmt):
            executed.add(stmt.loc.line)

    try:
        run_source(source, max_steps=200_000, observer=observer)
    except NullDereference:
        return  # the claim held concretely
    except (ExecutionLimit, InterpreterError):
        return  # inconclusive run: cannot falsify
    falsified = claimed & executed
    assert not falsified, (
        f"definite null-deref at line(s) {sorted(falsified)} but a "
        f"concrete run executed them and terminated normally"
    )


@pytest.mark.parametrize("seed", TIER1_SEEDS)
def test_fuzz_gate_tier1(seed):
    check_seed(seed, provenance=False)


@pytest.mark.parametrize("seed", TIER1_SEEDS)
def test_fuzz_gate_tier1_provenance(seed):
    check_seed(seed, provenance=True)


@pytest.mark.slow
@pytest.mark.parametrize("seed", SLOW_SEEDS)
def test_fuzz_gate_sweep(seed):
    check_seed(seed, provenance=seed % 2 == 0)


@pytest.mark.slow
@pytest.mark.parametrize("seed", SLOW_SEEDS[:20])
def test_fuzz_gate_sweep_larger_programs(seed):
    source = generate_program(
        seed,
        GeneratorConfig(n_functions=6, n_globals=4, n_locals=5, n_stmts=12),
    )
    analysis = analyze_source(source)
    findings = run_checkers(analysis, source=source)
    _check_definite_null_derefs(source, findings)
