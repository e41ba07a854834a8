"""Function-pointer call handling (Section 5, Figure 5 of the paper).

An indirect call-site is bound to exactly the set of functions its
function pointer points to *at that program point* under the current
analysis — the invocation graph is completed while points-to analysis
runs.  Each invocable function is analyzed with the function pointer
*definitely* pointing to it (that is the state whenever execution
actually reaches that callee from this site), and the site's output is
the merge over all invocable functions.

The module also implements the two naive strategies the paper
evaluates against in the `livc` study: binding every indirect call to
*all* functions, or to all *address-taken* functions.
"""

from __future__ import annotations

from repro.core import provenance
from repro.core.env import FuncEnv
from repro.core.invocation_graph import IGNode
from repro.core.locations import AbsLoc, function_loc
from repro.core.pointsto import D, PointsToSet, merge_all
from repro.simple.ir import (
    AddrOf,
    BasicStmt,
    SimpleProgram,
)


def make_definite_points_to(
    input_set: PointsToSet, fp_loc: AbsLoc, fn_loc: AbsLoc
) -> PointsToSet:
    """``makeDefinitePointsTo`` of Figure 5: bind the function pointer
    definitely to one invocable function."""
    result = input_set.copy()
    result.kill_source(fp_loc)
    result.add(fp_loc, fn_loc, D)
    return result


def process_call_indirect(
    analyzer,
    node: IGNode,
    env: FuncEnv,
    stmt: BasicStmt,
    input_set: PointsToSet,
) -> PointsToSet | None:
    """Figure 5's ``process_call_indirect``."""
    from repro.core.interproc import process_call_node

    assert stmt.callee_ptr is not None
    fp_loc = env.var_loc(stmt.callee_ptr)
    strategy = analyzer.options.function_pointer_strategy

    if strategy == "precise":
        pointed = [
            target
            for target, _ in input_set.targets_of(fp_loc)
            if target.is_function
        ]
        unknown = [
            target
            for target, _ in input_set.targets_of(fp_loc)
            if not target.is_function and not target.is_null
        ]
        if unknown:
            analyzer.warn(
                f"indirect call through '{stmt.callee_ptr}' has "
                f"non-function targets {sorted(map(str, unknown))}; ignored"
            )
    elif strategy == "all_functions":
        pointed = [function_loc(name) for name in analyzer.program.functions]
    elif strategy == "address_taken":
        pointed = [
            function_loc(name) for name in analyzer.address_taken_functions()
        ]
    else:
        raise ValueError(f"unknown function-pointer strategy {strategy!r}")

    if not pointed:
        analyzer.warn(
            f"indirect call through '{stmt.callee_ptr}' has no known "
            f"function targets; treated as a no-op"
        )
        return input_set

    outputs: list[PointsToSet | None] = []
    prov = provenance.CURRENT
    for fn_target in sorted(pointed, key=lambda loc: loc.base):
        name = fn_target.base
        node_input = make_definite_points_to(input_set, fp_loc, fn_target)
        if prov.enabled:
            # ``makeDefinitePointsTo``: the binding that lets this
            # callee's analysis (and its unmapped side effects) exist.
            parent = prov.latest.get((fp_loc, fn_target))
            prov.record(
                fp_loc,
                fn_target,
                True,
                provenance.RULE_CALL_BIND,
                (parent,) if parent is not None else (),
                extra={
                    "indirect": True,
                    "fp": stmt.callee_ptr,
                    "callee": name,
                    "site": stmt.call_site,
                },
            )
        if name in analyzer.program.functions:
            child = analyzer.ig.attach_call(node, stmt.call_site, name)
            outputs.append(
                process_call_node(analyzer, env, child, stmt, node_input)
            )
        else:
            outputs.append(
                analyzer.handle_external_call(env, stmt, node_input, callee=name)
            )
    return merge_all(outputs)


def address_taken_functions(program: SimpleProgram) -> set[str]:
    """Functions whose address is taken anywhere in the program (the
    second naive strategy of Section 5)."""
    result: set[str] = set()

    def scan_operand(operand) -> None:
        if isinstance(operand, AddrOf):
            name = operand.ref.base
            if name in program.functions:
                result.add(name)

    def scan_stmt(stmt) -> None:
        if not isinstance(stmt, BasicStmt):
            return
        if stmt.rvalue is not None:
            scan_operand(stmt.rvalue)
        for operand in stmt.operands:
            scan_operand(operand)
        for arg in stmt.args:
            scan_operand(arg)

    for basic in program.global_init.stmts:
        scan_stmt(basic)
    for fn in program.functions.values():
        for stmt in fn.iter_stmts():
            scan_stmt(stmt)
    return result
