"""Intraprocedural flow rules (Figure 1 of the paper).

The analysis is *compositional*: each structured statement maps an
input points-to set to an output set; loops run a fixed-point
iteration (``process_while`` in Figure 1).  We extend the published
rules (as the paper's complete rules in Emami's thesis do) with
``break``/``continue``/``return`` by threading a :class:`FlowOut`
record carrying the pending jump sets alongside the normal fall-through
set.  ``None`` plays the role of the paper's *Bottom* (unreachable /
not yet computed — returned by approximate invocation-graph nodes).

Every pass walks the whole body; nothing below a call is memoized.
The memoized unit is the call (:mod:`repro.core.interproc`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import obs
from repro.frontend.ctypes import CType, PointerType, StructType, decay
from repro.core import provenance
from repro.core.env import FuncEnv
from repro.core.locations import AbsLoc, HEAD, TAIL, NULL
from repro.core.lvalues import LocSet, l_locations, r_locations, r_locations_ref
from repro.core.pointsto import D, P, PointsToSet, merge_all
from repro.simple.ir import (
    ADDR_KIND,
    ALLOC_KIND,
    BINOP_KIND,
    CALL_KIND,
    CONST_KIND,
    COPY_KIND,
    NOP_KIND,
    UNOP_KIND,
    AddrOf,
    BasicStmt,
    Const,
    Ref,
    SBlock,
    SBreak,
    SContinue,
    SDoWhile,
    SFor,
    SIf,
    SReturn,
    SSwitch,
    SWhile,
    Stmt,
)

#: Safety valve for pathological loop fixed points.
MAX_LOOP_ITERATIONS = 200


@dataclass
class FlowOut:
    """Result of flowing a points-to set through a statement."""

    out: PointsToSet | None
    breaks: list[PointsToSet] = field(default_factory=list)
    continues: list[PointsToSet] = field(default_factory=list)
    returns: PointsToSet | None = None

    def merge_jumps_from(self, other: "FlowOut") -> None:
        self.breaks.extend(other.breaks)
        self.continues.extend(other.continues)
        self.returns = merge_all([self.returns, other.returns])


def apply_assignment(
    pts: PointsToSet, llocs: LocSet, rlocs: LocSet
) -> PointsToSet:
    """The core rule of ``process_basic_stmt`` (Figure 1): kill the
    relationships of definite L-locations, weaken those of possible
    L-locations, and generate L x R relationships.

    Strong updates (kills) are refused for locations that represent
    several real locations (array tails, heap), and generated
    relationships touching such locations are at most possible — this
    is what Definition 3.3 requires for safety.
    """
    out = pts.copy()
    for loc, definiteness in llocs:
        if loc.is_null or loc.is_function:
            continue
        if definiteness is D and not loc.represents_multiple():
            out.kill_source(loc)
        else:
            out.weaken_source(loc)
    prov = provenance.CURRENT
    for loc, d1 in llocs:
        if loc.is_null or loc.is_function:
            continue
        for target, d2 in rlocs:
            definiteness = d1.both(d2)
            if loc.represents_multiple() or target.represents_multiple():
                definiteness = P
            out.add(loc, target, definiteness)
            if prov.enabled:
                prov.record_gen(loc, target, definiteness is D)
    return out


class IntraAnalyzer:
    """Flows points-to sets through one function body.

    ``call_handler(stmt, input_set)`` is supplied by the
    interprocedural driver; it returns the output set of a call
    statement (or None when an approximate node defers the call).
    """

    def __init__(self, env: FuncEnv, call_handler, recorder=None):
        self.env = env
        self.call_handler = call_handler
        self.recorder = recorder

    # -- dispatch --------------------------------------------------------

    def process_stmt(self, stmt: Stmt, input_set: PointsToSet | None) -> FlowOut:
        if input_set is None:
            return FlowOut(None)
        return self._dispatch(stmt, input_set)

    def process_root(
        self, stmt: Stmt, input_set: PointsToSet | None
    ) -> FlowOut:
        """Process a function body's root statement, counted as one
        ``analysis.body_passes``."""
        if input_set is None:
            return FlowOut(None)
        obs.count("analysis.body_passes")
        return self._dispatch(stmt, input_set)

    def _dispatch(self, stmt: Stmt, input_set: PointsToSet) -> FlowOut:
        if not isinstance(stmt, (SBlock, SBreak, SContinue)):
            prov = provenance.CURRENT
            if prov.enabled:
                # Open-coded statement context switch: this runs for
                # every statement.  Support is NOT reset here — stale
                # entries are detected by support_stmt and dropped
                # lazily in add_support.
                fn = self.env.fn
                prov.stmt_id = stmt.stmt_id
                prov.func = fn.name if fn is not None else None
            if self.recorder is not None:
                self.recorder(stmt, input_set)
        if isinstance(stmt, BasicStmt):
            return FlowOut(self.process_basic(stmt, input_set))
        if isinstance(stmt, SBreak):
            return FlowOut(None, breaks=[input_set])
        if isinstance(stmt, SContinue):
            return FlowOut(None, continues=[input_set])
        if isinstance(stmt, SReturn):
            return self.process_return(stmt, input_set)
        # One evaluation of a compound statement.
        obs.count("analysis.worklist_visits")
        if isinstance(stmt, SBlock):
            return self.process_block(stmt, input_set)
        if isinstance(stmt, SIf):
            return self.process_if(stmt, input_set)
        if isinstance(stmt, SWhile):
            return self.process_while(stmt, input_set)
        if isinstance(stmt, SDoWhile):
            return self.process_do_while(stmt, input_set)
        if isinstance(stmt, SFor):
            return self.process_for(stmt, input_set)
        if isinstance(stmt, SSwitch):
            return self.process_switch(stmt, input_set)
        raise TypeError(f"unknown SIMPLE statement {type(stmt).__name__}")

    # -- basic statements ------------------------------------------------

    def process_basic(
        self, stmt: BasicStmt, input_set: PointsToSet
    ) -> PointsToSet | None:
        kind = stmt.kind
        if kind is NOP_KIND:
            return input_set
        if kind is CALL_KIND or kind is ALLOC_KIND:
            return self.call_handler(stmt, input_set)

        if stmt.lhs_type is None or not stmt.lhs_type.involves_pointers():
            return input_set

        lhs_type = stmt.lhs_type
        if kind is COPY_KIND and self._is_aggregate(lhs_type):
            assert isinstance(stmt.rvalue, Ref)
            return self.process_aggregate_copy(
                stmt.lhs, stmt.rvalue, lhs_type, input_set
            )

        llocs = l_locations(stmt.lhs, input_set, self.env)
        rlocs = self.basic_rlocs(stmt, input_set)
        return apply_assignment(input_set, llocs, rlocs)

    def _is_aggregate(self, ctype: CType) -> bool:
        return isinstance(ctype, StructType)

    def basic_rlocs(self, stmt: BasicStmt, input_set: PointsToSet) -> LocSet:
        kind = stmt.kind
        if kind is COPY_KIND or kind is ADDR_KIND or kind is CONST_KIND:
            assert stmt.rvalue is not None
            return r_locations(stmt.rvalue, input_set, self.env)
        if kind is UNOP_KIND:
            operand = stmt.operands[0]
            return r_locations(operand, input_set, self.env)
        if kind is BINOP_KIND:
            return self.pointer_arith_rlocs(stmt, input_set)
        return []

    def pointer_arith_rlocs(
        self, stmt: BasicStmt, input_set: PointsToSet
    ) -> LocSet:
        """Pointer arithmetic: the result points into the same object
        as the pointer operand(s); array-part targets are smeared over
        ``{head, tail}`` (the paper's stay-within-the-array setting)."""
        result: LocSet = []
        for operand in stmt.operands:
            if isinstance(operand, Const):
                continue
            if isinstance(operand, AddrOf):
                locs = r_locations(operand, input_set, self.env)
            elif isinstance(operand, Ref):
                optype = self._operand_type(operand)
                if optype is None or not isinstance(decay(optype), PointerType):
                    continue
                locs = r_locations_ref(operand, input_set, self.env)
            else:
                continue
            for loc, definiteness in locs:
                result.extend(self._smear(loc, definiteness))
        return result

    def _operand_type(self, ref: Ref):
        from repro.core.lvalues import ref_static_type

        try:
            return ref_static_type(ref, self.env)
        except KeyError:
            return None

    @staticmethod
    def _smear(loc: AbsLoc, definiteness) -> LocSet:
        if loc.is_null:
            # NULL +- k is not a tracked pointer value.
            return []
        if loc.path and loc.path[-1] in (HEAD, TAIL):
            return [
                (loc.replace_last_part(HEAD), P),
                (loc.replace_last_part(TAIL), P),
            ]
        return [(loc, definiteness)]

    def process_aggregate_copy(
        self,
        lhs: Ref,
        rhs: Ref,
        ctype: StructType,
        input_set: PointsToSet,
    ) -> PointsToSet:
        """Structure assignment, decomposed field-wise (Section 3.3)."""
        lhs_objects = l_locations(lhs, input_set, self.env)
        rhs_objects = l_locations(rhs, input_set, self.env)
        out = input_set
        prov = provenance.CURRENT
        for path in self.env.pointer_paths(ctype):
            llocs = [(loc.extend(path), d) for loc, d in lhs_objects]
            rlocs: LocSet = []
            for loc, d1 in rhs_objects:
                src = loc.extend(path)
                targets = input_set.targets_of(src)
                if prov.enabled:
                    prov.add_support(src, targets)
                for target, d2 in targets:
                    rlocs.append((target, d1.both(d2)))
            out = apply_assignment(out, llocs, rlocs)
        return out

    # -- return --------------------------------------------------------------

    def process_return(self, stmt: SReturn, input_set: PointsToSet) -> FlowOut:
        out = input_set
        fn = self.env.fn
        if (
            stmt.value is not None
            and fn is not None
            and fn.return_type.involves_pointers()
        ):
            retval = self.env.retval()
            return_type = fn.return_type
            if isinstance(return_type, StructType) and isinstance(
                stmt.value, Ref
            ):
                objects = l_locations(stmt.value, input_set, self.env)
                prov = provenance.CURRENT
                for path in self.env.pointer_paths(return_type):
                    rlocs: LocSet = []
                    for loc, d1 in objects:
                        src = loc.extend(path)
                        targets = input_set.targets_of(src)
                        if prov.enabled:
                            prov.add_support(src, targets)
                        for target, d2 in targets:
                            rlocs.append((target, d1.both(d2)))
                    out = apply_assignment(out, [(retval.extend(path), D)], rlocs)
            else:
                rlocs = r_locations(stmt.value, input_set, self.env)
                out = apply_assignment(out, [(retval, D)], rlocs)
        return FlowOut(None, returns=out)

    # -- structured statements ----------------------------------------------

    def process_block(self, block: SBlock, input_set: PointsToSet) -> FlowOut:
        result = FlowOut(input_set)
        current: PointsToSet | None = input_set
        for stmt in block.stmts:
            step = self.process_stmt(stmt, current)
            result.merge_jumps_from(step)
            current = step.out
        result.out = current
        return result

    def process_if(self, stmt: SIf, input_set: PointsToSet) -> FlowOut:
        result = FlowOut(None)
        then_out = self.process_stmt(stmt.then_block, input_set)
        result.merge_jumps_from(then_out)
        if stmt.else_block is not None:
            else_out = self.process_stmt(stmt.else_block, input_set)
            result.merge_jumps_from(else_out)
            else_set = else_out.out
        else:
            else_set = input_set
        result.out = merge_all([then_out.out, else_set])
        return result

    def _loop_fixpoint(self, stmt, input_set: PointsToSet, order: str) -> FlowOut:
        """Shared fixed-point driver for while / do-while / for.

        ``order`` selects the evaluation order of one iteration and the
        continue target; the back edge always merges into the loop
        input until stabilization (Figure 1's ``process_while``).
        """
        result = FlowOut(None)
        current: PointsToSet | None = input_set
        exits: list[PointsToSet] = []
        iterations = 0
        while True:
            iterations += 1
            if iterations > MAX_LOOP_ITERATIONS:
                raise RuntimeError(
                    "loop fixed point failed to converge; this indicates "
                    "an analysis bug (the abstract domain is finite)"
                )
            exits = []
            body_flow, back = self._loop_once(stmt, current, order, exits, result)
            new_current = merge_all([current, back])
            if _sets_equal(new_current, current):
                break
            current = new_current
        result.out = merge_all(exits) if exits else None
        result.breaks = []
        result.continues = []
        return result

    def _loop_once(self, stmt, current, order, exits, result):
        """One abstract iteration; returns (body FlowOut, back-edge set).

        Side effects: appends loop-exit sets to ``exits`` and
        accumulates return sets into ``result``.
        """
        if order == "while":
            eval_flow = self.process_stmt(stmt.cond_eval, current)
            result.returns = merge_all([result.returns, eval_flow.returns])
            after_eval = eval_flow.out
            if stmt.cond is not None and after_eval is not None:
                exits.append(after_eval)
            body_flow = self.process_stmt(stmt.body, after_eval)
            result.returns = merge_all([result.returns, body_flow.returns])
            exits.extend(body_flow.breaks)
            back = merge_all([body_flow.out] + body_flow.continues)
            return body_flow, back

        if order == "dowhile":
            body_flow = self.process_stmt(stmt.body, current)
            result.returns = merge_all([result.returns, body_flow.returns])
            exits.extend(body_flow.breaks)
            cont_in = merge_all([body_flow.out] + body_flow.continues)
            eval_flow = self.process_stmt(stmt.cond_eval, cont_in)
            result.returns = merge_all([result.returns, eval_flow.returns])
            if stmt.cond is not None and eval_flow.out is not None:
                exits.append(eval_flow.out)
            back = eval_flow.out
            return body_flow, back

        assert order == "for"
        eval_flow = self.process_stmt(stmt.cond_eval, current)
        result.returns = merge_all([result.returns, eval_flow.returns])
        after_eval = eval_flow.out
        if stmt.cond is not None and after_eval is not None:
            exits.append(after_eval)
        body_flow = self.process_stmt(stmt.body, after_eval)
        result.returns = merge_all([result.returns, body_flow.returns])
        exits.extend(body_flow.breaks)
        step_in = merge_all([body_flow.out] + body_flow.continues)
        step_flow = self.process_stmt(stmt.step, step_in)
        result.returns = merge_all([result.returns, step_flow.returns])
        back = step_flow.out
        return body_flow, back

    def process_while(self, stmt: SWhile, input_set: PointsToSet) -> FlowOut:
        return self._loop_fixpoint(stmt, input_set, "while")

    def process_do_while(self, stmt: SDoWhile, input_set: PointsToSet) -> FlowOut:
        return self._loop_fixpoint(stmt, input_set, "dowhile")

    def process_for(self, stmt: SFor, input_set: PointsToSet) -> FlowOut:
        init_flow = self.process_stmt(stmt.init, input_set)
        result = self._loop_fixpoint(stmt, init_flow.out, "for")
        result.returns = merge_all([init_flow.returns, result.returns])
        return result

    def process_switch(self, stmt: SSwitch, input_set: PointsToSet) -> FlowOut:
        result = FlowOut(None)
        exits: list[PointsToSet] = []
        fall_through: PointsToSet | None = None
        for case in stmt.cases:
            arm_in = merge_all([input_set, fall_through])
            arm_flow = self.process_stmt(case.body, arm_in)
            result.continues.extend(arm_flow.continues)
            result.returns = merge_all([result.returns, arm_flow.returns])
            exits.extend(arm_flow.breaks)
            if case.falls_through:
                fall_through = arm_flow.out
            else:
                if arm_flow.out is not None:
                    exits.append(arm_flow.out)
                fall_through = None
        if fall_through is not None:
            exits.append(fall_through)  # last arm falls off the switch
        if not stmt.has_default:
            exits.append(input_set)  # no case may match
        result.out = merge_all(exits)
        return result


def _sets_equal(a: PointsToSet | None, b: PointsToSet | None) -> bool:
    if a is b:
        return True
    if a is None or b is None:
        return a is None and b is None
    return a == b


def null_initialized(env: FuncEnv, names_and_types) -> PointsToSet:
    """Pairs initializing every pointer path of the given variables to
    NULL (the paper initializes all pointers to NULL)."""
    result = PointsToSet()
    prov = provenance.CURRENT
    for name, ctype in names_and_types:
        if not ctype.involves_pointers():
            continue
        base = env.var_loc(name)
        for path in env.pointer_paths(ctype):
            loc = base.extend(path)
            definiteness = P if loc.represents_multiple() else D
            result.add(loc, NULL, definiteness)
            if prov.enabled:
                prov.record_init(loc, NULL, definiteness is D, env.func)
    return result
