"""Interprocedural constant propagation over the points-to results.

Section 6.1's claim: once points-to analysis has run, "the complete
invocation graph and mapping information provides a convenient basis
for implementing other interprocedural analyses such as generalized
constant propagation".  This module is that client:

* indirect assignments and loads are resolved with the per-point
  points-to information (a store through a definite pointer is a
  strong constant update; through a possible pointer it only weakens);
* the interprocedural walk follows the *same invocation graph*: calls
  map actual values onto formals, keep globals, and memoize per node;
* on return, caller facts survive exactly for locations the callee
  provably could not write — address-exposed locations (anything that
  is the target of some pointer, per the points-to results) are
  conservatively invalidated, globals are re-imported from the callee.

The lattice per location is flat: unknown (absent) / a known constant.
Merging keeps a constant only when both branches agree.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.analysis import PointsToAnalysis
from repro.core.env import FuncEnv
from repro.core.locations import AbsLoc, LocKind
from repro.core.lvalues import l_locations
from repro.core.pointsto import D
from repro.simple.ir import (
    AddrOf,
    BasicKind,
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


class ConstEnv:
    """Known-constant values per abstract location (flat lattice)."""

    __slots__ = ("_values",)

    def __init__(self) -> None:
        self._values: dict[AbsLoc, object] = {}

    def copy(self) -> "ConstEnv":
        out = ConstEnv()
        out._values = dict(self._values)
        return out

    def get(self, loc: AbsLoc):
        return self._values.get(loc)

    def set(self, loc: AbsLoc, value) -> None:
        if value is None:
            self._values.pop(loc, None)
        else:
            self._values[loc] = value

    def forget(self, loc: AbsLoc) -> None:
        self._values.pop(loc, None)

    def forget_root(self, root: AbsLoc) -> None:
        for loc in [l for l in self._values if l.root() == root]:
            del self._values[loc]

    def items(self):
        return self._values.items()

    def merge(self, other: "ConstEnv") -> "ConstEnv":
        out = ConstEnv()
        for loc, value in self._values.items():
            if other._values.get(loc) == value:
                out._values[loc] = value
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, ConstEnv):
            return NotImplemented
        return self._values == other._values

    def __hash__(self):
        raise TypeError("ConstEnv is unhashable")

    def __len__(self) -> int:
        return len(self._values)

    def __str__(self) -> str:
        items = sorted(f"{k}={v}" for k, v in self._values.items())
        return "{" + ", ".join(items) + "}"


def _merge_envs(items) -> "ConstEnv | None":
    result = None
    for item in items:
        if item is None:
            continue
        result = item if result is None else result.merge(item)
    return result


_FOLDABLE = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "==": lambda a, b: int(a == b),
    "!=": lambda a, b: int(a != b),
    "<": lambda a, b: int(a < b),
    ">": lambda a, b: int(a > b),
    "<=": lambda a, b: int(a <= b),
    ">=": lambda a, b: int(a >= b),
    "&": lambda a, b: int(a) & int(b),
    "|": lambda a, b: int(a) | int(b),
    "^": lambda a, b: int(a) ^ int(b),
}


@dataclass
class _Flow:
    out: "ConstEnv | None"
    breaks: list = field(default_factory=list)
    continues: list = field(default_factory=list)
    returns: "ConstEnv | None" = None
    ret_value: object = None
    ret_known: bool = True  # all returns agreed on a constant so far


class ConstantPropagation:
    """Runs constant propagation over a finished points-to analysis."""

    MAX_ITERATIONS = 100

    def __init__(self, analysis: PointsToAnalysis):
        self.analysis = analysis
        self.program = analysis.program
        #: stmt_id -> merged ConstEnv before the statement.
        self.point_info: dict[int, ConstEnv] = {}
        #: (function, canonical formal values) -> (globals-out, retval)
        self._memo: dict = {}
        self._exposed = self._address_exposed_locations()
        self._active: set[str] = set()
        #: Callees whose call was cut off (recursion or the depth
        #: limit); ``run`` flows each body once from an unknown entry.
        self._cut_off: list[str] = []

    # -- prep ------------------------------------------------------------

    def _address_exposed_locations(self) -> set[AbsLoc]:
        """Roots that are the target of any points-to pair anywhere:
        a callee may write these through a pointer."""
        exposed: set[AbsLoc] = set()
        for info in self.analysis.point_info.values():
            for _src, tgt, _d in info.triples():
                if not tgt.is_null:
                    exposed.add(tgt.root())
        return exposed

    # -- per-statement values ------------------------------------------------

    def _ref_value(self, ref: Ref, env: ConstEnv, fenv: FuncEnv, stmt):
        pts = self.analysis.at_stmt(stmt.stmt_id)
        if pts is None:
            return None
        locs = l_locations(ref, pts, fenv)
        if not locs:
            return None
        value = None
        for loc, _d in locs:
            loc_value = env.get(loc)
            if loc_value is None:
                return None
            if value is None:
                value = loc_value
            elif value != loc_value:
                return None
        return value

    def _operand_value(self, operand, env: ConstEnv, fenv: FuncEnv, stmt):
        if isinstance(operand, Const):
            if isinstance(operand.value, (int, float)):
                return operand.value
            return None
        if isinstance(operand, AddrOf):
            return None
        assert isinstance(operand, Ref)
        return self._ref_value(operand, env, fenv, stmt)

    def _assign(self, stmt: BasicStmt, env: ConstEnv, fenv: FuncEnv, value):
        pts = self.analysis.at_stmt(stmt.stmt_id)
        if pts is None:
            return env
        out = env.copy()
        locs = l_locations(stmt.lhs, pts, fenv)
        strong = (
            len(locs) == 1
            and locs[0][1] is D
            and not locs[0][0].represents_multiple()
        )
        if strong:
            out.set(locs[0][0], value)
        else:
            for loc, _d in locs:
                out.forget(loc)
        return out

    # -- statement flow -----------------------------------------------------

    def _record(self, stmt: Stmt, env: ConstEnv) -> None:
        existing = self.point_info.get(stmt.stmt_id)
        if existing is None:
            self.point_info[stmt.stmt_id] = env.copy()
        else:
            self.point_info[stmt.stmt_id] = existing.merge(env)

    def _process(self, stmt: Stmt, env, fenv: FuncEnv) -> _Flow:
        if env is None:
            return _Flow(None)
        if not isinstance(stmt, (SBlock, SBreak, SContinue)):
            self._record(stmt, env)
        if isinstance(stmt, BasicStmt):
            return _Flow(self._process_basic(stmt, env, fenv))
        if isinstance(stmt, SBlock):
            flow = _Flow(env)
            current = env
            for child in stmt.stmts:
                step = self._process(child, current, fenv)
                flow.breaks.extend(step.breaks)
                flow.continues.extend(step.continues)
                flow.returns = _merge_envs([flow.returns, step.returns])
                flow.ret_known = flow.ret_known and step.ret_known
                if step.returns is not None:
                    flow.ret_value = self._join_ret(flow, step)
                current = step.out
            flow.out = current
            return flow
        if isinstance(stmt, SIf):
            then_flow = self._process(stmt.then_block, env, fenv)
            if stmt.else_block is not None:
                else_flow = self._process(stmt.else_block, env, fenv)
                else_out = else_flow.out
            else:
                else_flow = _Flow(None)
                else_out = env
            flow = _Flow(_merge_envs([then_flow.out, else_out]))
            flow.breaks = then_flow.breaks + else_flow.breaks
            flow.continues = then_flow.continues + else_flow.continues
            flow.returns = _merge_envs([then_flow.returns, else_flow.returns])
            flow.ret_known, flow.ret_value = self._join_two_rets(
                then_flow, else_flow
            )
            return flow
        if isinstance(stmt, (SWhile, SDoWhile, SFor)):
            return self._process_loop(stmt, env, fenv)
        if isinstance(stmt, SSwitch):
            return self._process_switch(stmt, env, fenv)
        if isinstance(stmt, SBreak):
            return _Flow(None, breaks=[env])
        if isinstance(stmt, SContinue):
            return _Flow(None, continues=[env])
        if isinstance(stmt, SReturn):
            flow = _Flow(None, returns=env)
            if stmt.value is not None:
                flow.ret_value = self._operand_value(stmt.value, env, fenv, stmt)
                flow.ret_known = flow.ret_value is not None
            else:
                flow.ret_known = False
            return flow
        raise TypeError(type(stmt).__name__)

    @staticmethod
    def _join_ret(flow: _Flow, step: _Flow):
        if flow.returns is step.returns:  # first return seen
            return step.ret_value
        if flow.ret_value == step.ret_value:
            return flow.ret_value
        flow.ret_known = False
        return None

    @staticmethod
    def _join_two_rets(a: _Flow, b: _Flow):
        if a.returns is None:
            return b.ret_known, b.ret_value
        if b.returns is None:
            return a.ret_known, a.ret_value
        if a.ret_known and b.ret_known and a.ret_value == b.ret_value:
            return True, a.ret_value
        return False, None

    def _process_loop(self, stmt, env, fenv) -> _Flow:
        result = _Flow(None)
        result.returns = None
        result.ret_known = True
        current = env
        exits: list = []
        for _ in range(self.MAX_ITERATIONS):
            exits = []
            if isinstance(stmt, SDoWhile):
                body = self._process(stmt.body, current, fenv)
                exits.extend(body.breaks)
                cont = _merge_envs([body.out] + body.continues)
                evald = self._process(stmt.cond_eval, cont, fenv)
                back = evald.out
                if stmt.cond is not None and evald.out is not None:
                    exits.append(evald.out)
            else:
                evald = self._process(stmt.cond_eval, current, fenv)
                after = evald.out
                if stmt.cond is not None and after is not None:
                    exits.append(after)
                body = self._process(stmt.body, after, fenv)
                exits.extend(body.breaks)
                back_in = _merge_envs([body.out] + body.continues)
                if isinstance(stmt, SFor):
                    stepped = self._process(stmt.step, back_in, fenv)
                    back = stepped.out
                else:
                    back = back_in
            result.returns = _merge_envs([result.returns, body.returns])
            result.ret_known = result.ret_known and body.ret_known
            new_state = _merge_envs([current, back])
            if _envs_equal(new_state, current):
                break
            current = new_state
        result.out = _merge_envs(exits) if exits else None
        return result

    def _process_switch(self, stmt, env, fenv) -> _Flow:
        result = _Flow(None)
        result.ret_known = True
        exits = []
        fall = None
        for case in stmt.cases:
            arm_in = _merge_envs([env, fall])
            arm = self._process(case.body, arm_in, fenv)
            result.continues.extend(arm.continues)
            result.returns = _merge_envs([result.returns, arm.returns])
            result.ret_known = result.ret_known and arm.ret_known
            exits.extend(arm.breaks)
            if case.falls_through:
                fall = arm.out
            else:
                if arm.out is not None:
                    exits.append(arm.out)
                fall = None
        if fall is not None:
            exits.append(fall)
        if not stmt.has_default:
            exits.append(env)
        result.out = _merge_envs(exits)
        return result

    # -- basic statements ----------------------------------------------------

    def _process_basic(self, stmt: BasicStmt, env: ConstEnv, fenv: FuncEnv):
        kind = stmt.kind
        if kind is BasicKind.NOP:
            return env
        if kind is BasicKind.ALLOC:
            if stmt.lhs is not None:
                return self._assign(stmt, env, fenv, None)
            return env
        if kind is BasicKind.CALL:
            return self._process_call(stmt, env, fenv)
        if stmt.lhs is None:
            return env
        if kind is BasicKind.CONST:
            assert isinstance(stmt.rvalue, Const)
            value = stmt.rvalue.value
            if not isinstance(value, (int, float)):
                value = None
            return self._assign(stmt, env, fenv, value)
        if kind is BasicKind.COPY:
            value = self._operand_value(stmt.rvalue, env, fenv, stmt)
            return self._assign(stmt, env, fenv, value)
        if kind is BasicKind.ADDR:
            return self._assign(stmt, env, fenv, None)
        if kind is BasicKind.UNOP:
            inner = self._operand_value(stmt.operands[0], env, fenv, stmt)
            value = None
            if inner is not None:
                if stmt.op == "-":
                    value = -inner
                elif stmt.op == "+":
                    value = inner
                elif stmt.op == "!":
                    value = int(not inner)
                elif stmt.op == "~" and isinstance(inner, int):
                    value = ~inner
            return self._assign(stmt, env, fenv, value)
        if kind is BasicKind.BINOP:
            left = self._operand_value(stmt.operands[0], env, fenv, stmt)
            right = self._operand_value(stmt.operands[1], env, fenv, stmt)
            value = None
            fold = _FOLDABLE.get(stmt.op)
            if left is not None and right is not None and fold is not None:
                try:
                    value = fold(left, right)
                except (TypeError, ValueError):
                    value = None
            return self._assign(stmt, env, fenv, value)
        return env

    # -- calls ------------------------------------------------------------------

    def _process_call(self, stmt: BasicStmt, env: ConstEnv, fenv: FuncEnv):
        callee = stmt.callee
        ret_value = None
        globals_out: "ConstEnv | None" = None
        if callee is not None and callee in self.program.functions:
            globals_out, ret_value = self._analyze_callee(stmt, env, fenv, callee)
        elif stmt.callee_ptr is not None:
            pts = self.analysis.at_stmt(stmt.stmt_id)
            merged: "ConstEnv | None" = None
            known = True
            first = True
            rv = None
            if pts is not None:
                fp_loc = fenv.var_loc(stmt.callee_ptr)
                for target, _d in pts.targets_of(fp_loc):
                    if not target.is_function:
                        continue
                    if target.base not in self.program.functions:
                        known = False
                        continue
                    g_out, r = self._analyze_callee(
                        stmt, env, fenv, target.base
                    )
                    merged = _merge_envs([merged, g_out])
                    if first:
                        rv = r
                        first = False
                    elif rv != r:
                        rv = None
                    if r is None:
                        known = False
            globals_out = merged
            ret_value = rv if known else None
        # externals: no constant effects, unknown return

        out = self._invalidate_after_call(env)
        if globals_out is not None:
            for loc, value in globals_out.items():
                if loc.kind is LocKind.GLOBAL:
                    out.set(loc, value)
        if stmt.lhs is not None:
            out = self._assign_with_env(stmt, out, fenv, ret_value)
        return out

    def _assign_with_env(self, stmt, env, fenv, value):
        pts = self.analysis.at_stmt(stmt.stmt_id)
        if pts is None:
            return env
        out = env.copy()
        locs = l_locations(stmt.lhs, pts, fenv)
        strong = (
            len(locs) == 1
            and locs[0][1] is D
            and not locs[0][0].represents_multiple()
        )
        if strong:
            out.set(locs[0][0], value)
        else:
            for loc, _d in locs:
                out.forget(loc)
        return out

    def _invalidate_after_call(self, env: ConstEnv) -> ConstEnv:
        """Keep caller facts only for locations the callee provably
        could not reach: non-global locations that are never the
        target of any pointer."""
        out = ConstEnv()
        for loc, value in env.items():
            if loc.kind is LocKind.GLOBAL:
                continue  # re-imported from the callee's output
            if loc.root() in self._exposed:
                continue
            out.set(loc, value)
        return out

    def _analyze_callee(self, stmt, env: ConstEnv, fenv: FuncEnv, callee: str):
        fn = self.program.functions[callee]
        callee_env = self.analysis.env(callee)
        entry = ConstEnv()
        # globals carry over
        for loc, value in env.items():
            if loc.kind is LocKind.GLOBAL:
                entry.set(loc, value)
        # formals get the actual values
        for index, (name, _ctype) in enumerate(fn.params):
            if index >= len(stmt.args):
                continue
            value = self._operand_value(stmt.args[index], env, fenv, stmt)
            if value is not None:
                entry.set(callee_env.var_loc(name), value)

        key = (callee, tuple(sorted((str(k), v) for k, v in entry.items())))
        if key in self._memo:
            return self._memo[key]
        if callee in self._active or len(self._active) > 64:
            # recursion (or deep fn-ptr chains): be conservative
            result = (ConstEnv(), None)
            self._memo[key] = result
            self._cut_off.append(callee)
            return result
        self._active.add(callee)
        self._memo[key] = (ConstEnv(), None)  # provisional for recursion
        try:
            flow = self._process(fn.body, entry, callee_env)
            outs = _merge_envs([flow.out, flow.returns])
            globals_out = ConstEnv()
            if outs is not None:
                for loc, value in outs.items():
                    if loc.kind is LocKind.GLOBAL:
                        globals_out.set(loc, value)
            ret = flow.ret_value if flow.ret_known else None
            if flow.returns is None and flow.out is not None:
                ret = None  # fell off the end of a non-void path
            result = (globals_out, ret)
        finally:
            self._active.discard(callee)
        self._memo[key] = result
        return result

    # -- entry / queries -------------------------------------------------------

    def run(self, entry: str = "main") -> "ConstantPropagation":
        fn = self.program.functions[entry]
        fenv = self.analysis.env(entry)
        start = ConstEnv()
        # globals with constant initializers
        for stmt in self.program.global_init.stmts:
            if isinstance(stmt, BasicStmt) and stmt.kind is BasicKind.CONST:
                genv = self.analysis.env(None)
                value = stmt.rvalue.value
                if isinstance(value, (int, float)) and stmt.lhs.is_plain_var:
                    start.set(genv.var_loc(stmt.lhs.base), value)
        self._process(fn.body, start, fenv)
        # A cut-off call's activation runs the body on entry values no
        # flow has seen, so each such body is flowed once more from an
        # all-unknown entry: its points then claim only what holds on
        # every entry.
        flowed: set[str] = set()
        while self._cut_off:
            callee = self._cut_off.pop(0)
            if callee not in flowed:
                flowed.add(callee)
                self._process(
                    self.program.functions[callee].body,
                    ConstEnv(),
                    self.analysis.env(callee),
                )
        return self

    def at_label(self, label: str) -> "ConstEnv | None":
        _func, stmt_id = self.program.labels[label]
        return self.point_info.get(stmt_id)

    def constant_at(self, label: str, var: str):
        env = self.at_label(label)
        if env is None:
            return None
        func, _ = self.program.labels[label]
        fenv = self.analysis.env(func)
        return env.get(fenv.var_loc(var))

    def known_constant_count(self) -> int:
        return sum(len(env) for env in self.point_info.values())


def _envs_equal(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return a == b


def propagate_constants(analysis: PointsToAnalysis) -> ConstantPropagation:
    """Run interprocedural constant propagation from ``main``."""
    return ConstantPropagation(analysis).run()
