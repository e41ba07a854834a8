"""Loop-interference (parallelism-blocker) checker.

The paper's own motivating client: read/write sets computed from the
points-to facts (:mod:`repro.core.readwrite`) decide whether two
statements can run in parallel.  For every loop, the checker tests
each pair of body statements for a read-write or write-write conflict
on an abstract location — the condition that blocks parallelizing or
reordering the loop's iterations.

To keep the signal about *pointers* (rather than flagging every
``i = i + 1`` against its own loop test), a pair is only reported when
at least one of the two statements dereferences a pointer or calls
through a function pointer — the conflicts the points-to analysis
exists to expose.  Findings are always warnings: a conflict blocks a
transformation, it is not by itself a bug.
"""

from __future__ import annotations

from repro.checkers.base import Checker, CheckContext, Finding, register

#: Cap on the overlap locations echoed into a finding's message.
_MAX_SHOWN = 4


@register
class LoopInterference(Checker):
    id = "loop-interference"
    description = (
        "pointer-mediated read-write conflict between statements of "
        "one loop body (blocks parallelization)"
    )

    @classmethod
    def _indirect_targets(cls, ctx: CheckContext) -> dict:
        """stmt id -> locations accessed *through a pointer* there (the
        dereferenced pointers' points-to targets).  Conflicts are only
        reported on these, so plain loop-index dependences
        (``i = i + 1`` vs the loop test) stay out of the report."""
        targets: dict[int, set] = {}
        for site in ctx.facts.derefs:
            pts = ctx.pts_at(site.stmt)
            loc = ctx.resolve(site.name, site.func)
            if pts is None or loc is None:
                continue
            targets.setdefault(site.stmt, set()).update(
                t for t, _ in pts.targets_of(loc)
            )
        return targets

    @classmethod
    def run(cls, ctx: CheckContext) -> list[Finding]:
        findings = []
        deref_stmts = ctx.facts.deref_stmts
        indirect = cls._indirect_targets(ctx)
        seen: set[tuple[str, int, int]] = set()
        for loop in ctx.facts.loops:
            rw_map = ctx.read_write_map(loop.func)
            sets = [rw_map[s] for s in loop.stmts if s in rw_map]
            # Order pairs by source line; ids break ties within a line.
            sets.sort(key=lambda rw: (ctx.facts.lines.get(rw.stmt_id, 0),
                                      rw.stmt_id))
            for i, first in enumerate(sets):
                for second in sets[i + 1:]:
                    if first.stmt_id not in deref_stmts and \
                            second.stmt_id not in deref_stmts:
                        continue
                    key = (loop.func, first.stmt_id, second.stmt_id)
                    if key in seen:  # nested loops repeat inner pairs
                        continue
                    overlap = (
                        (first.may_write & second.may_write)
                        | (first.may_write & second.reads)
                        | (first.reads & second.may_write)
                    )
                    through_ptr = (
                        indirect.get(first.stmt_id, set())
                        | indirect.get(second.stmt_id, set())
                    )
                    overlap = {
                        loc for loc in overlap & through_ptr
                        if not loc.is_null and not loc.is_function
                    }
                    if not overlap:
                        continue
                    seen.add(key)
                    names = sorted(str(loc) for loc in overlap)
                    shown = ", ".join(names[:_MAX_SHOWN])
                    if len(names) > _MAX_SHOWN:
                        shown += ", ..."
                    line_a = ctx.facts.lines.get(first.stmt_id) or None
                    line_b = ctx.facts.lines.get(second.stmt_id) or None
                    findings.append(
                        Finding(
                            checker=cls.id,
                            message=(
                                f"loop body statements conflict on "
                                f"{shown}; iterations cannot be "
                                f"parallelized"
                            ),
                            definite=False,
                            func=loop.func,
                            stmt=first.stmt_id,
                            line=line_a,
                            extra={
                                "locations": names,
                                "other_line": line_b,
                                "loop_line": loop.line or None,
                            },
                        )
                    )
        return findings
