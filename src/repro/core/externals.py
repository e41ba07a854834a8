"""Models for external (library) functions.

The paper analyzes self-contained benchmarks; calls into libc are
handled by per-function effect models.  Each model maps the caller's
points-to set across the call and reports the R-locations of the
returned value.  Unknown externals follow the configurable policy in
:class:`repro.core.analysis.AnalysisOptions` (``ignore`` by default,
with a warning — the McCAT setting — or ``havoc`` for a conservative
smash of everything reachable from pointer arguments).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core import provenance
from repro.core.env import FuncEnv
from repro.core.locations import HEAP, AbsLoc
from repro.core.lvalues import LocSet, r_locations_ref
from repro.core.pointsto import P, PointsToSet
from repro.simple.ir import BasicStmt, Const, Ref


@dataclass
class ExternalEffect:
    """Result of modeling an external call."""

    output: PointsToSet
    returns: LocSet


#: Externals with no effect on stack points-to information and a
#: non-pointer (or ignored) return value.
PURE_EXTERNALS = frozenset(
    {
        "printf", "fprintf", "sprintf", "snprintf", "vprintf", "puts",
        "putchar", "putc", "fputc", "fputs", "perror", "fflush",
        "scanf", "fscanf", "sscanf", "getchar", "getc", "fgetc",
        "ungetc", "feof", "ferror", "fclose", "fseek", "ftell", "rewind",
        "free", "exit", "abort", "atexit", "assert",
        "strcmp", "strncmp", "strlen", "strcasecmp", "memcmp",
        "atoi", "atol", "atof", "abs", "labs", "rand", "srand",
        "sqrt", "sin", "cos", "tan", "exp", "log", "log10", "pow",
        "floor", "ceil", "fabs", "fmod", "clock", "time", "difftime",
        "isalpha", "isdigit", "isspace", "isupper", "islower",
        "toupper", "tolower", "system", "remove", "rename",
        "qsort_cmp",  # placeholder comparison hooks in benchmarks
    }
)

#: Externals returning a pointer into fresh or static storage that we
#: conservatively identify with the heap location.
HEAP_RETURNING_EXTERNALS = frozenset(
    {
        "getenv", "strerror", "fopen", "tmpfile", "fdopen", "opendir",
        "gets", "ctime", "asctime", "localtime", "gmtime", "getcwd",
    }
)

#: Externals that return their first argument's pointer value
#: (``strcpy(dst, src)`` returns ``dst``).
RETURN_FIRST_ARG = frozenset(
    {"strcpy", "strncpy", "strcat", "strncat", "memset", "memmove", "fgets"}
)

#: Externals that copy the contents of arg 1 into arg 0 — they can
#: transfer pointers stored *inside* the copied objects.
CONTENT_COPIERS = frozenset({"memcpy", "memmove"})


def model_external(
    name: str, stmt: BasicStmt, input_set: PointsToSet, env: FuncEnv, options
) -> ExternalEffect | None:
    """Model the call ``stmt`` to external ``name`` (``stmt.callee``
    for a direct call, the resolved target for an indirect one).
    Returns None when the function is unknown and the policy is to
    warn."""
    if name in PURE_EXTERNALS:
        return ExternalEffect(input_set, [])
    if name in HEAP_RETURNING_EXTERNALS:
        return ExternalEffect(input_set, [(HEAP, P)])
    if name in RETURN_FIRST_ARG or name in CONTENT_COPIERS:
        output = input_set
        returns: LocSet = []
        if stmt.args and isinstance(stmt.args[0], Ref):
            returns = r_locations_ref(stmt.args[0], input_set, env)
        if name in CONTENT_COPIERS and len(stmt.args) >= 2:
            output = _copy_contents(name, stmt, input_set, env)
        return ExternalEffect(output, returns)
    if options.unknown_external_policy == "havoc":
        return ExternalEffect(_havoc(name, stmt, input_set, env), [(HEAP, P)])
    return None  # warn-and-ignore


def _copy_contents(
    name: str, stmt: BasicStmt, input_set: PointsToSet, env: FuncEnv
) -> PointsToSet:
    """memcpy-style model: any pointer held in an object reachable from
    the source argument may now also be held at the same sub-path of
    any object reachable from the destination argument (weak)."""
    dst, src = stmt.args[0], stmt.args[1]
    if not isinstance(dst, Ref) or not isinstance(src, Ref):
        return input_set
    out = input_set.copy()
    dst_objects = r_locations_ref(dst, input_set, env)
    src_objects = r_locations_ref(src, input_set, env)
    src_roots = {loc.root() for loc, _ in src_objects}
    prov = provenance.CURRENT
    for holder, target, _ in input_set.triples():
        if holder.root() not in src_roots:
            continue
        suffix = holder.path[len(holder.root().path):]
        for dst_loc, _ in dst_objects:
            if dst_loc.is_null:
                continue
            out.add(dst_loc.extend(suffix), target, P)
            if prov.enabled:
                parent = prov.latest.get((holder, target))
                prov.record(
                    dst_loc.extend(suffix),
                    target,
                    False,
                    provenance.RULE_EXTERN,
                    (parent,) if parent is not None else (),
                    extra={"callee": name, "external": True},
                )
    return out


def _havoc(
    name: str, stmt: BasicStmt, input_set: PointsToSet, env: FuncEnv
) -> PointsToSet:
    """Conservative unknown-external model: every location reachable
    from a pointer argument may point to any other reachable location
    or the heap."""
    out = input_set.copy()
    reachable: set[AbsLoc] = set()
    frontier: list[AbsLoc] = []
    for arg in stmt.args:
        if isinstance(arg, Const):
            continue
        for loc, _ in r_locations_ref(arg, input_set, env):
            if not loc.is_null:
                frontier.append(loc)
    while frontier:
        loc = frontier.pop()
        if loc in reachable:
            continue
        reachable.add(loc)
        for target, _ in input_set.targets_of(loc):
            if not target.is_null:
                frontier.append(target)
    reachable.add(HEAP)
    prov = provenance.CURRENT
    for src in reachable:
        if src.is_null or src.is_function:
            continue
        out.weaken_source(src)
        for tgt in reachable:
            if tgt.is_function:
                continue
            out.add(src, tgt, P)
            if prov.enabled:
                prov.record(
                    src,
                    tgt,
                    False,
                    provenance.RULE_EXTERN,
                    extra={"callee": name, "external": True},
                )
    return out
