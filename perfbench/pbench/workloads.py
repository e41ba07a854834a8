"""Seeded inputs of every workload.

Everything here is a pure function of the workload seed (and of the
program texts the repository ships), so two runs with one seed send
the same requests in the same order.  The program under test only
ever sees the generated request bodies.
"""

from __future__ import annotations

import bisect
import random
import re

from repro.benchsuite import BENCHMARKS, PERF_BENCHMARKS, livc_source
from repro.benchsuite.edits import EDIT_KINDS, propose_edits
from repro.benchsuite.generator import GeneratorConfig, generate_program
from repro.simple.patching import ChunkError, split_chunks

#: The soundness-fuzz corpus families (the 8 ``GeneratorConfig``
#: idiom families of the interpreter's fuzz campaign), 7 seeds each.
FUZZ_CONFIGS: dict[str, GeneratorConfig] = {
    "default": GeneratorConfig(),
    "no_fnptr": GeneratorConfig(use_function_pointers=False),
    "no_heap": GeneratorConfig(use_heap=False),
    "no_structs": GeneratorConfig(use_structs=False),
    "no_recursion": GeneratorConfig(use_recursion=False),
    "scalars_only": GeneratorConfig(
        use_function_pointers=False,
        use_heap=False,
        use_structs=False,
        use_recursion=False,
    ),
    "deep_pointers": GeneratorConfig(max_pointer_level=3, n_stmts=12),
    "wide": GeneratorConfig(n_functions=8, n_stmts=10),
}
FUZZ_SEEDS = 7

#: Daemon sessions per worker (``repro-pta daemon --max-sessions``
#: default) and the warm-query working set relative to it.
DAEMON_SESSIONS = 64
WORKING_SET = 90  # ~1.4x the session capacity

#: Zipf exponent of warm-query access.  With 90 programs over 64
#: sessions about 10% of accesses miss the sessions, so the p95 sits
#: in the middle of the re-decode latencies, never in the gap between
#: a session hit and a re-decode.
ZIPF_S = 1.0

#: Queries kept per program; requests draw from this pool.
POOL_SIZE = 8

#: The query kinds of the warm-query mix.
WARM_KINDS = (
    "points_to",
    "may_alias",
    "callees_at",
    "callers_of",
    "read_write",
    "labels",
    "summary",
)

#: Share of edit-watch steps that undo the program's previous edit.
UNDO_SHARE = 0.25

_NAME_RE = re.compile(r"^[A-Za-z_]\w*$")


def suite_programs() -> list[tuple[str, str]]:
    """The paper's 17 programs, by name."""
    return [(name, BENCHMARKS[name].source) for name in sorted(BENCHMARKS)]


def fuzz_corpus() -> list[tuple[str, str]]:
    return [
        (f"{family}-s{seed}", generate_program(seed, config))
        for family, config in FUZZ_CONFIGS.items()
        for seed in range(FUZZ_SEEDS)
    ]


def cold_suite_programs() -> list[tuple[str, str]]:
    """cold-suite: the 17 paper programs, ``livc``, and the 56-program
    soundness-fuzz corpus."""
    return suite_programs() + [("livc", livc_source())] + fuzz_corpus()


#: Shape sizes near 3/4 of the depths where the analysis ends in
#: RecursionError today (a 70-function chain, 123 nested ifs, a
#: 494-term sum), so every shape succeeds.  Two sizes of each shape:
#: the four nested-if and sum programs then take the middle half of
#: a pass's requests, so the p50 sits inside that cluster, not on its
#: edge where one slow request moves it.
CHAIN_DEPTHS = (48, 52)
NESTED_IFS = (88, 92)
SUM_TERMS = (340, 360)


def chain_program(depth: int) -> str:
    """A call chain ``main -> f1 -> ... -> f<depth>`` passing one
    pointer down; the last function stores it in a global."""
    parts = ["int g; int *gp;"]
    parts += [f"void f{i}(int *p);" for i in range(1, depth + 1)]
    for i in range(1, depth + 1):
        call = f"f{i + 1}(q);" if i < depth else "gp = q;"
        parts.append(f"void f{i}(int *p) {{ int *q; q = p; {call} }}")
    parts.append("int main() { f1(&g); END: return 0; }")
    return "\n".join(parts) + "\n"


def nested_program(depth: int) -> str:
    """``depth`` nested ifs, every one taken, around one pointer store."""
    body = "p = &a; INNER: q = p;"
    for level in range(depth):
        body = f"if (x > {level}) {{ {body} }}"
    return (
        "int a; int x;\n"
        f"int main() {{ int *p; int *q; p = 0; q = 0; x = {depth + 1}; "
        f"{body} END: return 0; }}\n"
    )


def sum_program(terms: int) -> str:
    """One expression of ``terms`` additions, then a pointer store."""
    total = " + ".join(f"v{i % 8}" for i in range(terms))
    return (
        "int v0, v1, v2, v3, v4, v5, v6, v7;\n"
        f"int main() {{ int s; int *p; s = {total}; p = &s; END: return 0; }}\n"
    )


def cold_deep_programs() -> list[tuple[str, str]]:
    """cold-deep: the perfsuite pair and the three deep shapes."""
    return (
        [(name, PERF_BENCHMARKS[name].source) for name in sorted(PERF_BENCHMARKS)]
        + [(f"chain{n}", chain_program(n)) for n in CHAIN_DEPTHS]
        + [(f"nested{n}", nested_program(n)) for n in NESTED_IFS]
        + [(f"sum{n}", sum_program(n)) for n in SUM_TERMS]
    )


def warm_query_programs(seed: int) -> list[tuple[str, str]]:
    """warm-query's working set: the suite, ``livc``, and seeded
    generator programs (the fuzz families in turn) up to
    :data:`WORKING_SET` distinct texts."""
    programs = suite_programs() + [("livc", livc_source())]
    seen = {source for _, source in programs}
    families = list(FUZZ_CONFIGS)
    index = 0
    while len(programs) < WORKING_SET:
        family = families[index % len(families)]
        gen_seed = 1_000_000 + seed * 1000 + index
        source = generate_program(gen_seed, FUZZ_CONFIGS[family])
        index += 1
        if source in seen:
            continue
        seen.add(source)
        programs.append((f"{family}-g{gen_seed}", source))
    return programs


def edit_watch_programs() -> list[tuple[str, str]]:
    """edit-watch: every suite program plus the perfsuite pair."""
    return suite_programs() + [
        (name, PERF_BENCHMARKS[name].source) for name in sorted(PERF_BENCHMARKS)
    ]


# ---------------------------------------------------------------------------
# Query pools
# ---------------------------------------------------------------------------


def _label_exprs(session, label: str) -> list[str]:
    """Named, non-temporary pointer variables holding facts at a
    label, spelled the way the query language resolves them."""
    func = session.labels[label][0]
    names = set()
    for src, _, _ in session.analysis.at_label(label).triples():
        if src.path or src.base.startswith("__t"):
            continue
        if src.func not in (None, func) or not _NAME_RE.match(src.base):
            continue
        names.add(src.base)
    return sorted(names)


def candidate_queries(session, kinds=WARM_KINDS) -> list[str]:
    """Every query of the given kinds this analysis can answer, in a
    deterministic order (labels, call sites and functions sorted)."""
    out: list[str] = []
    labels = sorted(session.labels)
    functions = sorted(session.analysis.ig.functions_called())
    for label in labels:
        exprs = _label_exprs(session, label)
        if "points_to" in kinds:
            out += [f"points_to:{expr}@{label}" for expr in exprs]
        if "may_alias" in kinds and len(exprs) >= 2:
            out += [
                f"may_alias:{a},{b}@{label}"
                for i, a in enumerate(exprs)
                for b in exprs[i + 1:]
            ]
    if "callees_at" in kinds:
        out += [f"callees_at:{site}" for site in sorted(session.call_sites())]
    if "callers_of" in kinds:
        out += [f"callers_of:{func}" for func in functions if func != "main"]
    if "read_write" in kinds:
        out += [f"read_write:{func}" for func in functions]
    for bare in ("labels", "summary"):
        if bare in kinds:
            out.append(bare)
    return out


def query_pool(session, name: str, kinds=WARM_KINDS) -> list[str]:
    """Up to :data:`POOL_SIZE` queries for one program, drawn so every
    available kind is represented, then filled at random.  Depends on
    the program only, so every seed asks from the same pool."""
    candidates = candidate_queries(session, kinds)
    by_kind: dict[str, list[str]] = {}
    for query in candidates:
        by_kind.setdefault(query.partition(":")[0], []).append(query)
    rng = random.Random(f"pool:{name}")
    pool = [rng.choice(by_kind[kind]) for kind in kinds if kind in by_kind]
    rest = [query for query in candidates if query not in pool]
    rng.shuffle(rest)
    pool += rest[: max(0, POOL_SIZE - len(pool))]
    return pool[:POOL_SIZE]


#: cold-suite asks about program points and call sites.
COLD_KINDS = ("points_to", "may_alias", "callees_at", "callers_of", "read_write")


# ---------------------------------------------------------------------------
# Request streams
# ---------------------------------------------------------------------------


def cold_pass(seed: int, pass_index: int, names: list[str], pools: dict):
    """One cold pass: every program once, in a seeded order, each with
    a seeded query from its pool.  Returns ``[(name, query)]``."""
    rng = random.Random(f"{seed}:cold:{pass_index}")
    order = list(names)
    rng.shuffle(order)
    return [(name, rng.choice(pools[name])) for name in order]


class ZipfStream:
    """Seeded Zipf-skewed access over a working set.

    Rank ``r`` is drawn with weight ``1 / r**s``.  Ranks are assigned
    per stratum (``strata`` lists the programs of each size class):
    each stratum's members are spread evenly over the ranks in a
    seeded order, so every seed puts the same mix of sizes in the hot
    head and in the cold tail.  Each access asks a seeded query from
    the program's pool."""

    def __init__(self, seed: int, strata: list[list[str]], pools: dict, tag: str):
        self.rng = random.Random(f"{seed}:zipf:{tag}")
        order = random.Random(f"{seed}:ranks")
        n = sum(len(stratum) for stratum in strata)
        slots = []
        for index, stratum in enumerate(strata):
            members = list(stratum)
            order.shuffle(members)
            step = n / len(members)
            slots += [((i + 0.5) * step, index, name) for i, name in enumerate(members)]
        self.ranked = [name for _, _, name in sorted(slots)]
        self.pools = pools
        cumulative, total = [], 0.0
        for rank in range(1, n + 1):
            total += 1.0 / rank**ZIPF_S
            cumulative.append(total)
        self.cumulative = cumulative

    def next(self) -> tuple[str, str]:
        point = self.rng.random() * self.cumulative[-1]
        name = self.ranked[bisect.bisect_left(self.cumulative, point)]
        return name, self.rng.choice(self.pools[name])


def function_names(source: str) -> list[str]:
    try:
        chunks = split_chunks(source)
    except ChunkError:
        return []
    return sorted(chunk.name for chunk in chunks if chunk.kind == "function")


class EditChain:
    """A seeded walk of source edits over a set of programs.

    Each step picks a program; with probability :data:`UNDO_SHARE` it
    undoes that program's last edit (an editor's undo), otherwise it
    applies one :func:`~repro.benchsuite.edits.propose_edits` edit of
    a seeded kind (all five kinds occur).  ``next()`` returns
    ``(name, old_text, new_text, kind, probe_query)``; the probe is a
    ``read_write`` query on one of the new text's functions, asked
    after the diff."""

    def __init__(self, seed: int, programs: list[tuple[str, str]]):
        self.rng = random.Random(f"{seed}:edits")
        self.names = [name for name, _ in programs]
        self.current = dict(programs)
        self.history: dict[str, list[str]] = {name: [] for name in self.names}

    def next(self):
        rng = self.rng
        while True:
            name = rng.choice(self.names)
            old = self.current[name]
            if self.history[name] and rng.random() < UNDO_SHARE:
                new = self.history[name].pop()
                kind = "undo"
            else:
                kind = rng.choice(EDIT_KINDS)
                edits = propose_edits(old, rng.randrange(1 << 30), kinds=(kind,))
                if not edits:
                    continue
                new = edits[0].source
                self.history[name].append(old)
            self.current[name] = new
            functions = function_names(new)
            probe = f"read_write:{rng.choice(functions)}" if functions else "labels"
            return name, old, new, kind, probe
