"""Abstract stack locations (Section 3.1 of the paper).

Every location that can be the source or target of a points-to
relationship is represented by a named :class:`AbsLoc`:

* named variables — locals, globals, and formal parameters;
* structure fields — the variable's location extended with a field
  path (``a.f``);
* arrays — two sub-locations per array, ``a[head]`` for element 0 and
  ``a[tail]`` for elements 1..n (Table 1);
* *symbolic names* (``1_x``, ``2_x``, ...) standing for invisible
  variables reachable through formals/globals (Section 4.1);
* the single ``heap`` location for all dynamically allocated storage;
* the ``NULL`` pseudo-location (pointers are initialized to NULL);
* one location per *function*, so that function pointers are ordinary
  points-to sources (Section 5);
* a per-function ``retval`` pseudo-location carrying returned pointers.
"""

from __future__ import annotations

import enum
import zlib

#: Path element marking the first element of an array.
HEAD = "[head]"
#: Path element marking elements 1..n of an array.
TAIL = "[tail]"

ARRAY_PARTS = (HEAD, TAIL)


class LocKind(enum.Enum):
    LOCAL = "lo"
    GLOBAL = "gl"
    PARAM = "fp"
    SYMBOLIC = "sy"
    HEAP = "heap"
    NULL = "null"
    FUNCTION = "fn"
    RETVAL = "ret"

    def __str__(self) -> str:
        return self.value

    # Enum's default hash is the member's object id, which varies run
    # to run with address-space layout — so any set containing a kind
    # (AbsLoc hashes, (loc, kind) pairs) iterates in an irreproducible
    # order, and order-sensitive consumers (the slice-memo key) flake.
    # A content hash makes iteration order reproducible.  It is
    # computed once per member: every interning lookup hashes a kind.
    def __init__(self, value: str) -> None:
        self._hash = zlib.crc32(value.encode())

    def __hash__(self) -> int:
        return self._hash


#: The kinds as plain module globals, for the core's hot paths.
#: Reading a member off an Enum class goes through
#: ``EnumType.__getattr__`` on Python 3.11 and costs about fifteen
#: times a global read, so the core imports these (and the like
#: aliases beside ``BasicKind`` in repro.simple.ir and ``IGNodeKind``
#: in repro.core.invocation_graph) instead.
LOCAL_KIND = LocKind.LOCAL
GLOBAL_KIND = LocKind.GLOBAL
PARAM_KIND = LocKind.PARAM
SYMBOLIC_KIND = LocKind.SYMBOLIC
HEAP_KIND = LocKind.HEAP
NULL_KIND = LocKind.NULL
FUNCTION_KIND = LocKind.FUNCTION
RETVAL_KIND = LocKind.RETVAL
_VISIBLE_EVERYWHERE = (GLOBAL_KIND, HEAP_KIND, NULL_KIND, FUNCTION_KIND)

#: Interning table: (base, kind, func, path) -> the canonical AbsLoc.
_INTERN: dict[tuple, "AbsLoc"] = {}


class AbsLoc:
    """A named abstract stack location.

    ``base`` is the variable / symbolic / special name; ``path`` is the
    selector chain (field names and the ``[head]``/``[tail]`` markers);
    ``func`` scopes locals, parameters, symbolic names, and retval to
    their function (None for globals and the special locations).

    Instances are immutable and *interned*: constructing the same
    (base, kind, func, path) twice yields the same object, so the
    dict-heavy location lookups (``LocTable.id_of``) hash a
    precomputed integer and compare by identity instead of re-hashing
    tuples of fields.  Equality still falls back to a field comparison.
    """

    __slots__ = ("base", "kind", "func", "path", "text", "_hash", "_root")

    base: str
    kind: LocKind
    func: str | None
    path: tuple[str, ...]
    #: The printed name (``str(loc)``), computed once: order-sensitive
    #: consumers sort by it on every call.
    text: str

    def __new__(
        cls,
        base: str,
        kind: LocKind,
        func: str | None = None,
        path: tuple[str, ...] = (),
    ) -> "AbsLoc":
        key = (base, kind, func, path)
        cached = _INTERN.get(key)
        if cached is not None:
            return cached
        self = object.__new__(cls)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "func", func)
        object.__setattr__(self, "path", path)
        text = base
        for element in path:
            text += element if element in ARRAY_PARTS else f".{element}"
        object.__setattr__(self, "text", text)
        # Hash content only: ``func`` is None for globals, and on
        # Python < 3.12 ``hash(None)`` is address-based — it varies
        # run to run with address-space layout, which reorders sets of
        # global locations and makes everything downstream of their
        # iteration order (dense-id assignment, slice-memo keys, memo
        # hit counters) irreproducible.  LocKind likewise hashes by
        # content, not object id (see ``LocKind.__hash__``).
        object.__setattr__(
            self, "_hash", hash((base, kind, func or "", path))
        )
        _INTERN[key] = self
        return self

    def __setattr__(self, name, value):
        raise AttributeError("AbsLoc is immutable")

    def __delattr__(self, name):
        raise AttributeError("AbsLoc is immutable")

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, AbsLoc):
            return NotImplemented
        return (
            self.base == other.base
            and self.kind is other.kind
            and self.func == other.func
            and self.path == other.path
        )

    def __reduce__(self):
        return (AbsLoc, (self.base, self.kind, self.func, self.path))

    def __str__(self) -> str:
        return self.text

    def __repr__(self) -> str:
        scope = f"{self.func}::" if self.func else ""
        return f"<{scope}{self} {self.kind.value}>"

    # -- derived locations --------------------------------------------

    def root(self) -> "AbsLoc":
        """The whole-variable location this one belongs to (cached)."""
        if not self.path:
            return self
        try:
            return self._root
        except AttributeError:
            root = AbsLoc(self.base, self.kind, self.func)
            object.__setattr__(self, "_root", root)
            return root

    def extend(self, path: tuple[str, ...]) -> "AbsLoc":
        if not path:
            return self
        return AbsLoc(self.base, self.kind, self.func, self.path + path)

    def with_field(self, name: str) -> "AbsLoc":
        return self.extend((name,))

    def with_part(self, part: str) -> "AbsLoc":
        assert part in ARRAY_PARTS
        return self.extend((part,))

    def replace_last_part(self, part: str) -> "AbsLoc":
        assert self.path and self.path[-1] in ARRAY_PARTS
        return AbsLoc(self.base, self.kind, self.func, self.path[:-1] + (part,))

    # -- predicates -------------------------------------------------------

    @property
    def is_special(self) -> bool:
        kind = self.kind
        return kind is HEAP_KIND or kind is NULL_KIND

    @property
    def is_heap(self) -> bool:
        return self.kind is HEAP_KIND

    @property
    def is_null(self) -> bool:
        return self.kind is NULL_KIND

    @property
    def is_function(self) -> bool:
        return self.kind is FUNCTION_KIND

    @property
    def is_symbolic(self) -> bool:
        return self.kind is SYMBOLIC_KIND

    @property
    def in_array_tail(self) -> bool:
        return TAIL in self.path

    @property
    def is_visible_everywhere(self) -> bool:
        """True if the location keeps its name across call boundaries."""
        return self.kind in _VISIBLE_EVERYWHERE

    def represents_multiple(self) -> bool:
        """Whether this abstract location may stand for several real
        locations *within one context* (heap, array tails)."""
        return self.is_heap or self.in_array_tail


class LocTable:
    """Dense integer ids for the :class:`AbsLoc`\\ s of one analysis.

    :class:`repro.core.pointsto.PointsToSet` stores target sets as
    Python-int bitsets indexed by these ids.  Ids are assigned on first use, so they are dense and —
    because the analysis itself is deterministic — reproducible for a
    given (program, options) pair.  One table is installed per
    analysis run (:func:`install_table`); sets constructed outside a
    run share a process-wide fallback table so ad-hoc sets (tests,
    REPL) still interoperate.
    """

    __slots__ = ("_ids", "_locs", "_roots", "vis")

    def __init__(self) -> None:
        self._ids: dict[AbsLoc, int] = {}
        self._locs: list[AbsLoc] = []
        #: id -> id of the location's root() (itself for whole vars).
        self._roots: list[int] = []
        #: Bit mask of the ids whose location is visible everywhere:
        #: a row whose targets all lie inside it keeps every name
        #: across a call boundary.
        self.vis = 0

    def id_of(self, loc: AbsLoc) -> int:
        index = self._ids.get(loc)
        if index is None:
            index = len(self._locs)
            self._ids[loc] = index
            self._locs.append(loc)
            self._roots.append(index)
            if loc.is_visible_everywhere:
                self.vis |= 1 << index
            if loc.path:
                self._roots[index] = self.id_of(loc.root())
        return index

    def get_id(self, loc: AbsLoc) -> int | None:
        """``loc``'s id, or None when the table has none yet (never
        allocates: a new id would shift the order of later targets)."""
        return self._ids.get(loc)

    def loc_of(self, index: int) -> AbsLoc:
        return self._locs[index]

    def root_id(self, index: int) -> int:
        return self._roots[index]

    @property
    def roots(self) -> list[int]:
        """id -> root id, as a list (read-only)."""
        return self._roots

    def __len__(self) -> int:
        return len(self._locs)

    def __repr__(self) -> str:
        return f"<LocTable of {len(self._locs)} locations>"


#: Fallback table for sets constructed outside an analysis run.
_FALLBACK_TABLE = LocTable()

_ACTIVE_TABLE: LocTable | None = None


def active_table() -> LocTable:
    """The table new sets bind to (analysis-local or fallback)."""
    table = _ACTIVE_TABLE
    return table if table is not None else _FALLBACK_TABLE


def install_table(table: LocTable | None) -> LocTable | None:
    """Install ``table`` as the active table; returns the previous one
    so callers can restore it (mirrors ``provenance.install``)."""
    global _ACTIVE_TABLE
    previous = _ACTIVE_TABLE
    _ACTIVE_TABLE = table
    return previous


#: The single abstract heap location.
HEAP = AbsLoc("heap", HEAP_KIND)

#: The NULL pseudo-location.
NULL = AbsLoc("NULL", NULL_KIND)


def global_loc(name: str) -> AbsLoc:
    return AbsLoc(name, GLOBAL_KIND)


def function_loc(name: str) -> AbsLoc:
    return AbsLoc(name, FUNCTION_KIND)


def retval_loc(func: str) -> AbsLoc:
    return AbsLoc("__retval", RETVAL_KIND, func)


#: Deepest symbolic level generated; beyond it the deepest name is
#: reused, so it represents every deeper invisible variable (safe,
#: possibly imprecise — the paper's scheme is equally k-limited by the
#: finiteness of the caller's points-to set).
MAX_SYMBOLIC_LEVEL = 9

#: Longest field suffix kept in a symbolic name.  Longer access paths
#: are truncated (idempotently), bounding the name space so that the
#: recursion fixed point of Figure 4 terminates on programs that grow
#: stack-allocated recursive structures without bound.
MAX_SYMBOLIC_FIELDS = 4


def symbolic_name(
    source: AbsLoc,
    max_level: int = MAX_SYMBOLIC_LEVEL,
    max_fields: int = MAX_SYMBOLIC_FIELDS,
) -> str:
    """Derive the symbolic name for the target of ``source``.

    Pure pointer chains reproduce the paper's names: the target of
    formal ``x`` is ``1_x``, the target of ``1_x`` is ``2_x``, ...
    Field paths are folded into the name so that targets reached
    through different fields get distinct symbolic names.  Levels and
    field suffixes are capped so the name space is finite; at the cap
    the name reproduces itself, so derivation always terminates.
    """
    base = source.base
    level = 0
    origin = base
    old_fields: list[str] = []
    symbolic = source.kind is SYMBOLIC_KIND
    if symbolic:
        prefix, _, rest = base.partition("_")
        if prefix.isdigit():
            level = int(prefix)
            origin = rest
            origin, _, old_suffix = origin.partition("$")
            if old_suffix:
                old_fields = old_suffix.rstrip("+").split(".")
    if symbolic and level >= max_level:
        return base  # deepest symbolic absorbs everything below it
    new_level = min(level + 1, max_level)
    fields = old_fields + [p for p in source.path if p not in ARRAY_PARTS]
    truncated = len(fields) > max_fields
    fields = fields[:max_fields]
    suffix = ""
    if fields:
        suffix = "$" + ".".join(fields) + ("+" if truncated else "")
    return f"{new_level}_{origin}{suffix}"
