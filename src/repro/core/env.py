"""Per-function analysis environments: the *abstract stack*.

A :class:`FuncEnv` resolves variable names to abstract locations, types
abstract locations (walking field/array paths), registers symbolic
names as the mapping process creates them, and enumerates the
pointer-relevant sub-paths of aggregate types (used for structure
assignment decomposition and NULL initialization).
"""

from __future__ import annotations

from repro.frontend.ctypes import (
    ArrayType,
    CType,
    FunctionType,
    PointerType,
    StructType,
)
from repro.simple.ir import SimpleProgram
from repro.core.locations import (
    FUNCTION_KIND,
    GLOBAL_KIND,
    HEAD,
    LOCAL_KIND,
    PARAM_KIND,
    RETVAL_KIND,
    SYMBOLIC_KIND,
    TAIL,
    AbsLoc,
    retval_loc,
)


class FuncEnv:
    """Name resolution and typing for one function's abstract stack."""

    def __init__(self, program: SimpleProgram, func: str | None):
        self.program = program
        self.func = func
        self.fn = program.functions.get(func) if func else None
        self._symbolic_types: dict[str, CType | None] = {}
        self._param_names = set(self.fn.param_names) if self.fn else set()
        #: Optional observer called on every symbolic registration with
        #: (func, name, canonical type) — the incremental seed capture
        #: uses it to record which invisible variables a memoized
        #: computation introduced, so a seed hit can replay them.
        self.on_symbolic = None
        #: name -> its resolved location.  A resolution never changes:
        #: symbolic names (``1_x``) are not C identifiers, so
        #: registering one cannot shadow a name already resolved.
        self._var_locs: dict[str, AbsLoc] = {}

    # -- variable resolution ----------------------------------------------

    def var_loc(self, name: str) -> AbsLoc:
        """The abstract location of a named variable in this scope."""
        loc = self._var_locs.get(name)
        if loc is None:
            loc = self._var_locs[name] = self._resolve(name)
        return loc

    def _resolve(self, name: str) -> AbsLoc:
        if self.fn is not None:
            if name in self._param_names:
                return AbsLoc(name, PARAM_KIND, self.func)
            if name in self.fn.local_types:
                return AbsLoc(name, LOCAL_KIND, self.func)
        if name in self._symbolic_types:
            return AbsLoc(name, SYMBOLIC_KIND, self.func)
        if name in self.program.global_types:
            return AbsLoc(name, GLOBAL_KIND)
        if name in self.program.functions or name in self.program.externals:
            return AbsLoc(name, FUNCTION_KIND)
        raise KeyError(f"unknown variable '{name}' in {self.func or '<global>'}")

    def retval(self) -> AbsLoc:
        assert self.func is not None
        return retval_loc(self.func)

    # -- symbolic names -----------------------------------------------------

    def register_symbolic(self, name: str, ctype: CType | None) -> AbsLoc:
        """Register (or re-use) a symbolic location; names are
        context-free within the function, so re-registration with a
        different type keeps the first type seen."""
        if name not in self._symbolic_types:
            self._symbolic_types[name] = ctype
        if self.on_symbolic is not None:
            # Report the canonical (first-seen) type, so a replay in
            # any order re-registers the same binding.
            self.on_symbolic(self.func, name, self._symbolic_types[name])
        return AbsLoc(name, SYMBOLIC_KIND, self.func)

    def symbolic_names(self) -> list[str]:
        return list(self._symbolic_types)

    # -- typing ---------------------------------------------------------------

    def base_type(self, loc: AbsLoc) -> CType | None:
        kind = loc.kind
        if kind is LOCAL_KIND or kind is PARAM_KIND:
            assert self.fn is not None
            return self.fn.var_type(loc.base)
        if kind is GLOBAL_KIND:
            return self.program.global_types.get(loc.base)
        if kind is SYMBOLIC_KIND:
            return self._symbolic_types.get(loc.base)
        if kind is FUNCTION_KIND:
            proto = self.program.externals.get(loc.base)
            if proto is None and loc.base in self.program.functions:
                fn = self.program.functions[loc.base]
                proto = FunctionType(
                    fn.return_type,
                    tuple(t for _, t in fn.params),
                    fn.variadic,
                )
            return proto
        if kind is RETVAL_KIND:
            fn = self.program.functions.get(loc.func or "")
            return fn.return_type if fn else None
        return None  # heap / NULL are untyped

    def type_of_loc(self, loc: AbsLoc) -> CType | None:
        """Walk ``loc``'s path from its base type; None when unknown
        (heap, untyped symbolics, type confusion)."""
        current = self.base_type(loc)
        for element in loc.path:
            if current is None:
                return None
            if element in (HEAD, TAIL):
                if isinstance(current, ArrayType):
                    # Flattened array abstraction: one head/tail layer
                    # stands for all dimensions.
                    current = current.strip_arrays()
                else:
                    return None
            else:
                if isinstance(current, StructType):
                    current = current.field_type(element)
                else:
                    return None
        return current

    def loc_is_array(self, loc: AbsLoc) -> bool:
        return isinstance(self.type_of_loc(loc), ArrayType)

    # -- aggregate decomposition ----------------------------------------------

    def pointer_paths(self, ctype: CType | None) -> list[tuple[str, ...]]:
        """All sub-paths of ``ctype`` holding a pointer value.

        A scalar pointer yields the empty path; aggregates yield one
        path per pointer-typed leaf (array layers contribute both
        ``[head]`` and ``[tail]``).
        """
        if ctype is None:
            return []
        result: list[tuple[str, ...]] = []
        self._collect_pointer_paths(ctype, (), result)
        return result

    def _collect_pointer_paths(
        self,
        ctype: CType,
        prefix: tuple[str, ...],
        out: list[tuple[str, ...]],
        depth: int = 0,
    ) -> None:
        if depth > 12:  # defensive bound; C value types are finite anyway
            return
        if isinstance(ctype, PointerType):
            out.append(prefix)
            return
        if isinstance(ctype, ArrayType):
            # One head/tail split per array: nested array layers are
            # flattened (the paper uses 2 abstract locations per array).
            element = ctype.element
            while isinstance(element, ArrayType):
                element = element.element
            if element.involves_pointers():
                self._collect_pointer_paths(
                    element, prefix + (HEAD,), out, depth + 1
                )
                self._collect_pointer_paths(
                    element, prefix + (TAIL,), out, depth + 1
                )
            return
        if isinstance(ctype, StructType):
            for field in ctype.fields:
                if field.type.involves_pointers():
                    self._collect_pointer_paths(
                        field.type, prefix + (field.name,), out, depth + 1
                    )

    def involves_pointers(self, ctype: CType | None) -> bool:
        return ctype is not None and ctype.involves_pointers()
