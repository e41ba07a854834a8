"""``iter_stmts`` keeps the recursive pre-order, without recursion.

The reference traversal below is the recursive generator
``iter_stmts`` used to be; the explicit-stack version must yield the
identical statement sequence on every program of the golden-digest
corpus and ``examples/``, and must walk trees far deeper than the
recursion limit.
"""

from __future__ import annotations

import pytest

from repro.simple.ir import (
    BasicKind,
    BasicStmt,
    SBlock,
    SDoWhile,
    SFor,
    SIf,
    SSwitch,
    SWhile,
    iter_stmts,
)
from repro.simple.simplify import simplify_source

from ..frontend.test_lexer_contract import corpus


def reference_iter(stmt):
    """The recursive pre-order traversal (reference only)."""
    yield stmt
    if isinstance(stmt, SBlock):
        for child in stmt.stmts:
            yield from reference_iter(child)
    elif isinstance(stmt, SIf):
        yield from reference_iter(stmt.then_block)
        if stmt.else_block is not None:
            yield from reference_iter(stmt.else_block)
    elif isinstance(stmt, SWhile):
        yield from reference_iter(stmt.cond_eval)
        yield from reference_iter(stmt.body)
    elif isinstance(stmt, SDoWhile):
        yield from reference_iter(stmt.body)
        yield from reference_iter(stmt.cond_eval)
    elif isinstance(stmt, SFor):
        yield from reference_iter(stmt.init)
        yield from reference_iter(stmt.cond_eval)
        yield from reference_iter(stmt.step)
        yield from reference_iter(stmt.body)
    elif isinstance(stmt, SSwitch):
        for case in stmt.cases:
            yield from reference_iter(case.body)


def ids(walk) -> list[int]:
    """Object identities: hand-built statements outside a program all
    carry stmt_id 0, so ids cannot tell them apart."""
    return [id(stmt) for stmt in walk]


@pytest.mark.parametrize("name", sorted(corpus()))
def test_same_order_as_recursive_reference(name):
    program = simplify_source(corpus()[name])
    roots = [program.global_init] + [
        program.functions[func].body for func in sorted(program.functions)
    ]
    for root in roots:
        assert ids(iter_stmts(root)) == ids(reference_iter(root))
    for fn in program.functions.values():
        assert ids(fn.iter_stmts()) == ids(reference_iter(fn.body))


def test_walks_a_tree_deeper_than_the_recursion_limit():
    depth = 5000
    leaf = BasicStmt(BasicKind.NOP)
    root = SBlock([leaf])
    expected = [id(root), id(leaf)]
    for _ in range(depth):
        sif = SIf(None, root)
        root = SBlock([sif])
        expected = [id(root), id(sif)] + expected
    assert ids(iter_stmts(root)) == expected
