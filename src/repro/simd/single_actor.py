"""Single-actor SIMDization (§3.1).

Transforms ``SW`` consecutive firings of a stateless actor into one
data-parallel firing:

* every ``pop()`` becomes a strided gather: lane ``k`` reads the element at
  offset ``k * pop_rate`` (the peek/peek/peek/pop idiom of Figure 3b);
* every ``peek(e)`` becomes a strided gather at ``e + k * pop_rate``;
* every ``push(v)`` becomes a strided scatter: lane ``k`` writes at offset
  ``k * push_rate`` (the rpush/rpush/rpush/push idiom);
* variables fed by tape data are re-typed as vectors (the paper's marking
  algorithm); untouched scalars are broadcast at use;
* a trailing reader/writer advance closes out the ``(SW-1) * rate`` items
  the strided groups covered beyond the per-group pointer bumps.

The same rewriter vectorizes vertically fused coarse actors: their internal
buffer operations (``InternalPush``/``InternalPop``) carry whole vectors
after the transformation, which is exactly the §3.2 pack/unpack
elimination (execution reordering makes lane ``k`` of each internal vector
belong to the ``k``-th parallel coarse execution — Figure 5e-g).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Set

from ..graph.actor import FilterSpec
from ..ir import expr as E
from ..ir import stmt as S
from ..ir.types import Scalar, Vector
from ..ir.visitors import rewrite_body_exprs, rewrite_body_stmts
from .analysis import expr_is_vector, tainted_vars


def vectorize_actor(spec: FilterSpec, sw: int) -> FilterSpec:
    """Return the SIMDized version of ``spec`` for SIMD width ``sw``.

    The caller is responsible for having established SIMDizability
    (:func:`repro.simd.analysis.analyze_filter`).
    """
    if sw < 2:
        raise ValueError(f"SIMD width must be >= 2, got {sw}")
    pop_stride = spec.pop
    push_stride = spec.push
    vector_vars = tainted_vars(spec.work_body)

    def rewrite(e: E.Expr) -> E.Expr:
        if isinstance(e, E.Pop):
            return E.GatherPop(stride=pop_stride)
        if isinstance(e, E.Peek):
            return E.GatherPeek(e.offset, stride=pop_stride)
        return e

    body = rewrite_body_exprs(spec.work_body, rewrite)

    def vectorize_stmt(stmt: S.Stmt) -> S.Stmt:
        if isinstance(stmt, S.Push):
            stmt = S.ScatterPush(stmt.value, stride=push_stride)
        return retype_stmt(stmt, vector_vars, sw)

    body = rewrite_body_stmts(body, vectorize_stmt)

    trailer: list[S.Stmt] = []
    if pop_stride > 0:
        trailer.append(S.AdvanceReader((sw - 1) * pop_stride))
    if push_stride > 0:
        trailer.append(S.AdvanceWriter((sw - 1) * push_stride))

    return replace(
        spec,
        name=f"{spec.name}_v",
        pop=spec.pop * sw,
        push=spec.push * sw,
        # Availability requirement: lane SW-1 peeks up to
        # (SW-1)*pop + peek - 1, so peek' = (SW-1)*pop + peek; the residual
        # delta (peek' - pop') equals the scalar actor's peek - pop.
        peek=(sw - 1) * spec.pop + spec.peek,
        work_body=body + tuple(trailer),
    )


def retype_stmt(stmt: S.Stmt, vector_vars: Set[str], sw: int) -> S.Stmt:
    """Declare a name in ``vector_vars`` as a vector, and splat a
    lane-invariant value stored to a vector tape or internal buffer: it is
    identical across the SW merged executions — a broadcast."""
    if isinstance(stmt, S.DeclVar) and stmt.name in vector_vars \
            and isinstance(stmt.type, Scalar):
        return replace(stmt, type=Vector(stmt.type, sw))
    if isinstance(stmt, S.DeclArray) and stmt.name in vector_vars \
            and isinstance(stmt.elem_type, Scalar):
        return replace(stmt, elem_type=Vector(stmt.elem_type, sw))
    if isinstance(stmt, (S.VPush, S.ScatterPush, S.InternalPush)) \
            and not expr_is_vector(stmt.value, vector_vars):
        return replace(stmt, value=E.Broadcast(stmt.value, sw))
    return stmt
