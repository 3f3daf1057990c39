"""Inner-loop auto-vectorization model.

A small but *functional* loop vectorizer recognising the two loop idioms
that dominate the StreamIt suite's work functions and rewriting them the
way GCC/ICC would:

* **Reduction**: ``for (i: 0..N) acc = acc + f(peek(i+c), arr[i+c], inv)``
  becomes a vector accumulator updated ``N/SW`` times from unit-stride
  vector loads, followed by a horizontal sum.  (Reassociates the sum —
  which is precisely why real compilers need ``-ffast-math`` here, and why
  auto-vectorized outputs differ in the last ulps.)
* **Streaming map**: ``for (i: 0..N) push(f(pop(), arr[i+c], inv))``
  becomes ``N/SW`` iterations of vector-load / compute / vector-store.

Only unit strides are recognised; ``N`` must be a compile-time constant
multiple of the SIMD width; the loop body must be a single statement of
the right shape.  Everything else is left scalar — exactly the brittleness
the paper attributes to traditional auto-vectorization.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Set

from ..ir import expr as E
from ..ir import lvalue as L
from ..ir import stmt as S
from ..ir.types import FLOAT, Vector
from ..ir.visitors import iter_expr, rewrite_body_stmts, rewrite_expr
from ..simd.analysis import expr_is_vector
from ..simd.machine import MachineDescription
from .profiles import CompilerProfile


@dataclass
class LoopVecStats:
    """How many loops the inner-loop vectorizer transformed."""

    reductions: int = 0
    maps: int = 0

    @property
    def total(self) -> int:
        return self.reductions + self.maps


def _affine_unit(expr: E.Expr, var: str) -> Optional[E.Expr]:
    """If ``expr`` is ``var`` or ``var + c`` / ``c + var`` (unit stride in
    ``var``), return the additive-constant expression (IntConst 0 for bare
    ``var``); otherwise None."""
    if isinstance(expr, E.Var) and expr.name == var:
        return E.IntConst(0)
    if isinstance(expr, E.BinaryOp) and expr.op == "+":
        if isinstance(expr.left, E.Var) and expr.left.name == var \
                and _is_invariant(expr.right, var):
            return expr.right
        if isinstance(expr.right, E.Var) and expr.right.name == var \
                and _is_invariant(expr.left, var):
            return expr.left
    return None


def _is_invariant(expr: E.Expr, var: str) -> bool:
    return all(not (isinstance(node, E.Var) and node.name == var)
               for node in iter_expr(expr))


def _body_supported(expr: E.Expr, var: str, profile: CompilerProfile,
                    machine: MachineDescription, *, allow_pop: bool) -> bool:
    """Check every node of the candidate loop body expression."""
    pops = 0
    for node in iter_expr(expr):
        if isinstance(node, E.Call):
            if not profile.vectorizes_math_calls:
                return False
            if not machine.supports_vector_call(node.func):
                return False
        elif isinstance(node, E.Peek):
            if not profile.handles_peeking:
                return False
            if _affine_unit(node.offset, var) is None:
                return False
        elif isinstance(node, E.Pop):
            pops += 1
            if not allow_pop or pops > 1:
                return False
        elif isinstance(node, E.ArrayRead):
            index = node.index
            if not _is_invariant(index, var) \
                    and _affine_unit(index, var) is None:
                return False
        elif isinstance(node, E.Select):
            if not profile.if_conversion:
                return False
        elif isinstance(node, E.Lane) or expr_is_vector(node, ()):
            return False  # already-vectorized code: leave alone
    return True


def _widen_index(expr: E.Expr, var: str, sw: int) -> E.Expr:
    """Rewrite index/offset expressions for the strip-mined loop: the loop
    variable now counts vectors, so ``var`` becomes ``var * SW``."""

    def widen(e: E.Expr) -> E.Expr:
        if isinstance(e, E.Var) and e.name == var:
            return E.BinaryOp("*", e, E.IntConst(sw))
        return e

    return rewrite_expr(expr, widen)


def _vectorize_value(expr: E.Expr, var: str, sw: int) -> E.Expr:
    """Rewrite the loop-body value expression into its vector form."""

    def vectorize(e: E.Expr) -> E.Expr:
        if isinstance(e, E.Peek):
            offset = _affine_unit(e.offset, var)
            if offset is not None:
                return E.GatherPeek(_widen_index(e.offset, var, sw), stride=1,
                                    strategy="permute")
            return e
        if isinstance(e, E.Pop):
            return E.GatherPop(stride=1, advance=sw, strategy="permute")
        if isinstance(e, E.ArrayRead):
            if _affine_unit(e.index, var) is not None:
                return E.ArrayVec(e.name, _widen_index(e.index, var, sw))
            return e
        return e

    return rewrite_expr(expr, vectorize)


def _match_reduction(stmt: S.For) -> Optional[tuple[str, E.Expr]]:
    """Match ``for(i) acc = acc + term``; return (acc, term)."""
    if len(stmt.body) != 1:
        return None
    inner = stmt.body[0]
    if not isinstance(inner, S.Assign) or not isinstance(inner.lhs, L.VarLV):
        return None
    acc = inner.lhs.name
    rhs = inner.rhs
    if not (isinstance(rhs, E.BinaryOp) and rhs.op == "+"):
        return None
    if isinstance(rhs.left, E.Var) and rhs.left.name == acc:
        return acc, rhs.right
    if isinstance(rhs.right, E.Var) and rhs.right.name == acc:
        return acc, rhs.left
    return None


def _match_map(stmt: S.For) -> Optional[E.Expr]:
    """Match ``for(i) push(term)``; return the term."""
    if len(stmt.body) != 1:
        return None
    inner = stmt.body[0]
    if isinstance(inner, S.Push):
        return inner.value
    return None


def _cheaper(original: S.Stmt, replacement: "tuple[S.Stmt, ...]",
             machine: MachineDescription) -> bool:
    """The compiler's profitability check: keep the vectorized loop only if
    the static cost model says it wins (short reductions lose to the
    horizontal-sum epilogue)."""
    from ..simd.cost_model import estimate_body_events
    try:
        before = estimate_body_events((original,), machine.simd_width)
        after = estimate_body_events(replacement, machine.simd_width)
        return after.cycles(machine) < before.cycles(machine)
    except Exception:
        return False


def vectorize_inner_loops(body: S.Body, profile: CompilerProfile,
                          machine: MachineDescription,
                          stats: LoopVecStats) -> S.Body:
    """Rewrite every vectorizable innermost loop in ``body``."""
    sw = machine.simd_width
    counter = [0]

    def transform(stmt: S.Stmt) -> "S.Stmt | tuple[S.Stmt, ...]":
        if not isinstance(stmt, S.For):
            return stmt
        if not (isinstance(stmt.start, E.IntConst)
                and isinstance(stmt.end, E.IntConst)):
            return stmt
        if stmt.start.value != 0:
            return stmt
        trip = stmt.end.value
        if trip < sw or trip % sw != 0:
            return stmt

        reduction = _match_reduction(stmt)
        if reduction is not None:
            acc, term = reduction
            # A single pop() in the reduction term is a unit-stride buffer
            # read (StreamIt lowers pops to buf[idx++]): vectorizable.
            if not _body_supported(term, stmt.var, profile, machine,
                                   allow_pop=True):
                return stmt
            if any(isinstance(n, E.Var) and n.name == acc
                   for n in iter_expr(term)):
                return stmt
            counter[0] += 1
            vacc = f"__av{counter[0]}_{acc}"
            hsum: E.Expr = E.Lane(E.Var(vacc), 0)
            for lane in range(1, sw):
                hsum = hsum + E.Lane(E.Var(vacc), lane)
            replacement = (
                S.DeclVar(vacc, Vector(FLOAT, sw),
                          E.Broadcast(E.FloatConst(0.0), sw)),
                S.For(stmt.var, E.IntConst(0), E.IntConst(trip // sw),
                      (S.Assign(L.VarLV(vacc),
                                E.Var(vacc)
                                + _vectorize_value(term, stmt.var, sw)),)),
                S.Assign(L.VarLV(acc), E.Var(acc) + hsum),
            )
            if not _cheaper(stmt, replacement, machine):
                return stmt
            stats.reductions += 1
            return replacement

        term = _match_map(stmt)
        if term is not None:
            if not _body_supported(term, stmt.var, profile, machine,
                                   allow_pop=True):
                return stmt
            replacement = (
                S.For(stmt.var, E.IntConst(0), E.IntConst(trip // sw),
                      (S.ScatterPush(_vectorize_value(term, stmt.var, sw),
                                     stride=1, strategy="permute"),
                       S.AdvanceWriter(sw - 1))),
            )
            if not _cheaper(stmt, replacement, machine):
                return stmt
            stats.maps += 1
            return replacement
        return stmt

    return rewrite_body_stmts(body, transform)
