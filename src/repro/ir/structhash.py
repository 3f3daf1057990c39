"""Structural hashing of work functions with constants abstracted.

Horizontal SIMDization (§3.3) treats two actors as *isomorphic* when their
work and init functions are identical up to constant literals and parameter
bindings.  We canonicalise each body by replacing every numeric constant and
``Param`` with a positional placeholder; two bodies are isomorphic iff their
canonical forms are equal.  The sequence of abstracted constants (one per
actor) is exactly the data horizontal SIMDization packs into
:class:`~repro.ir.expr.VectorConst` vectors.

That equivalence is a compile-time decision only.  A runtime memo keyed
by a body (the closure kernels, the batch kernels) keys it by the body
itself, and serves an entry built from an equal but different body
object only under :func:`same_constants`: IR ``==`` ignores a
constant's type and a float's sign, which the interpreter does not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Tuple

from . import expr as E
from . import stmt as S
from .visitors import (iter_all_exprs, iter_stmts, rewrite_body_exprs,
                       rewrite_body_stmts)

#: Marker name used for abstracted constant slots.
_SLOT = "__const_slot__"


@dataclass(frozen=True)
class CanonicalForm:
    """A constant-abstracted body plus the extracted constant sequence."""

    body: S.Body
    constants: Tuple[float, ...]

    @property
    def shape_key(self) -> int:
        """Hash identifying the structure (constants excluded)."""
        return hash(self.body)


def canonicalize(body: S.Body) -> CanonicalForm:
    """Return the canonical form of ``body``.

    Every ``IntConst``/``FloatConst``/``Param`` is replaced by a ``Var`` whose
    name encodes its abstraction index, and its value is recorded.  ``Param``
    values are recorded as ``float('nan')`` placeholders — callers instantiate
    params before canonicalising real actor instances, so a ``Param`` here
    simply means "template slot".
    """
    constants: list[float] = []

    def abstract(e: E.Expr) -> E.Expr:
        if isinstance(e, (E.IntConst, E.FloatConst)):
            constants.append(float(e.value))
            return E.Var(f"{_SLOT}{len(constants) - 1}")
        if isinstance(e, E.Param):
            constants.append(float("nan"))
            return E.Var(f"{_SLOT}{len(constants) - 1}")
        return e

    canon = rewrite_body_exprs(body, abstract)

    def abstract_array_inits(stmt: S.Stmt) -> S.Stmt:
        # Coefficient tables (DeclArray initialisers) are data constants:
        # two FIR filters differing only in their taps are isomorphic.
        if isinstance(stmt, S.DeclArray) and stmt.init is not None:
            constants.extend(float(v) for v in stmt.init)
            return S.DeclArray(stmt.name, stmt.elem_type, stmt.size,
                               (_SLOT,) * stmt.size)
        return stmt

    canon = rewrite_body_stmts(canon, abstract_array_inits)
    return CanonicalForm(canon, tuple(constants))


def isomorphic(body_a: S.Body, body_b: S.Body) -> bool:
    """True when the two bodies are identical up to constant literals."""
    return canonicalize(body_a).body == canonicalize(body_b).body


def _exact(value: Any) -> Any:
    """A constant's type, plus its sign if it is a float (``-0.0``)."""
    if type(value) is tuple:
        return tuple(map(_exact, value))
    if type(value) is float:
        return (float, math.copysign(1.0, value))
    return type(value)


_CONSTS = (E.IntConst, E.FloatConst, E.BoolConst, E.VectorConst)


def exact_consts(body: S.Body) -> Tuple[Any, ...]:
    """Every constant's type and float sign in ``body``, in walk order.

    IR ``==`` holds ``FloatConst(0.0)`` equal to ``FloatConst(-0.0)`` and
    ``VectorConst((1, 2))`` to ``VectorConst((1.0, 2.0))``; this tells
    them apart."""
    out = [_exact(e.values if isinstance(e, E.VectorConst) else e.value)
           for e in iter_all_exprs(body) if isinstance(e, _CONSTS)]
    out.extend(_exact(stmt.init) for stmt in iter_stmts(body)
               if isinstance(stmt, S.DeclArray) and stmt.init is not None)
    return tuple(out)


def same_constants(built_from: S.Body, body: S.Body) -> bool:
    """Whether a memo entry built from ``built_from`` may serve the equal
    body ``body``: the same object, or every constant's type and sign
    match (see :func:`exact_consts`)."""
    return built_from is body or \
        exact_consts(built_from) == exact_consts(body)
