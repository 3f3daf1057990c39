"""Typed constant abstraction for kernel caching.

The kernel cache must equate exactly the actor bodies that
:func:`repro.ir.structhash.isomorphic` equates (horizontal-fusion
candidates): identical structure up to numeric literals, ``Param``
bindings, and coefficient-table initialisers.  We reuse the same slot
naming and traversal order as :mod:`repro.ir.structhash`, but record the
abstracted constants **with their Python types intact** — the interpreter's
C-style ``/`` and ``%`` distinguish ``IntConst(2)`` from
``FloatConst(2.0)``, so a cache that coerced everything to ``float`` (as
the isomorphism check harmlessly does) would change semantics.

``typed_canonicalize`` returns the canonical body (the cache key) plus the
per-instance constant tuple that the shared kernel is instantiated with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Optional, Tuple

from ...ir import expr as E
from ...ir import stmt as S
from ...ir.structhash import _SLOT as SLOT_PREFIX
from ...ir.visitors import (iter_all_exprs, iter_stmts, rewrite_body_exprs,
                           rewrite_body_stmts)


class _ParamSlot:
    """Marker recorded for an unbound ``Param`` (never valid at runtime)."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<unbound param {self.name!r}>"


def is_param_slot(value: Any) -> bool:
    return isinstance(value, _ParamSlot)


@dataclass(frozen=True)
class TypedCanonical:
    """A constant-abstracted body plus its typed constant sequence."""

    body: S.Body
    consts: Tuple[Any, ...]


def slot_index(name: str) -> Optional[int]:
    """Return the constant-slot index encoded in ``name``, or ``None``."""
    if name.startswith(SLOT_PREFIX):
        try:
            return int(name[len(SLOT_PREFIX):])
        except ValueError:
            return None
    return None


def array_slot_index(init: Any) -> Optional[int]:
    """Return the slot index of an abstracted ``DeclArray`` initialiser."""
    if (isinstance(init, tuple) and len(init) == 2
            and init[0] == SLOT_PREFIX and isinstance(init[1], int)):
        return init[1]
    return None


def typed_canonicalize(body: S.Body) -> TypedCanonical:
    """Abstract every constant of ``body``, preserving value types.

    The canonical body discriminates exactly as
    :func:`repro.ir.structhash.canonicalize` does: two bodies receive equal
    canonical forms iff they are structhash-isomorphic.  ``DeclArray``
    initialisers are recorded as one tuple-valued constant (rather than one
    float per element) so vector-lane tuple initialisers survive intact.
    """
    consts: list[Any] = []

    def abstract(e: E.Expr) -> E.Expr:
        if isinstance(e, (E.IntConst, E.FloatConst)):
            consts.append(e.value)
            return E.Var(f"{SLOT_PREFIX}{len(consts) - 1}")
        if isinstance(e, E.Param):
            consts.append(_ParamSlot(e.name))
            return E.Var(f"{SLOT_PREFIX}{len(consts) - 1}")
        return e

    canon = rewrite_body_exprs(body, abstract)

    def abstract_array_inits(stmt: S.Stmt) -> S.Stmt:
        if isinstance(stmt, S.DeclArray) and stmt.init is not None:
            consts.append(stmt.init)
            return S.DeclArray(stmt.name, stmt.elem_type, stmt.size,
                               (SLOT_PREFIX, len(consts) - 1))
        return stmt

    canon = rewrite_body_stmts(canon, abstract_array_inits)
    return TypedCanonical(canon, tuple(consts))


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
    ``VectorConst((1, 2))`` to ``VectorConst((1.0, 2.0))``, so a memo keyed
    by body equality must also compare this before it serves an entry
    built from another, equal body object."""
    out = [_exact(e.values if isinstance(e, E.VectorConst) else e.value)
           for e in iter_all_exprs(body) if isinstance(e, _CONSTS)]
    out.extend(_exact(stmt.init) for stmt in iter_stmts(body)
               if isinstance(stmt, S.DeclArray) and stmt.init is not None)
    return tuple(out)
