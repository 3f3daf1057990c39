"""Static value-shape lattice for kernel specialisation.

The interpreter decides *scalar vs. vector* per operation at runtime with
``is_vector_value``; the compiled backend decides it at compile time
wherever the IR makes the answer certain, which lets it (a) emit direct
Python arithmetic instead of generic dispatch and (b) fold the
corresponding performance events into a block's static counter delta.

The lattice is deliberately tiny::

    SCALAR          definitely a Python int/float/bool
    VECTOR          definitely a list of scalars
    ("array", s)    a declared array whose elements have shape ``s``
    UNKNOWN         anything (forces the generic runtime path)

``merge`` is the join: equal shapes join to themselves, arrays join
element-wise, everything else degrades to ``UNKNOWN``.  Compiled fast
paths guard their shape assumptions and raise loudly on violation rather
than ever computing a silently-different answer.
"""

from __future__ import annotations

from typing import Any

from ...graph.actor import StateVar
from ...ir.types import IRType, Vector

SCALAR = "scalar"
VECTOR = "vector"
UNKNOWN = "unknown"

Shape = Any  # SCALAR | VECTOR | UNKNOWN | ("array", Shape)


def array_of(elem: Shape) -> Shape:
    return ("array", elem)


def elem_shape(shape: Shape) -> Shape:
    """Element shape of an array shape (``UNKNOWN`` for non-arrays)."""
    return shape[1] if isinstance(shape, tuple) else UNKNOWN


def merge(a: Shape, b: Shape) -> Shape:
    if a == b:
        return a
    if isinstance(a, tuple) and isinstance(b, tuple):
        return ("array", merge(a[1], b[1]))
    return UNKNOWN


def is_list_shape(shape: Shape) -> bool:
    """True when the runtime value is certainly a Python list (vectors and
    whole arrays both satisfy ``is_vector_value``)."""
    return shape is VECTOR or isinstance(shape, tuple)


def shape_of_type(ty: IRType) -> Shape:
    return VECTOR if isinstance(ty, Vector) else SCALAR


def shape_of_state(var: StateVar) -> Shape:
    """Declared shape of a state variable's runtime value."""
    base = shape_of_type(var.type)
    return array_of(base) if var.is_array else base
