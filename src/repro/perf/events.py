"""Canonical performance-event names.

The interpreter emits one event per dynamic operation; a
:class:`~repro.simd.machine.MachineDescription` prices each event in cycles.
Keeping events symbolic separates *what the program did* (machine
independent) from *what it costs* (machine dependent), which is exactly the
split the paper's cost model needs when comparing tape-access strategies.

Naming scheme::

    s_alu / s_mul / s_div      scalar add-like / multiply / divide
    v_alu / v_mul / v_div      vector forms (one event covers SW lanes)
    s_load / s_store           scalar tape or array access
    v_load / v_store           vector access (aligned)
    v_load_u / v_store_u       vector access (unaligned)
    pack / unpack              insert / extract one scalar lane
    permute                    extract_even / extract_odd style shuffle
    splat                      broadcast scalar to all lanes
    m_<func> / vm_<func>       math intrinsic call, scalar / vector
    loop                       loop back-edge overhead (cmp + inc + branch)
    fire                       per-firing overhead (call + schedule loop)
    addr                       software lane-order address translation
                               (Figure 8: ~6 cycles on Core i7)
    sagu                       SAGU-assisted address generation (Figure 9)
    comm                       inter-core transfer of one element

The charge sheet at the bottom says which events a construct emits: a
binary op's class, a strided gather or scatter under each §3.4 strategy,
and the per-access price of a lane-ordered tape.  The derived engines
(closure compiler, batch kernels, movers) and the static estimator all
charge through it; the interpreter and ``executor._fire_*`` keep their own
copies on purpose, as the reference the counter-parity suites compare
against.
"""

from __future__ import annotations

import math
from typing import Tuple

SCALAR_ALU = "s_alu"
SCALAR_MUL = "s_mul"
SCALAR_DIV = "s_div"
VECTOR_ALU = "v_alu"
VECTOR_MUL = "v_mul"
VECTOR_DIV = "v_div"
SCALAR_LOAD = "s_load"
SCALAR_STORE = "s_store"
VECTOR_LOAD = "v_load"
VECTOR_STORE = "v_store"
VECTOR_LOAD_U = "v_load_u"
VECTOR_STORE_U = "v_store_u"
PACK = "pack"
UNPACK = "unpack"
PERMUTE = "permute"
SPLAT = "splat"
LOOP = "loop"
FIRE = "fire"
ADDR = "addr"
SAGU = "sagu"
COMM = "comm"


def scalar_math(func: str) -> str:
    return f"m_{func}"


def vector_math(func: str) -> str:
    return f"vm_{func}"


# --- the charge sheet ----------------------------------------------------------

#: ``(event, count)`` pairs, in the order the interpreter charges them.
Charges = Tuple[Tuple[str, int], ...]


class UnknownStrategy(ValueError):
    """A gather or scatter names none of §3.4's strategies: ``scalar``,
    ``permute`` or ``sagu``."""


def binary_op_event(op: str, vector: bool) -> str:
    """``*`` is a multiply, ``/`` and ``%`` a divide, anything else an ALU
    op; ``vector`` (either operand is a vector) picks the vector form."""
    if op == "*":
        return VECTOR_MUL if vector else SCALAR_MUL
    if op in ("/", "%"):
        return VECTOR_DIV if vector else SCALAR_DIV
    return VECTOR_ALU if vector else SCALAR_ALU


def lane_event(has_sagu: bool) -> str:
    """Extra event of one scalar access to a lane-ordered tape: the SAGU's
    increment (Figure 9) or software address translation (Figure 8)."""
    return SAGU if has_sagu else ADDR


def _strided(kind: str, strategy: str, stride: int, sw: int,
             scalar: str, lane: str, unaligned: str, aligned: str
             ) -> Charges:
    if strategy == "scalar":
        return ((scalar, sw), (lane, sw))
    if strategy == "permute":
        if stride > 1:
            return ((unaligned, 1), (PERMUTE, int(math.log2(stride))))
        return ((unaligned, 1),)
    if strategy == "sagu":
        return ((aligned, 1),)
    raise UnknownStrategy(f"unknown {kind} strategy {strategy!r}")


def gather_events(strategy: str, stride: int, sw: int) -> Charges:
    """One ``sw``-lane gather at ``stride``: ``sw`` scalar loads and packs,
    an unaligned load plus ``lg2(stride)`` extract-even/odd permutes, or
    one aligned load (the scalar neighbour pays :func:`lane_event`)."""
    return _strided("gather", strategy, stride, sw,
                    SCALAR_LOAD, PACK, VECTOR_LOAD_U, VECTOR_LOAD)


def scatter_events(strategy: str, stride: int, sw: int) -> Charges:
    """The store-side mirror of :func:`gather_events`."""
    return _strided("scatter", strategy, stride, sw,
                    SCALAR_STORE, UNPACK, VECTOR_STORE_U, VECTOR_STORE)
