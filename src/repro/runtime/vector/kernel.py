"""Whole-array batch kernels for the vector backend.

:func:`build_batch_kernel` abstract-interprets one actor's *work* body —
walking the exact same IR the tree-walking interpreter executes — and, when
the body's shape allows, emits a :class:`BatchKernel` that executes ``n``
consecutive firings as a handful of numpy array operations:

* every tape read becomes a strided **slab** view over the input tape's
  one ndarray window — int64 or float64 (``window[pos::A_in]`` is the
  column of values the ``k``-th firing would read at relative position
  ``pos``); on a vector tape the window is its ``(items, SW)`` float64
  rows and a ``vpop`` reads one column per lane,
  ``window[pos::A_in, lane]``;
* every arithmetic op becomes one elementwise array op over such columns;
* every tape write becomes one strided slice-assignment of an int64 or
  float64 column (:meth:`~repro.runtime.tape.Tape.write_strided`) — of an
  ``(n, SW)`` stack of lane columns for a ``vpush``;
* performance events are charged statically (``count × n``), exactly the
  totals the interpreter would have accumulated over ``n`` firings.

Parity is the contract: outputs **and** counter bags must be bit-identical
to the interpreter.  The builder therefore refuses (raises
:class:`Unvectorizable`, and the actor replays on the interpreter)
anything whose batch semantics it cannot prove exact:

* data-dependent control flow (``If`` on a tape value, non-constant peek
  offsets, vector branch conditions) and array indices derived from
  stream data;
* integer arithmetic it cannot bound below ``2**53`` in the float64
  register file (float64 carries integers exactly only up to that limit
  — a *bounds* table tracks the max magnitude of every column and emits
  runtime *checks*);
* overlapping strided writes, pushes of aliased vector values, state
  whose type would change under its update.

Scalar state takes one of two lanes.  A variable whose every in-firing
update folds to one **modular-affine map** ``s ← (a·s + c) % m`` of
build-time constants runs in closed form: the *affine induction*
``s ← s + c`` (``a = 1``, no modulus; ``int``, ``bool`` or dyadic
``float``) as ``base + k·c``, and the *modular recurrence* on an ``int``
state with integer ``a ≥ 0``, ``c ≥ 0``, ``0 < m ≤ 2**31`` — LCG
sources, and ring cursors ``(ph + 1) % 8`` as its ``a = 1`` case — as an
int64 *jump-ahead* scan: composition of such maps is associative, so the
firing's updates compose into one per-firing map ``F``, ``F⁰ … Fⁿ⁻¹``
come from a cached log-doubling table, and every in-firing read is one
``(A_j·S + C_j) % m`` column over the firing-start states ``S``.  It is
exact because nothing is ever negative — the IR's C-style truncated
``%`` and numpy's floored one coincide — and every int64 intermediate
``A·S + C`` stays below ``2**62 + 2**31 < 2**63``; the run-time guard is
``type(s) is int and 0 <= s < m``.  Every other scalar update (a float
recurrence ``acc·0.9 + x``, an accumulator folding stream data
``acc ← acc + pop()``, state times state, negative coefficients) runs on
the **sequential scan**: one ``seqscan`` instruction loops once over the
batch in firing order, applying the update chain with the interpreter's
own ``BINARY_IMPLS`` / ``UNARY_IMPLS`` / intrinsic callables to the
precomputed operand columns, and yields the state's value wherever a
column needs it plus the final state.  Python semantics make it exact by
construction; an integer value that must enter a column is checked below
``2**53``, and an error raised in the loop aborts the batch.

A state array the body writes is a **ring** when every index is a
constant or an integer state form (a ring cursor).  Its ``ring`` gather
takes the int64 slot column of every access in program order; a read's
source is the latest earlier write to its slot (the running maximum of
the write numbers over the accesses stably sorted by slot), or the
batch-start contents, and the read is one ``np.take`` over
``contents ++ written values`` (per lane for vector elements).  The final
contents are the same gather at batch end.  A written value that depends
on a ring read — a recurrence through the array — refuses.

Bitwise operators run in an **int64 lane**.  ``+ - * & | ^ <<`` are ring
ops, exact modulo ``2**64``: a ``w64`` register holds such a value, and
it becomes exact again under ``& c`` with a constant ``0 <= c < 2**63``
(DES's ``(rotated * 2654435761) & MASK``).  ``& | ^ >>`` of exact
operands stay exact.  Any other use of a ``w64`` register refuses at
build time, and so does a shift count that is not a constant in
``[0, 63]``; an exact int64 column enters the float64 file checked below
``2**53``.

Math intrinsics whose numpy implementation is bit-identical to the
``math``-module reference on this platform (:mod:`.np_compat`) run as one
numpy call; every other intrinsic — ``pow``, and whatever the probe
rejects — runs as one ``pycall`` instruction that maps the interpreter's
own callable over the batch's columns, so it is exact by construction.  A
domain error or a non-finite result aborts the batch, whose per-firing
replay then raises the interpreter's exception at the same firing.

The kernel is a plain register program: one instruction per register
(ordered so each follows the registers it reads — the ring gathers and
the scan are read by registers made before them in the walk), a flat
``(code, a, b)`` table for the registers' magnitude bounds, and a
per-instruction list of the registers whose last use it is (freed as the
batch runs, so an intermediate column does not outlive its readers).  It
holds no closures and no per-run state, so one kernel may be kept in the
backend's kernel cache and shared by every actor with the same build key,
on any core.

Even a successfully built kernel re-validates per batch (state types may
have drifted, the input may have no window — list storage, or a degraded
tape — or a window of the other kind, bounds may have grown, an output
column may have no array form): ``BatchKernel.run`` returns ``False`` —
and has changed **nothing** — when any guard fails, and the caller replays
the batch firing-by-firing on the interpreter.  Runtime surprises
inside array evaluation raise :class:`_Abort` internally and roll back the
same way (nothing is committed to tapes, state, or counters until every
array has been computed).

Four deliberately injectable defects, ``_MUT_READ_SHIFT`` (off-by-one
tail: shifts every slab read), ``_MUT_SWAP_SUB`` (wrong operand order on
subtraction), ``_MUT_SCAN_SHIFT`` (off-by-one in the jump-ahead index)
and ``_MUT_RING_SHIFT`` (off-by-one in a ring's last-writer index), exist
for the fuzz mutation tests: the differential oracle must catch all four.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from itertools import repeat
from operator import itemgetter
from typing import (Any, Callable, Dict, FrozenSet, Hashable, List, Optional,
                    Tuple)

from ...graph.actor import FilterSpec
from ...ir import expr as E
from ...ir import lvalue as L
from ...ir import stmt as S
from ...ir.types import Vector
from ...ir.visitors import iter_stmts
from ...perf import events as ev
from ..interpreter import ActorRuntime
from ..values import BINARY_IMPLS, UNARY_IMPLS, apply_binary, apply_math, \
    apply_unary, math_impl
from .np_compat import EXACT_INTRINSICS, NP_MATH, np

__all__ = ["Unvectorizable", "BatchKernel", "build_batch_kernel"]

#: float64 represents every integer of magnitude below this exactly.
_EXACT_LIMIT = float(2 ** 53)

#: Affine float state need not be integral to accumulate exactly: any
#: multiple of 2^-16 is a scaled integer, so sequential accumulation and
#: the closed-form ``base + k*delta`` agree exactly as long as the scaled
#: magnitude stays below 2^53 — i.e. the value stays below 2^37.
_DYADIC_SCALE = float(2 ** 16)
_DYADIC_LIMIT = _EXACT_LIMIT / _DYADIC_SCALE

#: Largest modulus of a batched recurrence ``s ← (a·s + c) % m``: with
#: ``a``, ``c`` and ``s`` all below ``m ≤ 2**31`` every int64 intermediate
#: ``a·s + c`` stays below ``2**62 + 2**31``.
_MOD_LIMIT = 2 ** 31

#: Jump-ahead table length; longer batches are scanned in chunks of this
#: many firings from the carried state, so a cached table stays 64 KiB.
_SCAN_CHUNK = 4096

#: The int64 lane: Python ints in ``[-2**63, 2**63)`` are exact in it.
_I64_MIN, _I64_SPAN = -2 ** 63, 2 ** 64

#: Abstract-walk step budget (guards against huge unrolled loops).
_MAX_WALK_STEPS = 20000

_INF = float("inf")

# -- mutation seams (fuzz mutation tests monkeypatch these) --------------------
#: When non-zero, every slab read is shifted by this many tape positions
#: (modulo the window) — the classic off-by-one-tail defect.
_MUT_READ_SHIFT = 0
#: When True, ``a - b`` computes ``b - a`` — wrong operand order.
_MUT_SWAP_SUB = False
#: When non-zero, firing ``k`` of a scanned recurrence reads
#: ``F^(k+shift)(s)`` — an off-by-one in the jump-ahead index.
_MUT_SCAN_SHIFT = 0
#: When non-zero, a ring read takes the write ``shift`` places before its
#: last writer in batch order — an off-by-one in the last-writer index.
_MUT_RING_SHIFT = 0


class Unvectorizable(Exception):
    """Raised at build time: this actor cannot take the vector fast path.

    The message is the recorded fallback reason surfaced through
    ``ExecutionResult.vectorized`` and the obs layer.
    """


class _Abort(Exception):
    """Raised at batch time, before anything is committed: replay the batch
    firing-by-firing on the interpreter."""


class _NeedScan(Unvectorizable):
    """Raised at build time: state variable ``name`` is not modular-affine;
    :func:`build_batch_kernel` rebuilds with it on the sequential scan."""

    def __init__(self, name: str, reason: str) -> None:
        super().__init__(reason)
        self.name = name


class _SharedArrays:
    """Bounded cache of the constant arrays every kernel in the process
    shares.  ``get`` is insert-or-get under a lock (``parallel_execute``
    runs kernels on concurrent core threads), evicts the least recently
    used entry first, and hands out read-only arrays: one in-place op on a
    shared constant would silently corrupt every later batch."""

    def __init__(self, make: Callable[[Any], Tuple[Any, ...]],
                 limit: int) -> None:
        self._make = make
        self._limit = limit
        self._items: "OrderedDict[Hashable, Tuple[Any, ...]]" = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: Hashable) -> Tuple[Any, ...]:
        with self._lock:
            arrays = self._items.get(key)
            if arrays is not None:
                self._items.move_to_end(key)
                return arrays
            arrays = self._make(key)
            for arr in arrays:
                arr.setflags(write=False)
            self._items[key] = arrays
            if len(self._items) > self._limit:
                self._items.popitem(last=False)
            return arrays


_ARANGES = _SharedArrays(lambda n: (np.arange(n, dtype=np.float64),), 64)


def _arange(n: int) -> Any:
    return _ARANGES.get(n)[0]


def _make_jump_table(step: Tuple[int, int, int]) -> Tuple[Any, Any]:
    """``(P, Q)`` with ``F^k(s) = (P[k]·s + Q[k]) % m`` for
    ``k ≤ _SCAN_CHUNK``, where ``F(s) = (a·s + c) % m``.  Log-doubling:
    ``F^(k+h) = F^k ∘ F^h`` extends ``[0, h)`` to ``[h, 2h)`` in two array
    ops, since ``P[k+h] = P[k]·P[h]`` and ``Q[k+h] = P[k]·Q[h] + Q[k]``."""
    a, c, m = step
    size = _SCAN_CHUNK + 1
    P = np.empty(size, dtype=np.int64)
    Q = np.empty(size, dtype=np.int64)
    P[0], Q[0] = 1, 0
    h = 1
    while h < size:
        ph = a * int(P[h - 1]) % m          # F^h = F ∘ F^(h-1)
        qh = (a * int(Q[h - 1]) + c) % m
        span = min(h, size - h)
        P[h:h + span] = P[:span] * ph % m
        Q[h:h + span] = (P[:span] * qh + Q[:span]) % m
        h += span
    return P, Q


_JUMP_TABLES = _SharedArrays(_make_jump_table, 16)


def _scan(step: Tuple[int, int, int], s: int, n: int) -> Any:
    """The states ``s, F(s), …, F^n(s)`` of ``F(s) = (a·s + c) % m`` as one
    int64 column (``0 <= s < m <= 2**31``, so nothing overflows)."""
    P, Q = _JUMP_TABLES.get(step)
    m = step[2]
    chunk = len(P) - 1
    shift = _MUT_SCAN_SHIFT
    out = np.empty(n + 1 + shift, dtype=np.int64)
    for pos in range(0, len(out), chunk):
        k = min(chunk, len(out) - pos)
        out[pos:pos + k] = (P[:k] * s + Q[:k]) % m
        s = (int(P[chunk]) * s + int(Q[chunk])) % m
    return out[shift:]


#: The interpreter's ``%``: ``math.fmod`` once either operand is a float.
_PY_MOD = BINARY_IMPLS["%"]


def _pycall(fn: Callable[..., Any], args: Tuple[Any, ...], n: int) -> Any:
    """``fn`` — the interpreter's own scalar callable — mapped over the
    ``n``-long broadcasts of ``args``: exact wherever numpy is not.  A
    domain error or a non-finite result aborts the batch; its per-firing
    replay raises the interpreter's exception at the same firing."""
    cols = [np.broadcast_to(a, (n,)).tolist() for a in args]
    try:
        res = np.array(list(map(fn, *cols)), dtype=np.float64)
    except (ArithmeticError, ValueError):
        raise _Abort from None
    if not np.isfinite(res).all():
        raise _Abort
    return res


def _wrap64(v: int) -> int:
    """``v`` reduced into the int64 range, modulo 2**64."""
    return (v - _I64_MIN) % _I64_SPAN + _I64_MIN


def _i64(x: Any) -> Any:
    """An int-lane operand as int64: a column of exact integers (float64
    registers carry them below 2**53), or one wrapped scalar."""
    if isinstance(x, np.ndarray):
        return x if x.dtype == np.int64 else x.astype(np.int64)
    return np.int64(_wrap64(int(x)))


def _ring_gather(ring: "_Ring", init: Any, slots: List[Any],
                 values: List[Any], n: int) -> Tuple[List[Any], Any]:
    """Every read of one state ring over ``n`` firings, and its final
    contents.

    ``slots`` holds each access's slot column in firing order, ``values``
    each write's lane columns.  A read's source is the latest earlier
    write to its slot — the running maximum of the write numbers over the
    accesses stably sorted by slot — or the batch-start contents ``init``;
    the read is then one ``np.take`` over ``init ++ written values``."""
    length, per, width = ring.length, len(ring.is_write), ring.width
    p = ring.n_writes
    slot = np.empty((n, per), dtype=np.int64)
    for e, col in enumerate(slots):
        slot[:, e] = col
    # One trailing read per slot: the final contents.
    flat = np.concatenate([slot.ravel(), np.arange(length)])
    if flat.min() < 0 or flat.max() >= length:
        raise _Abort
    # Write number + 1 of every write access; reads carry 0.
    wnum = np.zeros((n, per), dtype=np.int64)
    wnum[:, ring.write_pos] = (np.arange(n)[:, None] * p
                               + np.arange(1, p + 1))
    big = n * p + 1
    order = np.argsort(flat, kind="stable")
    base = flat[order] * big
    key = base + np.concatenate([wnum.ravel(), np.zeros(length, np.int64)]
                                )[order]
    src = np.empty_like(flat)
    src[order] = np.maximum.accumulate(key) - base
    if _MUT_RING_SHIFT:
        src = np.where(src > 0, np.maximum(src - _MUT_RING_SHIFT, 0), src)
    gidx = np.where(src > 0, src + (length - 1), flat)
    # Row k holds firing k's written lanes, write by write.
    written = np.empty((n, len(values)))
    for j, col in enumerate(values):
        written[:, j] = col
    table = np.concatenate([init, written.reshape(
        (n * p, width) if width else n * p)])
    at = gidx[:n * per].reshape(n, per)
    reads = [np.take(table, at[:, e], axis=0) for e in ring.read_pos]
    return reads, np.take(table, gidx[n * per:], axis=0)


def _py_values(col: Any, tag: str, int_mode: bool, n: int) -> List[Any]:
    """A register as the interpreter's Python values, one per firing."""
    as_int = tag in ("int", "i64") or (tag == "slab" and int_mode)
    if not isinstance(col, np.ndarray):
        v = bool(col) if tag == "bool" else int(col) if as_int \
            else float(col)
        return [v] * n
    if as_int and col.dtype != np.int64:
        col = col.astype(np.int64)
    return col.tolist()


def _scan_column(values: List[Any], tag: str, int_mode: bool) -> Any:
    """Emitted scan values as a register column; an integer column must
    stay below 2**53 to enter the float64 register file exactly."""
    if tag == "bool":
        return np.array(values, dtype=bool)
    if tag == "float" or (tag == "slab" and not int_mode):
        return np.array(values, dtype=np.float64)
    try:
        col = np.array(values, dtype=np.int64)
    except OverflowError:
        raise _Abort from None
    if not (-_EXACT_LIMIT < col.min() and col.max() < _EXACT_LIMIT):
        raise _Abort
    return col.astype(np.float64)


def _run_scan(scan: "_Scan", env: List[Any], cols: List[List[Any]],
              n: int) -> Tuple[Tuple[Any, ...], List[List[Any]]]:
    """Fire the scanned state's update chain ``n`` times in one Python
    loop over precomputed operand columns, with the interpreter's own
    scalar callables: exact by construction.  ``env`` holds the states,
    then the constants, then one slot per column and per step result.
    Returns the final states and, per emitted slot, its value at the end
    of every firing.  A raised error aborts the batch; its per-firing
    replay raises the interpreter's exception at the same firing."""
    steps, emits, carry = scan.steps, scan.emits, scan.carry
    nv = len(carry)
    begin = nv + len(scan.const_ops)
    end = begin + len(cols)
    grab = itemgetter(*emits) if emits else None
    hand = itemgetter(*carry)
    out: List[Any] = []
    try:
        for row in (zip(*cols) if cols else repeat((), n)):
            env[begin:end] = row
            for fn, a, b, d in steps:
                env[d] = fn(env[a]) if b < 0 else fn(env[a], env[b])
            if grab is not None:
                out.append(grab(env))
            if nv == 1:
                env[0] = env[carry[0]]
            else:
                env[:nv] = hand(env)
    except (ArithmeticError, ValueError, TypeError):
        raise _Abort from None
    if len(emits) == 1:
        return tuple(env[:nv]), [out]
    return tuple(env[:nv]), [list(c) for c in zip(*out)]


def _eval_bounds(rows: Tuple[Tuple[str, int, int], ...],
                 inputs: List[float]) -> List[float]:
    """Evaluate a kernel's bound table: ``rows[i] = (code, a, b)`` is the
    magnitude bound of register ``i`` over the slots ``a`` and ``b`` of
    the returned list, which holds the registers' bounds followed by
    ``inputs`` (the window, state, ring and constant bounds).  ``maxn``
    takes a tuple of slots as ``a``; ``bits`` bounds ``& | ^`` (operands
    in ``[-2**L, 2**L)`` keep the result there, and ``2**L <= 2·max``)."""
    bv = [0.0] * len(rows)
    bv += inputs
    for i, (code, a, b) in enumerate(rows):
        if code == "id":
            bv[i] = bv[a]
        elif code == "add":
            bv[i] = bv[a] + bv[b]
        elif code == "mul":
            bv[i] = bv[a] * bv[b]
        elif code == "maxn":
            bv[i] = max(bv[j] for j in a)
        elif code == "bits":
            bv[i] = 2.0 * max(bv[a], bv[b])
        else:
            bv[i] = max(bv[a], bv[b])
    return bv


def _tag_of_const(v: Any) -> str:
    if type(v) is bool:
        return "bool"
    if type(v) is float:
        return "float"
    return "int"


class _AffineVar:
    """Build-time record of one scalar state variable whose per-firing
    update is the map ``s ← (a·s + c) % m``: the affine induction
    ``s ← s + c`` when ``m`` is ``None`` (then ``a`` is 1), else a modular
    recurrence scanned in int64."""

    __slots__ = ("name", "baked_type", "a", "c", "m", "sum_folds",
                 "folds_integral", "folds_dyadic", "materialized", "reads",
                 "rows", "why")

    def __init__(self, name: str, baked_type: type) -> None:
        self.name = name
        self.baked_type = baked_type
        self.a = 1                    # the per-firing map, composed over
        self.c: Any = 0               # the firing's updates (c: the net
        self.m: Optional[int] = None  # increment when there is no modulus)
        self.sum_folds: float = 0.0   # Σ|c| over every folded constant
        self.folds_integral = True    # every folded constant is integral
        self.folds_dyadic = True      # … a multiple of 2^-16 (exact sums)
        self.materialized = False     # some column was generated from it
        # Folded ``(A·S + C) % M`` reads of the firing-start state S, each
        # one row of the batch's scan matrix; ``rows`` holds them as three
        # int64 column vectors (A, C, M) once the walk is over.
        self.reads: Dict[Tuple[int, int, int], int] = {}
        self.rows: Any = None
        self.why = ""                 # why the last unfoldable use was one


class _Ring:
    """Build-time record of one state array the body writes: a ring of
    ``length`` slots (``width`` lanes each, 0 for scalars) of ``etype``.
    ``slots`` holds each access's slot operand in firing order; after the
    walk ``write_pos`` / ``read_pos`` index the writes and reads among
    them, and ``reg`` is the register of the kernel's ``ring`` gather."""

    __slots__ = ("name", "length", "width", "etype", "slots", "is_write",
                 "values", "n_writes", "write_pos", "read_pos", "reg")

    def __init__(self, name: str, length: int, width: int,
                 etype: type) -> None:
        self.name = name
        self.length = length
        self.width = width
        self.etype = etype
        self.slots: List[Tuple[Any, ...]] = []
        self.is_write: List[bool] = []
        self.values: List[Tuple[Any, ...]] = []
        self.n_writes = 0
        self.write_pos: Any = None
        self.read_pos: Tuple[int, ...] = ()
        self.reg = -1

    def contents(self, value: Any) -> Optional[Tuple[Any, float]]:
        """The batch-start contents as a float64 array and their bound, or
        None when the state no longer has the built shape and type (an
        int element must also stay below 2**53)."""
        etype, width = self.etype, self.width
        if type(value) is not list or len(value) != self.length:
            return None
        flat = value
        if width:
            flat = []
            for row in value:
                if type(row) is not list or len(row) != width:
                    return None
                flat += row
        if any(type(x) is not etype for x in flat):
            return None
        if etype is int:
            bound = max(map(abs, flat))
            if bound >= _EXACT_LIMIT:
                return None
            return np.array(value, dtype=np.float64), float(bound)
        return np.array(value, dtype=np.float64), _INF


class _Scan:
    """Build-time record of the state the sequential scan carries: the
    variables (``names``, exact ``types``), the update chain ``steps`` of
    ``(callable, a, b, dest)`` env slots (``b`` is -1 for one argument),
    the slots whose per-firing value is ``emits``,
    the slots that carry into the next firing, the constant operands and
    the tags of the column operands.  ``reg`` is the ``seqscan`` register."""

    __slots__ = ("names", "types", "steps", "emits", "carry", "const_ops",
                 "col_tags", "reg")

    def __init__(self, **kw: Any) -> None:
        for name in self.__slots__:
            setattr(self, name, kw[name])


class BatchKernel:
    """A compiled batch program: validate, evaluate arrays, commit.

    Register ``i`` is the result of ``instrs[i]``, tagged ``rtags[i]``
    (``float``; ``int`` / ``bool`` held exactly in float64; ``slab``, a
    tape value typed by the window; ``i64`` / ``w64``, an int64 column
    exact / exact modulo 2**64), bounded by row ``bounds[i]`` of the bound
    table (over the constant bounds ``bound_consts``), and ``frees[i]``
    lists the registers whose last reader is ``instrs[i]``.  ``rings`` and
    ``scan`` describe the state lanes, ``window_mode`` the window type a
    batch requires.  ``run`` keeps nothing on ``self``."""

    __slots__ = ("a_in", "a_out", "need", "in_vector", "width", "instrs",
                 "rtags", "bounds", "bound_consts", "frees", "checks",
                 "records", "state_reads", "sread_types", "aff_vars",
                 "rings", "scan", "window_mode", "events", "internal_used",
                 "n_regs")

    def __init__(self, **kw: Any) -> None:
        for name in self.__slots__:
            setattr(self, name, kw[name])

    # -- batch execution -------------------------------------------------------
    def run(self, rt: ActorRuntime, n: int) -> bool:
        """Execute ``n`` firings as one batch.  Returns ``False`` (with no
        observable effect) when a runtime guard fails."""
        if n <= 0:
            return True
        inp = rt.input
        out = rt.output
        if (self.a_out or self.records) and not out.batchable:
            return False
        if inp is not None and inp is out:
            return False
        if self.internal_used or rt.internal:
            for buf, items in rt.internal.items():
                if len(items) > rt.internal_head.get(buf, 0):
                    return False

        # -- window fetch + typing ---------------------------------------------
        need = (n - 1) * self.a_in + self.need if self.need else n * self.a_in
        if n * self.a_in > need:
            need = n * self.a_in
        int_mode = False
        m_window = 0.0
        arr = None
        if need:
            # None: list storage (a plain or degraded tape), a short window, a
            # window larger than a channel's bound, or an unknown tape
            # subclass.  A channel window blocks instead until the producing
            # core has committed it (it does so within this steady
            # iteration) — the analogue of n blocking pops.
            window = inp.window(need)
            if window is None:
                return False
            if self.in_vector:
                if window.ndim != 2 or window.shape[1] != self.width \
                        or window.dtype.kind != "f":
                    return False
            elif window.ndim != 1:
                return False
            int_mode = window.dtype.kind == "i"
            if self.window_mode is not None \
                    and int_mode != (self.window_mode == "int"):
                return False
            arr = window.astype(np.float64) if int_mode else window
            m_window = float(np.abs(arr).max())
            if m_window != m_window:    # window held a NaN
                m_window = _INF

        # -- state prefetch + affine guards ------------------------------------
        svals: List[Any] = []
        sv_abs: List[float] = []
        for (name, path), expect in zip(self.state_reads, self.sread_types):
            val = rt.state.get(name, _Abort)
            try:
                for idx in path:
                    val = val[idx]
            except (TypeError, IndexError, KeyError):
                return False
            if type(val) is not expect:
                return False
            if expect is int:
                if not -_EXACT_LIMIT < val < _EXACT_LIMIT:
                    return False
                sv_abs.append(float(abs(val)))
            elif expect is float:
                a = abs(val)
                sv_abs.append(_INF if a != a else a)
            else:
                sv_abs.append(1.0)
            svals.append(val)

        aff_base: Dict[str, Any] = {}
        aff_bound: Dict[str, float] = {}
        # int64 firing-start states S_0 … of every variable read through
        # folded ``% M`` forms (modular recurrences carry S_n as well).
        scans: Dict[str, Any] = {}
        for av in self.aff_vars:
            sv = rt.state.get(av.name, _Abort)
            if type(sv) is not av.baked_type:
                return False
            delta = av.c
            if av.m is not None:
                # Modular recurrence: exact only from inside [0, m).
                if not 0 <= sv < av.m:
                    return False
                scans[av.name] = _scan((av.a, av.c, av.m), sv, n)
                bound = float(av.m - 1) + av.sum_folds
                if av.materialized and bound >= _EXACT_LIMIT:
                    return False
            elif av.baked_type is float:
                limit = _EXACT_LIMIT
                if delta != 0 or av.sum_folds > 0:
                    if sv.is_integer() and av.folds_integral:
                        pass
                    elif (sv * _DYADIC_SCALE).is_integer() and \
                            av.folds_dyadic:
                        limit = _DYADIC_LIMIT
                    else:
                        return False
                bound = abs(sv) + n * abs(delta) + av.sum_folds
                if (delta != 0 or av.sum_folds > 0) and bound >= limit:
                    return False
            elif av.baked_type is int:
                try:
                    bound = float(abs(sv)) + n * abs(delta) + av.sum_folds
                except OverflowError:
                    bound = _INF
                if (delta != 0 or av.materialized) and bound >= _EXACT_LIMIT:
                    return False
                if av.reads:
                    # A plain counter read through a folded ``% M``: the
                    # same int64 products, so the same range for every S_k.
                    if not (0 <= sv < _MOD_LIMIT
                            and 0 <= sv + (n - 1) * delta < _MOD_LIMIT):
                        return False
                    scans[av.name] = (_arange(n) * float(delta)
                                      + float(sv)).astype(np.int64)
            else:  # bool: build guaranteed delta == 0 and d == 0 reads
                bound = 1.0
            aff_base[av.name] = sv
            aff_bound[av.name] = bound
        ring_init: List[Any] = []
        ring_bound: List[float] = []
        for ring in self.rings:
            got = ring.contents(rt.state.get(ring.name))
            if got is None:
                return False
            ring_init.append(got[0])
            ring_bound.append(got[1])
        scan_states: List[Any] = []
        if self.scan is not None:
            for name, expect in zip(self.scan.names, self.scan.types):
                sv = rt.state.get(name, _Abort)
                if type(sv) is not expect:
                    return False
                scan_states.append(sv)

        # -- bounds + exactness checks -----------------------------------------
        bvals = _eval_bounds(self.bounds, [
            m_window, *sv_abs, *[aff_bound[av.name] for av in self.aff_vars],
            *ring_bound, *self.bound_consts])
        for idx, mode in self.checks:
            if mode == "int" and not int_mode:
                continue
            if bvals[idx] >= _EXACT_LIMIT:
                return False

        # -- array evaluation --------------------------------------------------
        a_in = self.a_in
        shift = _MUT_READ_SHIFT
        aff_delta = {av.name: av.c for av in self.aff_vars}
        regs: List[Any] = [None] * self.n_regs
        frees = self.frees
        try:
            with np.errstate(all="ignore"):
                # One (reads × n) matrix per scanned variable: row j is the
                # column ``(A_j·S + C_j) % M_j`` of its j-th folded read.
                reduced = {
                    av.name: ((av.rows[0] * scans[av.name][:n] + av.rows[1])
                              % av.rows[2]).astype(np.float64)
                    for av in self.aff_vars if av.reads}
                for i, ins in enumerate(self.instrs):
                    op = ins[0]
                    if op == "slab":
                        pos = ins[1]
                        if shift:
                            idx = (pos + shift
                                   + np.arange(n) * a_in) % max(len(arr), 1)
                            col = np.take(arr, idx, axis=0).astype(np.float64)
                        elif a_in:
                            col = arr[pos: pos + (n - 1) * a_in + 1: a_in]
                        else:
                            col = np.full(n, arr[pos])
                    elif op == "vslab":
                        pos, lane = ins[1], ins[2]
                        if a_in:
                            col = arr[pos: pos + (n - 1) * a_in + 1: a_in,
                                      lane]
                        else:
                            col = np.full(n, arr[pos, lane])
                    elif op == "aff":
                        _, name, row, d, tag = ins
                        base = aff_base[name]
                        delta = aff_delta[name]
                        if row is not None:
                            col = reduced[name][row]
                            if d:
                                col = col + float(d)
                        elif name in scans:
                            col = scans[name][:n].astype(np.float64) \
                                + float(d)
                        elif delta == 0:
                            if tag == "bool":
                                col = np.full(n, base, dtype=bool)
                            else:
                                col = np.full(n, float(base + d))
                        else:
                            col = (_arange(n) * float(delta)
                                   + float(base + d))
                    elif op == "ringout":
                        col = regs[ins[1][1]][0][ins[2]]
                        if ins[3] >= 0:
                            col = col[:, ins[3]]
                    elif op == "scanout":
                        col = _scan_column(regs[ins[1][1]][1][ins[2]],
                                           ins[3], int_mode)
                    elif op == "ring":
                        rid = ins[1]
                        col = _ring_gather(
                            self.rings[rid], ring_init[rid],
                            [self._op(a, regs, svals) for a in ins[2]],
                            [self._op(a, regs, svals) for a in ins[3]], n)
                    elif op == "seqscan":
                        scan = self.scan
                        env = scan_states + [self._op(a, regs, svals)
                                             for a in scan.const_ops]
                        cols = [_py_values(self._op(a, regs, svals), tag,
                                             int_mode, n)
                                for a, tag in zip(ins[1], scan.col_tags)]
                        env += [None] * (len(cols) + len(scan.steps))
                        col = _run_scan(scan, env, cols, n)
                    else:
                        col = self._exec(ins, regs, svals, int_mode, n)
                    regs[i] = col
                    for dead in frees[i]:
                        regs[dead] = None
        except _Abort:
            return False

        # -- commit ------------------------------------------------------------
        # Every record's column is built before anything is consumed: one
        # with no array form hands the whole batch back to the replay.
        cols = [self._materialize_array(src, regs, svals, bvals, int_mode, n)
                for _, src in self.records]
        if any(col is None for col in cols):
            return False
        release = n * a_in
        if release and inp.window_is_copy:
            # Release the input slots before the (possibly blocking) output
            # commit so downstream cores can drain while we wait for space
            # — no transitive wedge.
            inp.advance_reader(release)
        if self.a_out:
            for (offset, _), col in zip(self.records, cols):
                out.write_strided(offset, self.a_out, col)
            out.advance_writer(n * self.a_out)
        else:
            for (offset, _), col in zip(self.records, cols):
                out.rpush(col[-1].tolist(), offset)
        if release and not inp.window_is_copy:
            # A window that may alias storage is released last: in-place
            # compaction must not move it while `arr` views are still live.
            inp.advance_reader(release)
        for av in self.aff_vars:
            if av.m is not None:
                rt.state[av.name] = int(scans[av.name][n])
            elif av.c != 0:
                rt.state[av.name] = aff_base[av.name] + n * av.c
        for ring in self.rings:
            final = regs[ring.reg][1]
            if ring.etype is int:
                final = final.astype(np.int64)
            rt.state[ring.name][:] = final.tolist()
        if self.scan is not None:
            for name, value in zip(self.scan.names, regs[self.scan.reg][0]):
                rt.state[name] = value
        bag = rt.counters.events
        for event, count in self.events.items():
            bag[event] += count * n
        return True

    # -- instruction evaluation ------------------------------------------------
    def _exec(self, ins: Tuple[Any, ...], regs: List[Any],
              svals: List[Any], int_mode: bool, n: int) -> Any:
        op = ins[0]
        if op == "ibin":
            _, code, a, b = ins
            x = _i64(self._op(a, regs, svals))
            y = _i64(self._op(b, regs, svals))
            if code == "and":
                return x & y
            if code == "or":
                return x | y
            if code == "xor":
                return x ^ y
            if code == "shl":
                return np.left_shift(x, y)
            if code == "shr":
                return np.right_shift(x, y)
            if code == "add":
                return x + y
            if code == "sub":
                return x - y
            return x * y
        if op == "inot":
            return ~_i64(self._op(ins[1], regs, svals))
        if op == "i2f":
            x = self._op(ins[1], regs, svals)
            if isinstance(x, np.ndarray):
                return x.astype(np.float64)
            return float(x)
        if op == "bin":
            _, code, a, b = ins
            x = self._op(a, regs, svals)
            y = self._op(b, regs, svals)
            if code == "add":
                return x + y
            if code == "sub":
                return (y - x) if _MUT_SWAP_SUB else (x - y)
            return x * y
        if op == "div":
            _, a, b, kind, zcheck = ins
            x = self._op(a, regs, svals)
            y = self._op(b, regs, svals)
            if zcheck and np.any(y == 0):
                raise _Abort
            q = x / y
            if kind == "cdiv" or (kind == "mode" and int_mode):
                return np.trunc(q)
            return q
        if op == "mod":
            _, a, b, kind, zcheck, fmod_ok = ins
            x = self._op(a, regs, svals)
            y = self._op(b, regs, svals)
            if zcheck and np.any(y == 0):
                raise _Abort
            if kind == "cmod" or (kind == "mode" and int_mode):
                return x - np.trunc(x / y) * y
            if not fmod_ok:
                return _pycall(_PY_MOD, (x, y), n)
            return np.fmod(x, y)
        if op == "cmp":
            _, code, a, b = ins
            x = self._op(a, regs, svals)
            y = self._op(b, regs, svals)
            if code == "==":
                return x == y
            if code == "!=":
                return x != y
            if code == "<":
                return x < y
            if code == "<=":
                return x <= y
            if code == ">":
                return x > y
            return x >= y
        if op == "logic":
            _, is_and, a, b = ins
            x = self._op(a, regs, svals)
            y = self._op(b, regs, svals)
            return np.logical_and(x, y) if is_and else np.logical_or(x, y)
        if op == "truthy":
            return self._op(ins[1], regs, svals) != 0
        if op == "not":
            return np.logical_not(self._op(ins[1], regs, svals))
        if op == "neg":
            return -self._op(ins[1], regs, svals)
        if op == "b2f":
            x = self._op(ins[1], regs, svals)
            if isinstance(x, np.ndarray):
                return x.astype(np.float64)
            return float(x)
        if op == "bnot":
            res = -np.trunc(self._op(ins[1], regs, svals)) - 1.0
            if not np.isfinite(res).all():
                raise _Abort
            return res
        if op == "trunc":
            res = np.trunc(self._op(ins[1], regs, svals))
            if not np.isfinite(res).all():
                raise _Abort
            return res
        if op == "id":
            return self._op(ins[1], regs, svals)
        if op == "abs":
            return np.abs(self._op(ins[1], regs, svals))
        if op == "minmax":
            _, is_min, a, b, is_bool = ins
            x = self._op(a, regs, svals)
            y = self._op(b, regs, svals)
            res = np.minimum(x, y) if is_min else np.maximum(x, y)
            if not is_bool and not np.isfinite(res).all():
                raise _Abort
            return res
        if op == "call":
            _, func, args = ins
            fn = NP_MATH[func]
            res = fn(*[self._op(a, regs, svals) for a in args])
            if not np.isfinite(res).all():
                raise _Abort
            return res
        if op == "pycall":
            _, func, args = ins
            return _pycall(math_impl(func),
                           tuple(self._op(a, regs, svals) for a in args), n)
        if op == "where":
            _, c, t, f, tag = ins
            cond = self._op(c, regs, svals)
            x = self._op(t, regs, svals)
            y = self._op(f, regs, svals)
            if tag != "bool":
                if not isinstance(x, np.ndarray):
                    x = float(x)
                if not isinstance(y, np.ndarray):
                    y = float(y)
            return np.where(cond, x, y)
        raise _Abort  # pragma: no cover - unknown instruction

    @staticmethod
    def _op(operand: Tuple[Any, ...], regs: List[Any],
            svals: List[Any]) -> Any:
        kind = operand[0]
        if kind == "r":
            return regs[operand[1]]
        if kind == "c":
            return operand[1]
        return svals[operand[1]]

    # -- output materialization ------------------------------------------------
    def _materialize_array(self, src: Tuple[Any, ...], regs: List[Any],
                           svals: List[Any], bvals: List[float],
                           int_mode: bool, n: int) -> Optional[Any]:
        """The column one output record commits: a 1-d int64/float64
        column for a scalar record, an ``(n, W)`` float64 one for a
        ``('vec', lanes)`` record whose lanes are all float registers,
        float constants or float state reads — the rows a vector tape
        stores.

        Returns None when the column has no lossless array form (bools,
        ints beyond int64 or the float64-exact range, a vector with a
        non-float lane): the caller then commits nothing and the whole
        batch replays per firing, which pushes the exact Python values.
        """
        kind = src[0]
        if kind == "vec":
            lanes = []
            for lane in src[1]:
                if lane[0] == "r":
                    tag = self.rtags[lane[1]]
                    if tag != "float" and (tag != "slab" or int_mode):
                        return None
                    col = regs[lane[1]]
                else:
                    col = lane[1] if lane[0] == "c" else svals[lane[1]]
                    if type(col) is not float:
                        return None
                if not (isinstance(col, np.ndarray) and col.ndim == 1):
                    col = np.full(n, float(col))
                lanes.append(col)
            return np.stack(lanes, axis=1)
        if kind == "c" or kind == "s":
            v = src[1] if kind == "c" else svals[src[1]]
            if type(v) is float:
                return np.full(n, v)
            if type(v) is int:
                try:
                    return np.full(n, v, dtype=np.int64)
                except OverflowError:
                    return None
            return None
        if kind == "r":
            idx = src[1]
            tag = self.rtags[idx]
            if tag == "bool":
                return None
            col = regs[idx]
            if tag == "i64":
                if isinstance(col, np.ndarray):
                    return col
                return np.full(n, int(col), dtype=np.int64)
            as_int = tag == "int" or (tag == "slab" and int_mode)
            if not (isinstance(col, np.ndarray) and col.ndim == 1):
                if as_int:
                    return np.full(n, int(col), dtype=np.int64)
                return np.full(n, float(col))
            if as_int:
                if bvals[idx] < _EXACT_LIMIT:
                    return col.astype(np.int64)
                return None
            return col
        return None


# ==============================================================================
# The abstract-interpretation walk
# ==============================================================================

# Abstract values:
#   ('c', v)              constant (exact Python value)
#   ('r', i)              column register i (tag in self.rtags[i])
#   ('a', name, inner, mul, add, hf)
#                         scalar-state form ``mul·I + add`` of the
#                         firing-start state S, where I is S itself
#                         (``inner`` None) or the folded modular read
#                         ``(A·S + C) % M`` (``inner`` = (A, C, M)); hf: a
#                         float constant participated in the folds.  The
#                         affine induction read ``state + d`` is
#                         ``(None, 1, d)``.
#   ('s', j)              batch-constant read of never-written array/vector
#                         state (j indexes state_reads)
#   ('q', slot, tag)      a value of the sequential scan: the env slot of a
#                         scanned state, scan input or scan step
# Vectors are Python lists of abstract values, mirroring the interpreter's
# list identity/aliasing semantics exactly.

#: Bound-table row of a tape read: the window's max magnitude.
_WINDOW_BOUND = ("id", ("w", 0), ("w", 0))

_FOLD_OPS = frozenset({"+", "-", "*", "%"})
_BITWISE = frozenset({"<<", ">>", "&", "|", "^"})
_CMP_OPS = frozenset({"==", "!=", "<", "<=", ">", ">="})


#: Bound of a materialized scan value, per tag (an emitted integer column
#: is checked below 2**53 as it is built).
_SCAN_EMIT_BOUND = {"bool": 1.0, "int": _EXACT_LIMIT - 1,
                    "slab": _EXACT_LIMIT - 1, "float": _INF}

_W64_REASON = ("value only exact modulo 2**64 (mask it with & c, "
               "0 <= c < 2**63)")

#: int-lane instruction code of each ring / bitwise operator.
_INT_CODES = {"+": "add", "-": "sub", "*": "mul", "&": "and", "|": "or",
              "^": "xor", "<<": "shl", ">>": "shr"}


def _scan_tag(kind: str, name: str, tags: List[str]) -> Optional[str]:
    """The static type tag of one scan step's result under the
    interpreter's Python semantics (None: the type is data-dependent)."""
    if kind == "bin":
        if name in _CMP_OPS or name in ("&&", "||"):
            return "bool"
        if name in _BITWISE:
            return "int"
        if "float" in tags:
            return "float"
        return "slab" if "slab" in tags else "int"
    if kind == "un":
        if name == "!":
            return "bool"
        return "int" if name == "~" or tags[0] == "bool" else tags[0]
    if name in ("min", "max"):
        return tags[0] if len(set(tags)) == 1 else None
    if name == "abs":
        return "int" if tags[0] == "bool" else tags[0]
    return "int" if name == "int" else "float"


class _Builder:
    def __init__(self, runtime: ActorRuntime, spec: FilterSpec,
                 in_vector: bool, scan_names: FrozenSet[str]) -> None:
        self.rt = runtime
        self.spec = spec
        self.in_vector = in_vector
        self.steps = 0
        self.events: Dict[str, int] = {ev.FIRE: 1}
        self.locals: Dict[str, Any] = {}
        self.instrs: List[Tuple[Any, ...]] = []
        self.rtags: List[str] = []
        # One bound-table row per register: (code, a, b) over register
        # indices and the symbolic inputs ("w", 0) window, ("s", j) state
        # read, ("aff", name) affine state, ("k", j) constant j.
        self.bounds: List[Tuple[str, Any, Any]] = []
        self.bound_consts: Dict[float, int] = {}
        self.checks: List[Tuple[int, str]] = []
        self.records: List[Tuple[int, Tuple[Any, ...]]] = []
        self.state_reads: List[Tuple[str, Tuple[int, ...]]] = []
        self.sread_types: List[type] = []
        self.aff: Dict[str, _AffineVar] = {}
        self.rcur = 0
        self.wcur = 0
        self.max_read = -1
        self.sim_internal: Dict[int, List[Any]] = {}
        self.internal_used = False
        # In-flight form (inner, mul, add, has_float) of each assigned
        # state var *within* the firing; the last one is the var's
        # per-firing map (see :meth:`build`).
        self._cur: Dict[str, Tuple[Any, Any, Any, bool]] = {}
        # "int" or "float": the window type every slab use here assumes.
        self.window_mode: Optional[str] = None
        self.rings = self.find_rings()
        # The sequential scan: its variables' current env slots, its
        # constant and column inputs, steps and emitted slots.  Slots stay
        # symbolic — ("st", i), ("k", j), ("col", j), ("tmp", k) — until
        # build.
        self.scan_names = tuple(sorted(scan_names))
        self.scan_cur: Dict[str, Tuple[str, int]] = {
            name: ("st", i) for i, name in enumerate(self.scan_names)}
        self.scan_consts: List[Tuple[Any, ...]] = []
        self.scan_cols: List[Tuple[Any, ...]] = []
        self.scan_steps: List[Tuple[str, str, Any, Any]] = []
        self.scan_emits: Dict[Tuple[str, int], int] = {}

    def find_rings(self) -> Dict[str, _Ring]:
        """The state arrays the body writes, each a ring of its post-init
        shape; any other state array stays a batch constant."""
        body = self.spec.work_body
        local = set()
        for stmt in iter_stmts(body):
            if isinstance(stmt, (S.DeclVar, S.DeclArray)):
                local.add(stmt.name)
            elif isinstance(stmt, S.For):
                local.add(stmt.var)
        rings: Dict[str, _Ring] = {}
        for stmt in iter_stmts(body):
            if not (isinstance(stmt, S.Assign)
                    and isinstance(stmt.lhs, L.ArrayLV)):
                continue
            name = stmt.lhs.name
            value = self.rt.state.get(name)
            if name in local or name in rings or type(value) is not list \
                    or not value:
                continue
            first = value[0]
            width = len(first) if type(first) is list else 0
            etype = type(first[0] if width else first)
            if etype in (int, float):
                rings[name] = _Ring(name, len(value), width, etype)
        return rings

    # -- small helpers ---------------------------------------------------------
    def fail(self, reason: str) -> None:
        raise Unvectorizable(reason)

    def step(self) -> None:
        self.steps += 1
        if self.steps > _MAX_WALK_STEPS:
            self.fail("body too large to batch")

    def charge(self, event: str, count: int = 1) -> None:
        self.events[event] = self.events.get(event, 0) + count

    def new_reg(self, ins: Tuple[Any, ...], tag: str,
                bound: Tuple[str, Any, Any]) -> Tuple[str, int]:
        self.instrs.append(ins)
        self.rtags.append(tag)
        self.bounds.append(bound)
        return ("r", len(self.rtags) - 1)

    def add_check(self, operand: Tuple[Any, ...], mode: str) -> None:
        if operand[0] == "r":
            self.checks.append((operand[1], mode))

    def need_mode(self, mode: str) -> None:
        """Every batch must read a window of type ``mode`` ("int" or "float")."""
        if self.window_mode not in (None, mode):
            self.fail("tape values must be both int and float")
        self.window_mode = mode

    def exact(self, operand: Tuple[Any, ...]) -> Tuple[Any, ...]:
        """``operand``, refused if it is only exact modulo 2**64."""
        if operand[0] == "r" and self.rtags[operand[1]] == "w64":
            self.fail(_W64_REASON)
        return operand

    def f64(self, operand: Tuple[Any, ...]) -> Tuple[Any, ...]:
        """``operand`` in the float64 register file: an int64 column
        converts, checked below 2**53."""
        if self.tag_of(self.exact(operand)) != "i64":
            return operand
        reg = self.new_reg(("i2f", operand), "int", self.bound_of(operand))
        self.checks.append((reg[1], "always"))
        return reg

    # Bound-table rows (see :func:`_eval_bounds`).
    def _const_bound(self, value: float) -> Tuple[str, int]:
        return ("k", self.bound_consts.setdefault(value,
                                                  len(self.bound_consts)))

    def bound_ref(self, av: Tuple[Any, ...]) -> Any:
        """The bound-table slot of an operand's magnitude bound."""
        kind = av[0]
        if kind == "c":
            try:
                return self._const_bound(float(abs(av[1])))
            except OverflowError:
                return self._const_bound(_INF)
        if kind == "r":
            return av[1]
        return av                                   # ("s", j)

    def bound_of(self, av: Tuple[Any, ...]) -> Tuple[str, Any, Any]:
        ref = self.bound_ref(av)
        return ("id", ref, ref)

    def bound_op(self, code: str, a: Tuple[Any, ...],
                 b: Tuple[Any, ...]) -> Tuple[str, Any, Any]:
        return (code, self.bound_ref(a), self.bound_ref(b))

    # -- abstract value inspection ---------------------------------------------
    def tag_of(self, av: Any) -> str:
        kind = av[0]
        if kind == "c":
            return _tag_of_const(av[1])
        if kind == "r":
            return self.rtags[av[1]]
        if kind == "s":
            t = self.sread_types[av[1]]
            return "bool" if t is bool else ("float" if t is float else "int")
        if kind == "q":
            return av[2]
        # state form (bool state never folds ``*`` / ``%``)
        _, name, _inner, _mul, add, hf = av
        baked = self.aff[name].baked_type
        if hf or baked is float:
            return "float"
        if baked is bool and add == 0:
            return "bool"
        return "int"

    def operand(self, av: Any) -> Tuple[Any, ...]:
        """Lower an abstract scalar to an instruction operand, materializing
        affine reads into columns."""
        kind = av[0]
        if kind == "q":
            # A scanned value leaves the scan: emit its per-firing column.
            tag = av[2]
            k = self.scan_emits.setdefault(av[1], len(self.scan_emits))
            return self.new_reg(("scanout", None, k, tag), tag,
                                self.bound_of(("c", _SCAN_EMIT_BOUND[tag])))
        if kind == "a":
            _, name, inner, mul, add, hf = av
            if mul != 1:
                # A product no ``% M`` folded back: ordinary (bounded)
                # arithmetic over the base column.
                reg = self.arith("*", self.operand(
                    ("a", name, inner, 1, 0, hf)), ("c", mul))
                return self.arith("+", reg, ("c", add)) if add else reg
            var = self.aff[name]
            var.materialized = True
            tag = self.tag_of(av)
            if inner is None:
                return self.new_reg(("aff", name, None, add, tag), tag,
                                    ("id", ("aff", name), ("aff", name)))
            row = var.reads.setdefault(inner, len(var.reads))
            limit = float(inner[2] - 1 + abs(add))
            return self.new_reg(("aff", name, row, add, tag), tag,
                                self.bound_of(("c", limit)))
        if kind == "c":
            v = av[1]
            if type(v) is int and not -_EXACT_LIMIT < v < _EXACT_LIMIT:
                self.fail("integer constant exceeds float64 exact range")
        return av

    def is_vec(self, av: Any) -> bool:
        return isinstance(av, list)

    def b2f(self, operand: Tuple[Any, ...]) -> Tuple[Any, ...]:
        """Coerce a bool operand to its 0/1 numeric value (Python bools are
        ints under arithmetic; numpy bools are not)."""
        if operand[0] == "c":
            return ("c", int(operand[1])) if type(operand[1]) is bool \
                else operand
        operand = self.f64(operand)
        tag = self.tag_of(operand)
        if tag != "bool":
            return operand
        return self.new_reg(("b2f", operand), "int", self.bound_of(("c", 1.0)))

    def truthify(self, operand: Tuple[Any, ...]) -> Tuple[Any, ...]:
        if operand[0] == "c":
            return ("c", bool(operand[1]))
        self.exact(operand)
        if self.tag_of(operand) == "bool":
            return operand
        return self.new_reg(("truthy", operand), "bool",
                            self.bound_of(("c", 1.0)))

    # ==========================================================================
    # Statements
    # ==========================================================================
    def walk_body(self, body: S.Body) -> None:
        for stmt in body:
            self.walk_stmt(stmt)

    def walk_stmt(self, stmt: S.Stmt) -> None:
        self.step()
        if isinstance(stmt, S.Assign):
            self.assign(stmt.lhs, self.eval(stmt.rhs))
        elif isinstance(stmt, S.DeclVar):
            value = (("c", 0.0) if stmt.init is None
                     else self.copy_av(self.eval(stmt.init)))
            if isinstance(stmt.type, Vector) and not self.is_vec(value):
                # The interpreter's uncharged splat of a scalar initialiser.
                value = [value] * stmt.type.width
            self.locals[stmt.name] = value
        elif isinstance(stmt, S.DeclArray):
            self.locals[stmt.name] = self.make_array(stmt)
        elif isinstance(stmt, S.Push):
            self.charge_scalar_out()
            value = self.eval(stmt.value)
            if self.is_vec(value):
                # The interpreter pushes the list *uncopied* (aliasing).
                self.fail("push of a vector value (aliases the tape)")
            self.record_write(self.wcur, value)
            self.wcur += 1
        elif isinstance(stmt, S.RPush):
            self.charge_scalar_out()
            offset = self.const_int(self.eval(stmt.offset), "rpush offset")
            value = self.eval(stmt.value)
            if self.is_vec(value):
                self.fail("rpush of a vector value")
            if offset < 0:
                self.fail("negative rpush offset")
            self.record_write(self.wcur + offset, value)
        elif isinstance(stmt, S.VPush):
            self.charge(ev.VECTOR_STORE)
            value = self.eval(stmt.value)
            if not self.is_vec(value):
                self.fail("vpush of a scalar value")
            if any(self.is_vec(x) for x in value):
                self.fail("vpush of a nested vector value")
            lanes = tuple(self.exact(self.operand(x)) for x in value)
            self.record_write(self.wcur, ("vec", lanes), raw=True)
            self.wcur += 1
        elif isinstance(stmt, S.ScatterPush):
            self.scatter_push(stmt)
        elif isinstance(stmt, S.InternalPush):
            value = self.eval(stmt.value)
            self.charge(ev.VECTOR_STORE if self.is_vec(value)
                        else ev.SCALAR_STORE)
            self.internal_used = True
            self.sim_internal.setdefault(stmt.buf, []).append(
                self.copy_av(value))
        elif isinstance(stmt, S.CostAnnotation):
            self.charge(stmt.event, stmt.count)
        elif isinstance(stmt, S.AdvanceReader):
            self.charge(ev.SCALAR_ALU)
            self.require_input()
            self.rcur += stmt.count
        elif isinstance(stmt, S.AdvanceWriter):
            self.charge(ev.SCALAR_ALU)
            self.require_output()
            self.wcur += stmt.count
        elif isinstance(stmt, S.ExprStmt):
            self.eval(stmt.expr)
        elif isinstance(stmt, S.For):
            start = self.const_int(self.eval(stmt.start), "loop start")
            end = self.const_int(self.eval(stmt.end), "loop end")
            self.locals[stmt.var] = ("c", start)
            for index in range(start, end):
                self.charge(ev.LOOP)
                self.locals[stmt.var] = ("c", index)
                self.walk_body(stmt.body)
        elif isinstance(stmt, S.If):
            cond = self.eval(stmt.cond)
            if self.is_vec(cond):
                self.fail("vector value used as branch condition")
            if cond[0] != "c":
                self.fail("data-dependent branch")
            if bool(cond[1]):
                self.walk_body(stmt.then_body)
            else:
                self.walk_body(stmt.else_body)
        else:
            self.fail(f"unknown statement {type(stmt).__name__}")

    def make_array(self, stmt: S.DeclArray) -> List[Any]:
        width = stmt.elem_type.width \
            if isinstance(stmt.elem_type, Vector) else 0
        if stmt.init is not None:
            if width:
                return [[("c", v) for v in item] if isinstance(item, tuple)
                        else [("c", item)] * width for item in stmt.init]
            return [("c", item) for item in stmt.init]
        if width:
            return [[("c", 0.0) for _ in range(width)]
                    for _ in range(stmt.size)]
        return [("c", 0.0)] * stmt.size

    def scatter_push(self, stmt: S.ScatterPush) -> None:
        value = self.eval(stmt.value)
        if not self.is_vec(value):
            self.fail("scatter_push of a scalar value")
        sw = len(value)
        self.charge_sheet(ev.scatter_events, stmt.strategy, stmt.stride, sw)
        for lane in range(1, sw):
            self.record_write(self.wcur + lane * stmt.stride, value[lane])
        self.record_write(self.wcur, value[0])
        self.wcur += 1

    def record_write(self, offset: int, value: Any, raw: bool = False) -> None:
        self.require_output()
        if not raw and self.is_vec(value):
            self.fail("write of a vector value through a scalar slot")
        src = value if raw else self.exact(self.operand(value))
        self.records.append((offset, src))

    def charge_scalar_out(self) -> None:
        self.charge(ev.SCALAR_STORE)
        if self.rt.out_lane_ordered:
            self.charge(ev.lane_event(self.rt.has_sagu))

    def charge_scalar_in(self) -> None:
        self.charge(ev.SCALAR_LOAD)
        if self.rt.in_lane_ordered:
            self.charge(ev.lane_event(self.rt.has_sagu))

    def charge_sheet(self, charges: Callable[[str, int, int], ev.Charges],
                     strategy: str, stride: int, sw: int) -> None:
        """Charge a gather or scatter; an unknown strategy refuses."""
        try:
            pairs = charges(strategy, stride, sw)
        except ev.UnknownStrategy as exc:
            self.fail(str(exc))
        for event, count in pairs:
            self.charge(event, count)

    def require_input(self) -> None:
        if self.rt.input is None:
            self.fail("actor has no input tape")

    def require_output(self) -> None:
        if self.rt.output is None:
            self.fail("actor has no output tape")

    # ==========================================================================
    # Assignment
    # ==========================================================================
    def copy_av(self, value: Any) -> Any:
        return list(value) if isinstance(value, list) else value

    def assign(self, lhs: L.LValue, value: Any) -> None:
        if isinstance(lhs, L.VarLV):
            if lhs.name in self.locals:
                self.locals[lhs.name] = self.copy_av(value)
                return
            if lhs.name in self.rt.state:
                self.assign_state(lhs.name, value)
                return
            self.fail(f"assignment to undeclared variable {lhs.name!r}")
        elif isinstance(lhs, L.ArrayLV):
            if lhs.name not in self.locals and lhs.name in self.rings:
                self.ring_write(self.rings[lhs.name], self.eval(lhs.index),
                                value)
                return
            index = self.const_int(self.eval(lhs.index), "array index")
            if lhs.name not in self.locals:
                self.fail("stateful: assignment to state array")
            array = self.locals[lhs.name]
            self.charge(ev.VECTOR_STORE if self.is_vec(value)
                        else ev.SCALAR_STORE)
            try:
                array[index] = self.copy_av(value)
            except IndexError:
                self.fail("array store out of range")
        elif isinstance(lhs, L.LaneLV):
            if lhs.name not in self.locals:
                self.fail("stateful: lane store into state")
            vec = self.locals[lhs.name]
            if not self.is_vec(vec):
                self.fail(f"{lhs.name} is not a vector")
            self.charge(ev.PACK)
            try:
                vec[lhs.lane] = value
            except IndexError:
                self.fail("lane store out of range")
        elif isinstance(lhs, L.ArrayLaneLV):
            index = self.const_int(self.eval(lhs.index), "array index")
            if lhs.name not in self.locals:
                self.fail("stateful: lane store into state array")
            try:
                vec = self.locals[lhs.name][index]
            except IndexError:
                self.fail("array store out of range")
            if not self.is_vec(vec):
                self.fail("lane store into a scalar element")
            self.charge(ev.PACK)
            try:
                vec[lhs.lane] = value
            except IndexError:
                self.fail("lane store out of range")
        else:
            self.fail(f"unknown lvalue {type(lhs).__name__}")

    def assign_state(self, name: str, value: Any) -> None:
        if name in self.scan_cur:
            self.scan_assign(name, value)
            return
        if self.is_vec(value) or value[0] != "a" or value[1] != name:
            var = self.aff.get(name)
            reason = "stateful: " + (var.why if var is not None and var.why
                                     else "non-affine state update")
            if not self.is_vec(value) and \
                    type(self.rt.state[name]) in (bool, int, float):
                raise _NeedScan(name, reason)
            self.fail(reason)
        _, _, inner, mul, add, hf = value
        var = self.aff[name]
        if hf and var.baked_type is not float:
            self.fail("stateful: state type changes under float update")
        if var.baked_type is bool and add != 0:
            self.fail("stateful: bool state leaves {0,1} under update")
        self._cur[name] = (inner, mul, add, hf)

    # -- the sequential scan -----------------------------------------------------
    def scan_ref(self, av: Any) -> Tuple[str, int]:
        """The env slot of one scan operand: a scanned value's own, or a
        new input slot for a constant, state constant or column."""
        if av[0] == "q":
            return av[1]
        op = self.exact(self.operand(av))
        if op[0] != "r":
            self.scan_consts.append(op)
            return ("k", len(self.scan_consts) - 1)
        if op in self.scan_cols:
            return ("col", self.scan_cols.index(op))
        if self.rtags[op[1]] == "int":
            # The column enters the scan as Python ints.
            self.add_check(op, "always")
        self.scan_cols.append(op)
        return ("col", len(self.scan_cols) - 1)

    def scan_tag(self, av: Any) -> str:
        tag = self.tag_of(av)
        if tag == "w64":
            self.fail(_W64_REASON)
        return "int" if tag == "i64" else tag

    def scan_op(self, kind: str, name: str, args: List[Any]) -> Any:
        """One step of the scan's update chain: ``name`` applied to
        ``args``, at least one of them a scanned value."""
        if kind == "call":
            try:
                math_impl(name)
            except ValueError:
                self.fail(f"unknown intrinsic {name!r}")
            if name in ("min", "max") and len(args) > 2:
                acc = args[0]
                for nxt in args[1:]:
                    acc = self.scan_op(kind, name, [acc, nxt])
                return acc
        tag = _scan_tag(kind, name, [self.scan_tag(a) for a in args])
        if tag is None:
            self.fail("min/max over mixed operand types")
        refs = [self.scan_ref(a) for a in args]
        dest = ("tmp", len(self.scan_steps))
        self.scan_steps.append((kind, name, refs[0],
                                refs[1] if len(refs) > 1 else None))
        return ("q", dest, tag)

    def scan_assign(self, name: str, value: Any) -> None:
        if self.is_vec(value):
            self.fail("stateful: vector value assigned to scalar state")
        want = _tag_of_const(self.rt.state[name])
        tag = self.scan_tag(value)
        if tag == "slab" and want != "bool":
            self.need_mode(want)
        elif tag != want:
            self.fail("stateful: state type changes under update")
        self.scan_cur[name] = self.scan_ref(value)

    # -- state rings --------------------------------------------------------------
    def ring_slot(self, ring: _Ring, index: Any) -> Tuple[Any, ...]:
        """A ring access's slot operand: a constant, or an integer state
        form (a ring cursor); stream-derived indices refuse."""
        if self.is_vec(index):
            self.fail("vector value used as array index")
        if index[0] == "c":
            k = self.const_int(index, "array index")
            if not 0 <= k < ring.length:
                self.fail("state array access out of range")
            return ("c", k)
        if index[0] == "a" and self.tag_of(index) in ("int", "bool"):
            return self.operand(index)
        self.fail("data-dependent array index")

    def ring_read(self, ring: _Ring, index: Any) -> Any:
        slot = self.ring_slot(ring, index)
        self.charge(ev.VECTOR_LOAD if ring.width else ev.SCALAR_LOAD)
        read = len(ring.is_write) - ring.n_writes
        ring.slots.append(slot)
        ring.is_write.append(False)
        tag = "float" if ring.etype is float else "int"
        # An int ring's bound row is set once every write is known.
        bound = self.bound_of(("c", _INF))
        if ring.width:
            return [self.new_reg(("ringout", ring.name, read, k), tag, bound)
                    for k in range(ring.width)]
        return self.new_reg(("ringout", ring.name, read, -1), tag, bound)

    def ring_write(self, ring: _Ring, index: Any, value: Any) -> None:
        slot = self.ring_slot(ring, index)
        if self.is_vec(value) != bool(ring.width) or \
                (ring.width and len(value) != ring.width):
            self.fail("stateful: state array element shape changes")
        self.charge(ev.VECTOR_STORE if ring.width else ev.SCALAR_STORE)
        want = "float" if ring.etype is float else "int"
        for lane in (value if ring.width else [value]):
            if self.is_vec(lane):
                self.fail("nested vector value")
            op = self.f64(self.operand(lane))
            tag = self.tag_of(op)
            if tag == "slab":
                self.need_mode(want)
            elif tag != want:
                self.fail("stateful: state array element type changes")
            elif tag == "int":
                self.add_check(op, "always")
            ring.values.append(op)
        ring.slots.append(slot)
        ring.is_write.append(True)
        ring.n_writes += 1

    # ==========================================================================
    # Expressions
    # ==========================================================================
    def eval(self, e: E.Expr) -> Any:
        self.step()
        if isinstance(e, (E.IntConst, E.FloatConst, E.BoolConst)):
            return ("c", e.value)
        if isinstance(e, E.VectorConst):
            return [("c", v) for v in e.values]
        if isinstance(e, E.Var):
            return self.read_var(e.name)
        if isinstance(e, E.ArrayRead):
            return self.array_read(e)
        if isinstance(e, E.Lane):
            base = self.eval(e.base)
            if not self.is_vec(base):
                self.fail("lane access on scalar value")
            self.charge(ev.UNPACK)
            if not 0 <= e.index < len(base):
                self.fail("lane index out of range")
            return base[e.index]
        if isinstance(e, E.BinaryOp):
            return self.binary(e)
        if isinstance(e, E.UnaryOp):
            return self.unary(e)
        if isinstance(e, E.Call):
            return self.call(e)
        if isinstance(e, E.Select):
            return self.select(e)
        if isinstance(e, E.Pop):
            self.charge_scalar_in()
            return self.tape_read(self.rcur, advance=1)
        if isinstance(e, E.Peek):
            self.charge_scalar_in()
            offset = self.const_int(self.eval(e.offset), "peek offset")
            if offset < 0:
                self.fail("negative peek offset")
            return self.tape_read(self.rcur + offset, advance=0)
        if isinstance(e, E.VPop):
            self.charge(ev.VECTOR_LOAD)
            return self.vtape_read(self.rcur, advance=1)
        if isinstance(e, E.VPeek):
            self.charge(ev.VECTOR_LOAD)
            offset = self.const_int(self.eval(e.offset), "vpeek offset")
            if offset < 0:
                self.fail("negative vpeek offset")
            return self.vtape_read(self.rcur + offset, advance=0)
        if isinstance(e, E.ArrayVec):
            return self.array_vec(e)
        if isinstance(e, E.Broadcast):
            value = self.eval(e.value)
            if self.is_vec(value):
                return value
            self.charge(ev.SPLAT)
            return [value] * e.width
        if isinstance(e, E.GatherPop):
            return self.gather(e.stride, self.rcur, e.strategy,
                               advance=e.advance)
        if isinstance(e, E.GatherPeek):
            offset = self.const_int(self.eval(e.offset), "gather offset")
            if offset < 0:
                self.fail("negative gather offset")
            return self.gather(e.stride, self.rcur + offset, e.strategy,
                               advance=0)
        if isinstance(e, E.InternalPop):
            return self.internal_pop(e.buf)
        if isinstance(e, E.InternalPeek):
            offset = self.const_int(self.eval(e.offset), "internal offset")
            buf = self.sim_internal.get(e.buf, [])
            if offset >= len(buf):
                self.fail(f"internal buffer {e.buf} underflow")
            value = buf[offset]
            self.charge(ev.VECTOR_LOAD if self.is_vec(value)
                        else ev.SCALAR_LOAD)
            self.internal_used = True
            return value
        if isinstance(e, E.Param):
            self.fail(f"unbound parameter {e.name!r}")
        self.fail(f"unknown expression {type(e).__name__}")

    def const_int(self, av: Any, what: str) -> int:
        if self.is_vec(av) or av[0] != "c":
            self.fail(f"data-dependent {what}")
        try:
            return int(av[1])
        except (ValueError, OverflowError, TypeError):
            self.fail(f"malformed {what}")

    # -- variable / state reads ------------------------------------------------
    def read_var(self, name: str) -> Any:
        if name in self.locals:
            return self.locals[name]
        state = self.rt.state
        if name not in state:
            self.fail(f"undefined variable {name!r}")
        if name in self.rings:
            self.fail("whole-array read of a written state array")
        if name in self.scan_cur:
            return ("q", self.scan_cur[name],
                    _tag_of_const(self.rt.state[name]))
        sv = state[name]
        if isinstance(sv, list):
            # Never-written vector state: lanes become batch constants.
            return [self.state_const(name, (k,), sv[k])
                    for k in range(len(sv))]
        return self.affine_read(name)

    def affine_read(self, name: str) -> Any:
        var = self.aff.get(name)
        if var is None:
            sv = self.rt.state[name]
            baked = type(sv)
            if baked not in (bool, int, float):
                self.fail(f"unsupported state type for {name!r}")
            var = _AffineVar(name, baked)
            self.aff[name] = var
        return ("a", name, *self._cur.get(name, (None, 1, 0, False)))

    def state_const(self, name: str, path: Tuple[int, ...],
                    value: Any) -> Tuple[Any, ...]:
        if type(value) not in (bool, int, float):
            self.fail(f"unsupported state element type in {name!r}")
        key = (name, path)
        for j, existing in enumerate(self.state_reads):
            if existing == key:
                return ("s", j)
        self.state_reads.append(key)
        self.sread_types.append(type(value))
        return ("s", len(self.state_reads) - 1)

    def array_read(self, e: E.ArrayRead) -> Any:
        index_av = self.eval(e.index)
        if e.name not in self.locals and e.name in self.rings:
            return self.ring_read(self.rings[e.name], index_av)
        index = self.const_int(index_av, "array index")
        if e.name in self.locals:
            array = self.locals[e.name]
        elif e.name in self.rt.state:
            sv = self.rt.state[e.name]
            if not isinstance(sv, list):
                self.fail(f"indexing non-array state {e.name!r}")
            if not 0 <= index < len(sv):
                self.fail("state array read out of range")
            elem = sv[index]
            if isinstance(elem, list):
                self.charge(ev.VECTOR_LOAD)
                return [self.state_const(e.name, (index, k), elem[k])
                        for k in range(len(elem))]
            self.charge(ev.SCALAR_LOAD)
            return self.state_const(e.name, (index,), elem)
        else:
            self.fail(f"undefined array {e.name!r}")
        try:
            value = array[index]
        except (IndexError, TypeError):
            self.fail("array read out of range")
        self.charge(ev.VECTOR_LOAD if self.is_vec(value) else ev.SCALAR_LOAD)
        return value

    def array_vec(self, e: E.ArrayVec) -> Any:
        start = self.const_int(self.eval(e.index), "vector-load index")
        sw = self.rt.simd_width
        if e.name in self.locals:
            array = self.locals[e.name]
            if not isinstance(array, list):
                self.fail(f"{e.name!r} is not an array")
            if start + sw > len(array):
                self.fail(f"vector load past end of array {e.name!r}")
            self.charge(ev.VECTOR_LOAD_U)
            return list(array[start:start + sw])
        if e.name in self.rt.state:
            sv = self.rt.state[e.name]
            if e.name in self.rings:
                self.fail("vector load from a written state array")
            if not isinstance(sv, list) or start + sw > len(sv):
                self.fail(f"vector load past end of array {e.name!r}")
            self.charge(ev.VECTOR_LOAD_U)
            return [self.state_const(e.name, (start + k,), sv[start + k])
                    for k in range(sw)]
        self.fail(f"undefined array {e.name!r}")

    # -- tape reads --------------------------------------------------------------
    def tape_read(self, pos: int, advance: int) -> Tuple[Any, ...]:
        self.require_input()
        if self.in_vector:
            self.fail("scalar pop/peek on a vector tape")
        if pos > self.max_read:
            self.max_read = pos
        self.rcur += advance
        reg = self.new_reg(("slab", pos), "slab", _WINDOW_BOUND)
        self.checks.append((reg[1], "int"))
        return reg

    def vtape_read(self, pos: int, advance: int) -> List[Any]:
        self.require_input()
        if not self.in_vector:
            self.fail("vpop from a scalar tape")
        if pos > self.max_read:
            self.max_read = pos
        self.rcur += advance
        lanes = []
        for lane in range(self.rt.simd_width):
            lanes.append(self.new_reg(("vslab", pos, lane), "float",
                                      _WINDOW_BOUND))
        return lanes

    def gather(self, stride: int, offset: int, strategy: str,
               advance: int) -> List[Any]:
        self.require_input()
        if self.in_vector:
            self.fail("gather on a vector tape")
        sw = self.rt.simd_width
        lanes = []
        for k in range(sw):
            pos = offset + k * stride
            if pos > self.max_read:
                self.max_read = pos
            reg = self.new_reg(("slab", pos), "slab", _WINDOW_BOUND)
            self.checks.append((reg[1], "int"))
            lanes.append(reg)
        self.rcur += advance
        self.charge_sheet(ev.gather_events, strategy, stride, sw)
        return lanes

    def internal_pop(self, buf_id: int) -> Any:
        buf = self.sim_internal.get(buf_id)
        if not buf:
            self.fail(f"internal buffer {buf_id} underflow")
        value = buf.pop(0)
        self.charge(ev.VECTOR_LOAD if self.is_vec(value) else ev.SCALAR_LOAD)
        self.internal_used = True
        return value

    # -- operators ---------------------------------------------------------------
    def binary(self, e: E.BinaryOp) -> Any:
        left = self.eval(e.left)
        right = self.eval(e.right)
        lv, rv = self.is_vec(left), self.is_vec(right)
        if lv or rv:
            width = len(left) if lv else len(right)
            lt = left if lv else [left] * width
            rt_ = right if rv else [right] * width
            self.charge(ev.binary_op_event(e.op, vector=True))
            return [self.scalar_binary(e.op, a, b)
                    for a, b in zip(lt, rt_)]
        self.charge(ev.binary_op_event(e.op, vector=False))
        return self.scalar_binary(e.op, left, right)

    def fold_const(self, op: str, a: Any, b: Any) -> Tuple[Any, ...]:
        try:
            return ("c", apply_binary(op, a, b))
        except Exception as exc:
            self.fail(f"constant fold of {op!r} failed: {exc}")

    def scalar_binary(self, op: str, left: Any, right: Any) -> Any:
        """Uncharged scalar combine (callers charge the op event once)."""
        if left[0] == "c" and right[0] == "c":
            return self.fold_const(op, left[1], right[1])
        if left[0] == "q" or right[0] == "q":
            return self.scan_op("bin", op, [left, right])
        # State-form folds: (mul·I + add) ∘ const stays a state form.
        if op in _FOLD_OPS and (left[0] == "a" or right[0] == "a"):
            folded = self.try_affine_fold(op, left, right)
            if folded is not None:
                return folded
        if op in _BITWISE:
            return self.int_op(op, left, right)
        if op in ("+", "-", "*"):
            tags = (self.tag_of(left), self.tag_of(right))
            if "float" not in tags and ("i64" in tags or "w64" in tags):
                return self.int_op(op, left, right)
        if op in _CMP_OPS:
            a = self.b2f(self.operand(left))
            b = self.b2f(self.operand(right))
            return self.new_reg(("cmp", op, a, b), "bool",
                                self.bound_of(("c", 1.0)))
        if op in ("&&", "||"):
            a = self.truthify(self.operand(left))
            b = self.truthify(self.operand(right))
            return self.new_reg(("logic", op == "&&", a, b), "bool",
                                self.bound_of(("c", 1.0)))
        if op in ("+", "-", "*"):
            return self.arith(op, left, right)
        if op in ("/", "%"):
            return self.divide(op, left, right)
        self.fail(f"unknown binary operator {op!r}")

    def try_affine_fold(self, op: str, left: Any,
                        right: Any) -> Optional[Tuple[Any, ...]]:
        """Fold ``form ∘ constant`` into a new state form, or return None
        (the op then runs as ordinary column arithmetic) after noting on
        the variable why — the reason a later assignment of the result
        back to the state is refused with."""
        if left[0] == "a" and right[0] == "c":
            form, c = left, right[1]
        elif op in ("+", "*") and right[0] == "a" and left[0] == "c":
            form, c = right, left[1]
        else:
            for side, other in ((left, right), (right, left)):
                if side[0] == "a":
                    self.aff[side[1]].why = (
                        "state multiplied by state"
                        if op == "*" and other[0] == "a"
                        else "state folds stream data"
                        if other[0] == "r" else "")
            return None
        _, name, inner, mul, add, hf = form
        var = self.aff[name]
        var.why = ""
        if op in ("+", "-"):
            plain = inner is None and mul == 1
            if type(c) not in (bool, int, float) \
                    or (type(c) is float and not plain):
                return None
            fc = abs(float(c)) if type(c) is not int \
                else (abs(c) if -_EXACT_LIMIT < c < _EXACT_LIMIT else None)
            if fc is None:
                return None
            if plain:
                var.sum_folds += fc
                if type(c) is float and not c.is_integer():
                    var.folds_integral = False
                    if not (c * _DYADIC_SCALE).is_integer():
                        var.folds_dyadic = False
            hf = hf or type(c) is float
            return ("a", name, inner, mul, add + c if op == "+" else add - c,
                    hf)
        if var.baked_type is not int or hf or type(c) is not int:
            if op == "*":
                var.why = "float recurrence (state scaled by a non-integer)"
            return None
        if op == "*":
            return ("a", name, inner, mul * c, add * c, hf)
        # ``%``: every operand non-negative, so C's truncated remainder is
        # the residue and the coefficients reduce mod c.
        if c <= 0:
            return None
        if c > _MOD_LIMIT:
            var.why = "modulus exceeds 2**31"
            return None
        if mul < 0 or add < 0:
            var.why = "negative coefficient under a modulus"
            return None
        if inner is None:
            return ("a", name, (mul % c, add % c, c), 1, 0, hf)
        if inner[2] != c:
            return None
        return ("a", name, (mul * inner[0] % c, (mul * inner[1] + add) % c, c),
                1, 0, hf)

    # -- the int64 lane -------------------------------------------------------------
    def int_operand(self, av: Any) -> Tuple[Tuple[Any, ...], bool]:
        """An int-lane operand and whether it is exact (a wrapped constant
        or a ``w64`` register is only exact modulo 2**64)."""
        if av[0] == "c":
            try:
                v = int(av[1])          # the interpreter's int(a) << int(b)
            except (ValueError, OverflowError):
                self.fail("bitwise operator on a non-finite constant")
            return ("c", _wrap64(v)), _wrap64(v) == v
        op = self.operand(av)
        tag = self.tag_of(op)
        if tag == "float":
            self.fail("bitwise operator on a float operand")
        if tag == "bool":
            op = self.b2f(op)
        elif tag == "slab":
            self.need_mode("int")
        elif tag == "int":
            self.add_check(op, "always")
        return op, tag != "w64"

    def int_op(self, op: str, left: Any, right: Any) -> Tuple[Any, ...]:
        """``left op right`` on int64 columns.  ``+ - * & | ^ <<`` are
        ring ops, exact modulo 2**64: their result is a ``w64`` register
        unless both operands are exact and the op cannot overflow (``& |
        ^``), or it is masked by a constant ``0 <= c < 2**63``."""
        code = _INT_CODES.get(op)
        if code is None:
            self.fail(f"unknown binary operator {op!r}")
        a, a_exact = self.int_operand(left)
        if op in ("<<", ">>"):
            if right[0] != "c":
                self.fail("shift by a non-constant count")
            k, _ = self.int_operand(right)
            if not 0 <= k[1] <= 63:
                self.fail("shift count outside [0, 63]")
            if op == "<<":
                return self.new_reg(("ibin", code, a, k), "w64",
                                    self.bound_of(("c", _INF)))
            if not a_exact:
                self.fail(_W64_REASON)
            return self.new_reg(("ibin", code, a, k), "i64",
                                self.bound_of(a))
        b, b_exact = self.int_operand(right)
        if op == "&":
            for mask in (a, b):
                if mask[0] == "c" and 0 <= mask[1] < 2 ** 63:
                    return self.new_reg(("ibin", code, a, b), "i64",
                                        self.bound_of(mask))
        if op in ("&", "|", "^") and a_exact and b_exact:
            return self.new_reg(("ibin", code, a, b), "i64",
                                self.bound_op("bits", a, b))
        return self.new_reg(("ibin", code, a, b), "w64",
                            self.bound_of(("c", _INF)))

    def tag_join(self, *tags: str) -> str:
        if "float" in tags:
            return "float"
        if "slab" in tags:
            return "slab"
        return "int"

    def arith(self, op: str, left: Any, right: Any) -> Tuple[Any, ...]:
        a = self.b2f(self.operand(left))
        b = self.b2f(self.operand(right))
        ta, tb = self.tag_of(a), self.tag_of(b)
        tag = self.tag_join(ta, tb)
        if op == "*":
            code = "mul"
            bound = self.bound_op("mul", a, b)
        else:
            code = "add" if op == "+" else "sub"
            bound = self.bound_op("add", a, b)
        reg = self.new_reg(("bin", code, a, b), tag, bound)
        if tag == "int":
            self.checks.append((reg[1], "always"))
        elif tag == "slab":
            self.checks.append((reg[1], "int"))
        return reg

    def divide(self, op: str, left: Any, right: Any) -> Tuple[Any, ...]:
        a = self.b2f(self.operand(left))
        b = self.b2f(self.operand(right))
        ta, tb = self.tag_of(a), self.tag_of(b)
        int_like = {"int"}
        if ta in int_like and tb in int_like:
            kind = "cdiv" if op == "/" else "cmod"
            tag = "int"
            mode = "always"
        elif ta == "float" or tb == "float":
            kind = "true" if op == "/" else "fmod"
            tag = "float"
            mode = None
        else:
            kind = "mode"
            tag = "slab"
            mode = "int"
        # Divisor validation.
        zcheck = True
        if b[0] == "c":
            zcheck = False
            if b[1] == 0 and kind != "fmod":
                # fmod(x, 0.0) raises too — but via apply_math; treat alike.
                self.fail("constant division by zero")
            if kind == "fmod" and b[1] == 0:
                self.fail("constant fmod by zero")
        if mode is not None:
            # Truncating division is exact only when |dividend| and
            # |divisor| both stay below 2**53.
            self.add_check(a, mode)
            self.add_check(b, mode)
            if b[0] == "c" and type(b[1]) is int \
                    and not -_EXACT_LIMIT < b[1] < _EXACT_LIMIT:
                self.fail("divisor constant exceeds float64 exact range")
        # Without an exact numpy fmod the float ``%`` maps the interpreter's.
        fmod_ok = "fmod" in EXACT_INTRINSICS
        if tag == "float":
            bound = self.bound_of(("c", _INF))
        elif op == "/":
            bound = self.bound_of(a)  # |trunc(a/b)| <= |a| for |b| >= 1
        else:
            bound = self.bound_of(b)  # |a mod b| < |b|
        if op == "/":
            return self.new_reg(("div", a, b, kind, zcheck), tag, bound)
        return self.new_reg(("mod", a, b, kind, zcheck, fmod_ok), tag, bound)

    def unary(self, e: E.UnaryOp) -> Any:
        operand = self.eval(e.operand)
        if self.is_vec(operand):
            self.charge(ev.VECTOR_ALU)
            return [self.scalar_unary(e.op, x) for x in operand]
        self.charge(ev.SCALAR_ALU)
        return self.scalar_unary(e.op, operand)

    def scalar_unary(self, op: str, operand: Any) -> Any:
        if operand[0] == "c":
            try:
                return ("c", apply_unary(op, operand[1]))
            except Exception as exc:
                self.fail(f"constant fold of unary {op!r} failed: {exc}")
        if operand[0] == "q":
            return self.scan_op("un", op, [operand])
        if op in ("-", "~") and self.tag_of(operand) in ("i64", "w64"):
            a = self.operand(operand)
            if op == "-":
                return self.new_reg(("ibin", "sub", ("c", 0), a), "w64",
                                    self.bound_of(("c", _INF)))
            return self.new_reg(("inot", a), self.rtags[a[1]],
                                self.bound_op("add", a, ("c", 1.0)))
        if op == "!":
            t = self.truthify(self.operand(operand))
            return self.new_reg(("not", t), "bool", self.bound_of(("c", 1.0)))
        if op == "-":
            a = self.b2f(self.operand(operand))
            tag = self.tag_of(a)
            if tag == "bool":  # b2f produced int; unreachable, keep safe
                tag = "int"
            return self.new_reg(("neg", a), tag, self.bound_of(a))
        if op == "~":
            a = self.b2f(self.operand(operand))
            reg = self.new_reg(("bnot", a), "int",
                               self.bound_op("add", a, ("c", 1.0)))
            self.checks.append((reg[1], "always"))
            return reg
        self.fail(f"unknown unary operator {op!r}")

    # -- intrinsic calls ----------------------------------------------------------
    def call(self, e: E.Call) -> Any:
        args = [self.eval(a) for a in e.args]
        if any(self.is_vec(a) for a in args):
            width = next(len(a) for a in args if self.is_vec(a))
            cols = [a if self.is_vec(a) else [a] * width for a in args]
            self.charge(ev.vector_math(e.func))
            return [self.scalar_call(e.func, [col[i] for col in cols])
                    for i in range(width)]
        self.charge(ev.scalar_math(e.func))
        return self.scalar_call(e.func, args)

    def scalar_call(self, func: str, args: List[Any]) -> Any:
        if all(a[0] == "c" for a in args):
            try:
                return ("c", apply_math(func, [a[1] for a in args]))
            except Exception as exc:
                self.fail(f"constant fold of {func!r} failed: {exc}")
        if any(a[0] == "q" for a in args):
            return self.scan_op("call", func, args)
        if func == "abs":
            a = self.b2f(self.operand(args[0]))
            tag = self.tag_of(a)
            if tag == "bool":
                tag = "int"
            return self.new_reg(("abs", a), tag, self.bound_of(a))
        if func in ("min", "max"):
            return self.minmax(func == "min", args)
        if func == "float":
            a = self.f64(self.operand(args[0]))
            tag = self.tag_of(a)
            if tag == "bool":
                a = self.b2f(a)
            return self.new_reg(("id", a), "float", self.bound_of(a))
        if func == "int":
            a = self.b2f(self.operand(args[0]))
            tag = self.tag_of(a)
            if tag == "int":
                return self.new_reg(("id", a), "int", self.bound_of(a))
            return self.new_reg(("trunc", a), "int", self.bound_of(a))
        try:
            math_impl(func)
        except ValueError:
            self.fail(f"unknown intrinsic {func!r}")
        ops = tuple(self.b2f(self.operand(a)) for a in args)
        op = "call" if func in NP_MATH and func in EXACT_INTRINSICS \
            else "pycall"
        return self.new_reg((op, func, ops), "float",
                            self.bound_of(("c", _INF)))

    def minmax(self, is_min: bool, args: List[Any]) -> Any:
        if len(args) < 2:
            self.fail("min/max with fewer than two arguments")
        acc = args[0]
        for nxt in args[1:]:
            if acc[0] == "c" and nxt[0] == "c":
                acc = ("c", min(acc[1], nxt[1]) if is_min
                       else max(acc[1], nxt[1]))
                continue
            a = self.f64(self.operand(acc))
            b = self.f64(self.operand(nxt))
            ta, tb = self.tag_of(a), self.tag_of(b)
            if ta != tb:
                # Python min/max preserve the *argument's* type; a mixed
                # int/float pair can surface either type data-dependently.
                self.fail("min/max over mixed operand types")
            acc = self.new_reg(("minmax", is_min, a, b, ta == "bool"),
                               ta, self.bound_op("max", a, b))
        return acc

    # -- select --------------------------------------------------------------------
    def select(self, e: E.Select) -> Any:
        cond = self.eval(e.cond)
        if_true = self.eval(e.if_true)
        if_false = self.eval(e.if_false)
        if self.is_vec(cond):
            self.charge(ev.VECTOR_ALU)  # blend
            width = len(cond)
            t = if_true if self.is_vec(if_true) else [if_true] * width
            f = if_false if self.is_vec(if_false) else [if_false] * width
            return [self.scalar_select(cond[i], t[i], f[i])
                    for i in range(width)]
        self.charge(ev.SCALAR_ALU)
        if cond[0] == "c":
            return self.copy_pick(cond[1], if_true, if_false)
        if self.is_vec(if_true) or self.is_vec(if_false):
            self.fail("data-dependent select between vector values")
        return self.scalar_select(cond, if_true, if_false)

    def copy_pick(self, cond_val: Any, if_true: Any, if_false: Any) -> Any:
        return if_true if cond_val else if_false

    def scalar_select(self, cond: Any, if_true: Any, if_false: Any) -> Any:
        if cond[0] == "c":
            return self.copy_pick(cond[1], if_true, if_false)
        if self.is_vec(if_true) or self.is_vec(if_false):
            self.fail("data-dependent select between vector values")
        c = self.truthify(self.operand(cond))
        a = self.f64(self.operand(if_true))
        b = self.f64(self.operand(if_false))
        tt, tf = self.tag_of(a), self.tag_of(b)
        tag = tt if tt == tf else None
        if tag is None:
            if "bool" in (tt, tf):
                self.fail("select arms of mixed bool/number type")
            tag = self.tag_join(tt, tf)
        return self.new_reg(("where", c, a, b, tag), tag,
                            self.bound_op("max", a, b))

    # ==========================================================================
    # Finalization
    # ==========================================================================
    def build(self) -> BatchKernel:
        self.walk_body(self.spec.work_body)
        # The last in-firing form of each assigned variable is its
        # per-firing map.
        for name, (inner, mul, add, _hf) in self._cur.items():
            var = self.aff[name]
            if mul != 1:
                raise _NeedScan(name, "stateful: multiplicative state "
                                "update without a modulus")
            if inner is None:
                var.c = add
            elif add:
                raise _NeedScan(name, "stateful: modular state update "
                                "leaves [0, m)")
            else:
                var.a, var.c, var.m = inner
        for var in self.aff.values():
            if var.reads:
                var.rows = np.array(list(var.reads), dtype=np.int64) \
                    .T.reshape(3, -1, 1)
        for buf, items in self.sim_internal.items():
            if items:
                self.fail(f"internal buffer {buf} not drained by firing")
        a_in = self.rcur
        a_out = self.wcur
        if a_out >= 1 and self.records:
            residues = [offset % a_out for offset, _ in self.records]
            if len(set(residues)) != len(residues):
                self.fail("overlapping strided writes")
        need = self.max_read + 1 if self.max_read >= 0 else 0
        rings = self.finish_rings()
        scan = self.finish_scan()
        if rings or scan is not None:
            self.order_program(rings, scan)
        bounds = self.bound_table(len(rings))
        bound_consts = tuple(self.bound_consts)
        # Build-time bound sanity: any *checked* register must have a
        # finite symbolic bound, else the check could never pass anyway.
        bvals = _eval_bounds(bounds, [1.0] * (1 + len(self.state_reads)
                                              + len(self.aff) + len(rings))
                             + list(bound_consts))
        for idx, _mode in self.checks:
            if bvals[idx] == _INF:
                self.fail("unbounded integer arithmetic")
        return BatchKernel(
            a_in=a_in,
            a_out=a_out,
            need=need,
            in_vector=self.in_vector,
            width=self.rt.simd_width,
            instrs=tuple(self.instrs),
            rtags=tuple(self.rtags),
            bounds=bounds,
            bound_consts=bound_consts,
            frees=self.free_lists(rings, scan),
            checks=tuple(dict.fromkeys(self.checks)),
            records=tuple(self.records),
            state_reads=tuple(self.state_reads),
            sread_types=tuple(self.sread_types),
            aff_vars=tuple(self.aff.values()),
            rings=rings,
            scan=scan,
            window_mode=self.window_mode,
            events=dict(self.events),
            internal_used=self.internal_used,
            n_regs=len(self.rtags),
        )

    def finish_rings(self) -> Tuple[_Ring, ...]:
        """Add one ``ring`` gather per accessed ring, point its reads at
        it and, for an int ring, bound them by its contents and every
        value written."""
        rings = tuple(r for r in self.rings.values() if r.is_write)
        for rid, ring in enumerate(rings):
            ring.write_pos = np.array(
                [e for e, w in enumerate(ring.is_write) if w], dtype=np.intp)
            ring.read_pos = tuple(
                e for e, w in enumerate(ring.is_write) if not w)
            reg = self.new_reg(("ring", rid, tuple(ring.slots),
                                tuple(ring.values)), "ring",
                               self.bound_of(("c", _INF)))
            ring.reg = reg[1]
            bound = ("maxn", (("ring", rid),
                              *map(self.bound_ref, ring.values)), None)
            for i, ins in enumerate(self.instrs):
                if ins[0] == "ringout" and ins[1] == ring.name:
                    self.instrs[i] = ("ringout", reg, *ins[2:])
                    if ring.etype is int:
                        self.bounds[i] = bound
        return rings

    def finish_scan(self) -> Optional[_Scan]:
        """Add the ``seqscan`` instruction and resolve the scan's symbolic
        env slots: the states, then the constants, the columns, and one
        slot per step."""
        if not self.scan_names:
            return None
        consts, cols = self.scan_consts, self.scan_cols
        base = {"st": 0, "k": len(self.scan_names)}
        base["col"] = base["k"] + len(consts)
        base["tmp"] = base["col"] + len(cols)

        def slot(ref: Any) -> int:
            return -1 if ref is None else base[ref[0]] + ref[1]

        impls = {"bin": BINARY_IMPLS, "un": UNARY_IMPLS}
        steps = tuple(
            (impls[kind][name] if kind in impls else math_impl(name),
             slot(a), slot(b), slot(("tmp", k)))
            for k, (kind, name, a, b) in enumerate(self.scan_steps))
        emits = sorted(self.scan_emits, key=self.scan_emits.get)
        reg = self.new_reg(("seqscan", tuple(cols)), "scan",
                           self.bound_of(("c", _INF)))
        for i, ins in enumerate(self.instrs):
            if ins[0] == "scanout":
                self.instrs[i] = ("scanout", reg, *ins[2:])
        return _Scan(
            names=self.scan_names,
            types=tuple(type(self.rt.state[name])
                        for name in self.scan_names),
            steps=steps,
            emits=tuple(slot(ref) for ref in emits),
            carry=tuple(slot(self.scan_cur[name])
                        for name in self.scan_names),
            const_ops=tuple(consts),
            col_tags=tuple(self.rtags[op[1]] for op in cols),
            reg=reg[1])

    def order_program(self, rings: Tuple[_Ring, ...],
                      scan: Optional[_Scan]) -> None:
        """Reorder the register program so every instruction follows the
        registers it reads — a ring gather or the scan is added last but
        read by registers made during the walk — and renumber it."""
        n = len(self.instrs)
        deps = [_reads(ins) for ins in self.instrs]
        order: List[int] = []
        mark = [0] * n                  # 1: on the DFS stack, 2: placed
        for root in range(n):
            if mark[root]:
                continue
            mark[root] = 1
            stack = [(root, iter(deps[root]))]
            while stack:
                node, pending = stack[-1]
                for dep in pending:
                    if mark[dep] == 1:
                        self.fail("stateful: ring or scan state feeds back "
                                  "into itself")
                    if mark[dep] == 0:
                        mark[dep] = 1
                        stack.append((dep, iter(deps[dep])))
                        break
                else:
                    stack.pop()
                    mark[node] = 2
                    order.append(node)
        new = [0] * n
        for pos, old in enumerate(order):
            new[old] = pos

        def ref(x: Any) -> Any:
            # A register index, a "maxn" slot list, or a symbolic input.
            if type(x) is int:
                return new[x]
            if type(x) is tuple and type(x[0]) is not str:
                return tuple(map(ref, x))
            return x

        self.instrs = [_renumber(self.instrs[old], new) for old in order]
        self.rtags = [self.rtags[old] for old in order]
        self.bounds = [(self.bounds[old][0], ref(self.bounds[old][1]),
                        ref(self.bounds[old][2])) for old in order]
        self.checks = [(new[i], mode) for i, mode in self.checks]
        self.records = [(offset, _renumber(src, new))
                        for offset, src in self.records]
        for ring in rings:
            ring.reg = new[ring.reg]
        if scan is not None:
            scan.reg = new[scan.reg]

    def bound_table(self, n_rings: int) -> Tuple[Tuple[str, Any, Any], ...]:
        """The bound rows with every symbolic input resolved to its slot
        after the registers': the window, the state reads, the affine
        variables, the rings, then the constants."""
        n_regs = len(self.rtags)
        s_base = n_regs + 1
        a_base = s_base + len(self.state_reads)
        r_base = a_base + len(self.aff)
        k_base = r_base + n_rings
        aff_slot = {name: a_base + k for k, name in enumerate(self.aff)}

        def slot(ref: Any) -> Any:
            if type(ref) is int or ref is None:
                return ref
            if type(ref[0]) is not str:
                return tuple(map(slot, ref))        # a "maxn" slot list
            kind, x = ref
            if kind == "w":
                return n_regs
            if kind == "s":
                return s_base + x
            if kind == "aff":
                return aff_slot[x]
            if kind == "ring":
                return r_base + x
            return k_base + x

        return tuple((code, slot(a), slot(b)) for code, a, b in self.bounds)

    def free_lists(self, rings: Tuple[_Ring, ...],
                   scan: Optional[_Scan]) -> Tuple[Tuple[int, ...], ...]:
        """Per instruction, the registers whose last reader it is.  A
        register nothing reads dies at its own instruction; one an output
        record reads, a ring gather or the scan (committed last) is never
        freed."""
        last = list(range(len(self.instrs)))
        for i, ins in enumerate(self.instrs):
            for reg in _reads(ins):
                last[reg] = i
        pinned = {ring.reg for ring in rings}
        if scan is not None:
            pinned.add(scan.reg)
        for _, src in self.records:
            for op in (src[1] if src[0] == "vec" else (src,)):
                if op[0] == "r":
                    pinned.add(op[1])
        frees: List[List[int]] = [[] for _ in self.instrs]
        for reg, i in enumerate(last):
            if reg not in pinned:
                frees[i].append(reg)
        return tuple(map(tuple, frees))


def _reads(ins: Tuple[Any, ...]) -> List[int]:
    """The registers an instruction reads: its ``("r", i)`` operands,
    directly or inside an argument tuple."""
    ops: List[Any] = []
    for part in ins[1:]:
        if type(part) is tuple:
            ops.extend(part if part and type(part[0]) is tuple else (part,))
    return [op[1] for op in ops if op and op[0] == "r"]


def _renumber(x: Any, new: List[int]) -> Any:
    """``x`` with every ``("r", i)`` operand inside it renumbered."""
    if type(x) is not tuple:
        return x
    if len(x) == 2 and type(x[0]) is str and x[0] == "r":
        return ("r", new[x[1]])
    return tuple(_renumber(y, new) for y in x)


def build_batch_kernel(runtime: ActorRuntime, spec: FilterSpec,
                       in_vector: bool) -> BatchKernel:
    """Abstract-interpret ``spec.work_body`` against ``runtime`` (whose
    state must already reflect ``run_init``) and return a batch kernel.

    A scalar state variable whose update is not modular-affine moves to
    the sequential scan and the body is walked again.  Raises
    :class:`Unvectorizable` with a human-readable reason when the actor
    must replay on the interpreter instead.
    """
    if np is None:
        raise Unvectorizable("numpy is not installed")
    scanned: FrozenSet[str] = frozenset()
    while True:
        try:
            return _Builder(runtime, spec, in_vector, scanned).build()
        except _NeedScan as exc:
            if exc.name in scanned:         # pragma: no cover - defensive
                raise Unvectorizable(str(exc)) from None
            scanned |= {exc.name}
