"""FIFO tape with StreamIt's extended access repertoire.

Beyond ``push``/``pop``, the SIMDized code of the paper needs:

* ``peek(offset)`` — non-destructive read ahead of the read pointer;
* ``rpush(value, offset)`` — random-access write past the write pointer
  *without* advancing it (§3.1, Figure 3b);
* ``advance_reader`` / ``advance_writer`` — bulk pointer adjustment closing
  out the strided access groups of a vectorized firing.

The implementation keeps an explicit read head and write pointer over a
growable list; slots between the write pointer and the furthest ``rpush``
hold a sentinel until written.  Elements may be scalars or vectors (lists):
the tape is agnostic.

:class:`NdTape` is the machine-native sibling used by the vector backend:
the same repertoire and the same observable behaviour (values, lengths,
error types *and* messages — pinned by the differential property suite),
but backed by a dtype-tracked int64/float64 ndarray with zero-copy window
views (``peek_block_array``) and ndarray commits (``write_strided``), so
batch kernels never round-trip Python lists.  A *vector tape* (§3.3: SW-wide
items, the first value a list of ``W`` floats) keeps its items as the rows
of one ``(items, W)`` float64 array, so the horizontal actors and the
HSplitter/HJoiner movers read and commit lanes as strided array slices.
As in StreamIt, a tape carries one element type: the first value fixes
it, and a payload of any other kind (an int on a float tape, a scalar on
a vector tape, a ragged vector, a bool, an int beyond int64) degrades the
tape to the inherited list representation, permanently and safely.

Storage is one of two orthogonal choices; the other, flow control, is
:class:`~repro.multicore.channels.Channel` — a bounded-blocking wrapper
around either storage.  All three speak the same **batch protocol**, which
is everything the batch paths (:mod:`.movers`, the vector kernels) know
about a tape's representation:

* ``window(count)`` — the next ``count`` committed items as an ndarray
  (int64 or float64, ``(count, W)`` rows on a vector tape), or ``None``:
  run this batch per firing.  List storage — a plain :class:`Tape` or a
  degraded :class:`NdTape` — never has a window;
* ``write_strided(offset, stride, column)`` — stage a list *or* ndarray
  column (a 2-d one, or a list of ``W``-float lists, on a vector tape); an
  np scalar never reaches list storage;
* ``window_is_copy`` — whether the reader is released before the batch
  commits its outputs (a copy) or after (the window may alias storage);
* ``batchable`` — whether the batch path may bypass the per-item methods.

The per-batch methods validate in :class:`Tape`, once, and reach storage
through four hooks (``_first_hole``, ``_stage_column``, ``_block``,
``_consumed``) that :class:`NdTape` overrides; the per-item methods
(``push``/``pop``/``peek``/``rpush``) stay whole in both classes — the
per-firing paths bind them once and call them millions of times.
"""

from __future__ import annotations

from typing import Any, List, Optional

from .errors import StreamRuntimeError, TapeUnderflow, UninitializedRead

try:  # pragma: no cover - exercised through both CI lanes
    import numpy as np
    HAVE_NUMPY = True
except ImportError:  # pragma: no cover
    np = None  # type: ignore[assignment]
    HAVE_NUMPY = False

_UNWRITTEN = object()

#: Compact the backing list when the dead prefix exceeds this many items.
_COMPACT_THRESHOLD = 8192


class Tape:
    """A FIFO channel between two actors."""

    __slots__ = ("name", "_buf", "_head", "_wp")

    #: Batch protocol: a :meth:`window` may alias tape storage, so batch
    #: paths release the reader only *after* committing their outputs.
    window_is_copy = False

    def __init__(self, name: str = "tape") -> None:
        self.name = name
        self._buf: List[Any] = []
        self._head = 0   # index of the next item to pop
        self._wp = 0     # index one past the last committed item

    # -- capacity -------------------------------------------------------------
    def __len__(self) -> int:
        """Number of committed, unconsumed items."""
        return self._wp - self._head

    def _ensure(self, index: int) -> None:
        grow = index + 1 - len(self._buf)
        if grow > 0:
            self._buf.extend([_UNWRITTEN] * grow)

    def _compact(self) -> None:
        if self._head > _COMPACT_THRESHOLD and self._head * 2 > len(self._buf):
            del self._buf[: self._head]
            self._wp -= self._head
            self._head = 0

    #: Storage hook: items were consumed by a per-batch read.
    _consumed = _compact

    # -- writing --------------------------------------------------------------
    def push(self, value: Any) -> None:
        self._ensure(self._wp)
        self._buf[self._wp] = value
        self._wp += 1

    def rpush(self, value: Any, offset: int) -> None:
        if offset < 0:
            raise ValueError(f"{self.name}: negative rpush offset {offset}")
        index = self._wp + offset
        self._ensure(index)
        self._buf[index] = value

    def advance_writer(self, count: int) -> None:
        if count < 0:
            raise ValueError(f"{self.name}: negative writer advance")
        if not count:
            return  # must not grow the backing buffer (regression-pinned)
        hole = self._first_hole(count)
        if hole is not None:
            raise UninitializedRead(
                f"{self.name}: advancing writer over unwritten slot {hole}")
        self._wp += count

    def _first_hole(self, count: int) -> Optional[int]:
        """Storage hook: offset past the write pointer of the first of the
        next ``count`` slots that was never staged, or ``None``."""
        self._ensure(self._wp + count - 1)
        segment = self._buf[self._wp:self._wp + count]
        return segment.index(_UNWRITTEN) if _UNWRITTEN in segment else None

    def write_strided(self, offset: int, stride: int, values: Any) -> None:
        """Write ``values[j]`` at ``offset + j * stride`` past the write
        pointer without advancing it — ``len(values)`` ``rpush`` calls in
        one slice assignment.  This is the batch protocol's column stage:
        ``values`` is a list or an ndarray (2-d: one row per vector item)."""
        if offset < 0:
            raise ValueError(f"{self.name}: negative rpush offset {offset}")
        if stride < 1:
            raise ValueError(f"{self.name}: write stride must be >= 1")
        if len(values):
            self._stage_column(offset, stride, values)

    def _stage_column(self, offset: int, stride: int, values: Any) -> None:
        """Storage hook: stage a validated, non-empty column."""
        if not isinstance(values, list):
            # np scalars must never reach list storage: downstream type
            # checks distinguish ``float`` from ``np.float64``.
            values = values.tolist()
        base = self._wp + offset
        last = base + (len(values) - 1) * stride
        self._ensure(last)
        self._buf[base:last + 1:stride] = values

    # -- reading --------------------------------------------------------------
    def pop(self) -> Any:
        if self._head >= self._wp:
            raise TapeUnderflow(f"{self.name}: pop from empty tape")
        value = self._buf[self._head]
        if value is _UNWRITTEN:
            raise UninitializedRead(f"{self.name}: pop of unwritten slot")
        self._head += 1
        self._compact()
        return value

    def peek(self, offset: int) -> Any:
        if offset < 0:
            raise ValueError(f"{self.name}: negative peek offset {offset}")
        index = self._head + offset
        if index >= self._wp:
            raise TapeUnderflow(
                f"{self.name}: peek({offset}) with only {len(self)} items")
        value = self._buf[index]
        if value is _UNWRITTEN:
            raise UninitializedRead(f"{self.name}: peek of unwritten slot")
        return value

    def _check_block(self, count: int) -> None:
        if count < 0:
            raise ValueError(f"{self.name}: negative peek_block count")
        if self._head + count > self._wp:
            raise TapeUnderflow(
                f"{self.name}: peek_block({count}) with only {len(self)} "
                f"items")

    def peek_block(self, count: int) -> List[Any]:
        """Non-destructive read of the next ``count`` committed items as one
        list of exact Python values."""
        self._check_block(count)
        return self._block(count)

    def _block(self, count: int) -> List[Any]:
        """Storage hook: the next ``count`` items (``count`` validated).
        Slots below the write pointer are committed by construction, so no
        per-slot sentinel check is needed."""
        return self._buf[self._head:self._head + count]

    def advance_reader(self, count: int) -> None:
        if count < 0:
            raise ValueError(f"{self.name}: negative reader advance")
        if self._head + count > self._wp:
            raise TapeUnderflow(
                f"{self.name}: advance_reader({count}) with only "
                f"{len(self)} items")
        self._head += count
        self._consumed()

    # -- batch protocol -------------------------------------------------------
    @property
    def batchable(self) -> bool:
        """Whether the batch paths may reach this tape's storage without
        going through its per-item methods — only for the storages defined
        here: a subclass nobody told the data plane about may override any
        of them, so its batches are replayed per firing instead."""
        return type(self) is Tape or type(self) is NdTape

    def window(self, count: int) -> Optional[Any]:
        """The next ``count`` committed items for one batch as an ndarray
        (rows on a vector tape) — or ``None`` when the batch must run per
        firing: list storage, fewer than ``count`` items committed (e.g. a
        short feedback window), or a tape that is not :attr:`batchable`."""
        if not self.batchable or self._wp - self._head < count:
            return None
        return self.peek_block_array(count)

    def peek_block_array(self, count: int) -> Optional[Any]:
        """The next ``count`` committed items as an ndarray view of the
        storage, or ``None`` when there is none — list storage never has."""
        self._check_block(count)
        return None

    # -- draining (output collection) ------------------------------------------
    def drain(self) -> List[Any]:
        """Pop and return every committed item (executor output collection)."""
        items = self._buf[self._head:self._wp]
        if any(item is _UNWRITTEN for item in items):
            raise UninitializedRead(f"{self.name}: drain hit unwritten slot")
        self._head = self._wp
        self._compact()
        return items


# ==============================================================================
# NdTape: the ndarray-native tape of the vector data plane
# ==============================================================================

_INT64_MIN = -(2 ** 63)
_INT64_MAX = 2 ** 63 - 1

#: The scalar kinds an :class:`NdTape` stores, by Python type and by
#: ndarray dtype kind.
_SCALAR_KINDS = {int: "int", float: "float"}
_DTYPE_KINDS = {"i": "int", "f": "float"}

#: Injectable defect (mutation tests only): rotates every ndarray window
#: read by this many items — the classic off-by-one ring-wrap bug.  The
#: differential oracles must catch and shrink it.
_MUT_ND_WINDOW_SHIFT = 0


class NdTape(Tape):
    """A :class:`Tape` backed by a dtype-tracked int64/float64 ndarray.

    Observable behaviour is identical to the list tape — same values
    (Python ``int`` stays ``int``, ``float`` stays ``float``), same
    lengths, same error types and messages — which the property suite in
    ``tests/runtime/test_tape_properties.py`` pins differentially.  What
    changes is the representation:

    * committed and staged items live in one contiguous ndarray
      (``_arr``), so the vector backend's batch kernels read input
      windows as **zero-copy views** (:meth:`peek_block_array`) and
      commit output columns as **array slice assignments**
      (:meth:`write_strided` of an ndarray) with no per-batch
      ``asarray``/``tolist``;
    * the first value written fixes the tape's **kind**, one of three:
      int64 for ``int``, float64 for ``float``, and ``(cap, W)`` float64
      rows for a list of exactly ``W`` Python floats — a **vector tape**,
      whose windows are ``(count, W)`` views and whose columns are 2-d
      arrays (or lists of ``W``-float lists).  Nothing is ever promoted:
      every slot holds a value of the tape's kind, so every read restores
      the exact Python type from the dtype alone;
    * reads of a vector tape (``pop``, ``peek``, ``peek_block``,
      ``drain``) hand out fresh lists of floats (``row.tolist()``), never
      the pushed list itself.  No program can tell: the interpreter
      copies a vector on ``VPush`` and on every assignment.  float64
      rows hold Python floats exactly, NaN, ±inf and −0.0 included;
    * any other payload **degrades** the tape to the inherited list
      representation (sticky; the reason is kept in ``degrade_reason``
      and surfaced through ``ExecutionResult.vectorized``): a float on an
      int tape, an int on a float tape, a scalar on a vector tape, a
      vector on a scalar tape, a ragged vector, a vector lane that is not
      a float, bools, and ints beyond the int64 range.

    A staged-write mask (``_written``, one flag per item on either kind)
    reproduces the list tape's ``_UNWRITTEN`` hole semantics for ``rpush``
    gaps, and the tape resets to the no-kind state whenever it empties
    completely, so per-phase kind changes never force a degrade.
    """

    __slots__ = ("_arr", "_written", "_kind", "_tail", "degrade_reason")

    def __init__(self, name: str = "tape") -> None:
        if not HAVE_NUMPY:
            raise StreamRuntimeError(
                "NdTape requires numpy (install the [vector] extra: "
                "pip install .[vector])")
        super().__init__(name)
        self._arr: Optional[Any] = None       # int64/float64 backing array
        self._written: Optional[Any] = None   # bool mask: slot was staged
        self._kind: Optional[str] = None      # None | "int" | "float" | "vector"
        self._tail = 0                        # one past the furthest staged slot
        self.degrade_reason: Optional[str] = None

    # -- representation state --------------------------------------------------
    @property
    def dtype_kind(self) -> Optional[str]:
        """``"int"``/``"float"``/``"vector"`` in array mode, ``"list"``
        after a degrade, ``None`` while empty with no kind adopted."""
        if self.degrade_reason is not None:
            return "list"
        return self._kind

    @staticmethod
    def _reason_for(value: Any) -> str:
        if type(value) is list:
            return "vector payload"
        return f"non-numeric payload ({type(value).__name__})"

    @classmethod
    def _row_reason(cls, value: Any, width: int) -> Optional[str]:
        """Why ``value`` cannot be a row of a ``width``-lane vector tape,
        or ``None`` when it can: a list of exactly ``width`` floats."""
        if type(value) is not list:
            if type(value) in (int, float):
                return "scalar payload on a vector tape"
            return cls._reason_for(value)
        if len(value) != width or not width:
            return "ragged vector payload"
        for lane in value:
            if type(lane) is not float:
                return f"non-float vector lane ({type(lane).__name__})"
        return None

    def _degrade(self, reason: str) -> None:
        """Switch permanently to the inherited list representation,
        materializing committed and staged slots (holes stay holes; rows
        become lists again)."""
        buf: List[Any] = []
        if self._arr is not None and self._tail > self._head:
            span = slice(self._head, self._tail)
            buf = [value if staged else _UNWRITTEN for value, staged in
                   zip(self._arr[span].tolist(),
                       self._written[span].tolist())]
        self._buf = buf
        self._wp -= self._head
        self._head = 0
        self._tail = 0
        self._arr = None
        self._written = None
        self._kind = None
        self.degrade_reason = reason

    def _adopt(self, kind: str, width: int = 0) -> None:
        """Adopt a kind while logically empty — ``width`` lanes per row for
        ``"vector"`` (reuses the allocation when dtype and row shape match;
        stale staged-write flags are cleared)."""
        dtype = np.int64 if kind == "int" else np.float64
        row = (width,) if kind == "vector" else ()
        arr = self._arr
        if arr is None or arr.dtype != dtype or arr.shape[1:] != row:
            cap = 16 if arr is None else len(arr)
            self._arr = np.zeros((cap,) + row, dtype=dtype)
            self._written = np.zeros(cap, dtype=bool)
        else:
            self._written[:] = False
        self._kind = kind

    def _admit(self, kind: str) -> bool:
        """Admit scalars of ``kind`` (``"int"`` or ``"float"``): a tape
        with no kind adopts it, a tape of another kind degrades (and
        ``False`` tells the caller to redo its write on list storage)."""
        k = self._kind
        if k is None:
            self._adopt(kind)
        elif k != kind:
            self._degrade(f"{kind} on {'an' if k == 'int' else 'a'} {k} tape")
            return False
        return True

    def _grow(self, index: int) -> None:
        arr = self._arr
        cap = max(len(arr) * 2, index + 1)
        new = np.zeros((cap,) + arr.shape[1:], dtype=arr.dtype)
        new[:len(arr)] = arr
        self._arr = new
        grown = np.zeros(cap, dtype=bool)
        grown[:len(arr)] = self._written
        self._written = grown

    def _reset_empty(self) -> None:
        """Fully empty (no committed or staged items): drop the dtype so
        the next phase can adopt a fresh one; keep the allocation.  Stale
        staged-write flags must go too — a later ``advance_writer`` from
        the rebased write pointer must see holes, not ghosts."""
        if self._written is not None and self._tail:
            self._written[:self._tail] = False
        self._head = self._wp = self._tail = 0
        self._kind = None

    def _after_read(self) -> None:
        if self._head == self._tail:
            self._reset_empty()
            return
        head = self._head
        if head > _COMPACT_THRESHOLD and head * 2 > len(self._arr):
            n = self._tail - head
            self._arr[:n] = self._arr[head:self._tail].copy()
            self._written[:n] = self._written[head:self._tail].copy()
            self._written[n:self._tail] = False
            self._wp -= head
            self._tail = n
            self._head = 0

    def _value_at(self, i: int) -> Any:
        if self._kind == "vector":
            return self._arr[i].tolist()
        return self._arr.item(i)

    def _stage(self, where: Any, last: int, values: Any) -> None:
        """The one staging tail: grow, assign, mark staged, extend the
        staged tail.  ``where`` is one index or a strided slice whose
        furthest slot is ``last``."""
        if last >= len(self._arr):
            self._grow(last)
        self._arr[where] = values
        self._written[where] = True
        if last >= self._tail:
            self._tail = last + 1

    def _write_item(self, index: int, value: Any) -> bool:
        """Stage ``value`` at absolute ``index``.  Returns ``False`` after
        degrading (caller redoes the operation through the list path)."""
        k = self._kind
        if k == "vector" or (k is None and type(value) is list):
            width = len(value) if k is None else self._arr.shape[1]
            reason = self._row_reason(value, width)
            if reason is not None:
                self._degrade(reason)
                return False
            if k is None:
                self._adopt("vector", width)
        else:
            kind = _SCALAR_KINDS.get(type(value))
            if kind is None:
                self._degrade(self._reason_for(value))
                return False
            if not self._admit(kind):
                return False
            if kind == "int" and not _INT64_MIN <= value <= _INT64_MAX:
                self._degrade("int beyond int64 range")
                return False
        self._stage(index, index, value)
        return True

    def _admit_rows(self, values: Any) -> bool:
        """Adopt or check vector storage for a column whose first item is
        a row (a 2-d ndarray, or a list of lists); ``False`` after
        degrading."""
        k = self._kind
        if k not in (None, "vector"):
            self._degrade("vector payload")
            return False
        if isinstance(values, list):
            width = len(values[0]) if k is None else self._arr.shape[1]
            for row in values:
                reason = self._row_reason(row, width)
                if reason is not None:
                    self._degrade(reason)
                    return False
        else:
            if values.ndim != 2:
                self._degrade("scalar payload on a vector tape")
                return False
            width = values.shape[1] if k is None else self._arr.shape[1]
            if values.dtype.kind != "f":
                self._degrade(f"non-float vector lane (dtype {values.dtype})")
                return False
            if values.shape[1] != width or not width:
                self._degrade("ragged vector payload")
                return False
        if k is None:
            self._adopt("vector", width)
        return True

    def _admit_column(self, values: Any) -> bool:
        """Adopt or check storage for a list or ndarray column; ``False``
        after degrading.  A list column's first item stands for the kind
        of a tape that has none yet."""
        rows = type(values[0]) is list if isinstance(values, list) \
            else values.ndim == 2
        if rows or self._kind == "vector":
            return self._admit_rows(values)
        if not isinstance(values, list):
            kind = _DTYPE_KINDS.get(values.dtype.kind)
            if kind is None:
                self._degrade(f"non-numeric payload (dtype {values.dtype})")
                return False
            return self._admit(kind)
        types = set(map(type, values))
        if not types <= {int, float}:
            bad = next(v for v in values if type(v) not in (int, float))
            self._degrade(self._reason_for(bad))
            return False
        return all(self._admit(_SCALAR_KINDS[t])
                   for t in (type(values[0]), *types))

    # -- writing ---------------------------------------------------------------
    def push(self, value: Any) -> None:
        if self.degrade_reason is not None:
            Tape.push(self, value)
        elif self._write_item(self._wp, value):
            self._wp += 1
        else:
            Tape.push(self, value)

    def rpush(self, value: Any, offset: int) -> None:
        if offset < 0:
            raise ValueError(f"{self.name}: negative rpush offset {offset}")
        if self.degrade_reason is not None or \
                not self._write_item(self._wp + offset, value):
            Tape.rpush(self, value, offset)

    def _first_hole(self, count: int) -> Optional[int]:
        if self.degrade_reason is not None:
            return Tape._first_hole(self, count)
        if self._written is None:
            return 0
        # Every staged slot lies below _tail <= len(_written), so a short
        # or not-all-True segment has a hole.
        seg = self._written[self._wp:self._wp + count]
        if not seg.all():
            return int(np.argmin(seg))
        return None if seg.size == count else int(seg.size)

    def _stage_column(self, offset: int, stride: int, values: Any) -> None:
        if self.degrade_reason is None and self._admit_column(values):
            base = self._wp + offset
            last = base + (len(values) - 1) * stride
            try:
                self._stage(slice(base, last + 1, stride), last, values)
                return
            except (OverflowError, ValueError):  # nothing was assigned yet
                self._degrade("int beyond int64 range")
        Tape._stage_column(self, offset, stride, values)

    # -- reading ---------------------------------------------------------------
    def pop(self) -> Any:
        if self.degrade_reason is not None:
            return Tape.pop(self)
        if self._head >= self._wp:
            raise TapeUnderflow(f"{self.name}: pop from empty tape")
        value = self._value_at(self._head)
        self._head += 1
        self._after_read()
        return value

    def peek(self, offset: int) -> Any:
        if self.degrade_reason is not None:
            return Tape.peek(self, offset)
        if offset < 0:
            raise ValueError(f"{self.name}: negative peek offset {offset}")
        index = self._head + offset
        if index >= self._wp:
            raise TapeUnderflow(
                f"{self.name}: peek({offset}) with only {len(self)} items")
        return self._value_at(index)

    def _view(self, count: int) -> Any:
        view = self._arr[self._head:self._head + count]
        if _MUT_ND_WINDOW_SHIFT:
            # By items: on a vector tape, rows rotate whole.
            view = np.roll(view, -_MUT_ND_WINDOW_SHIFT, axis=0)
        return view

    def _block(self, count: int) -> List[Any]:
        if self.degrade_reason is not None:
            return Tape._block(self, count)
        return self._view(count).tolist() if count else []

    def peek_block_array(self, count: int) -> Optional[Any]:
        """Zero-copy read-only view of the next ``count`` committed items
        — ``(count, W)`` on a vector tape — or ``None`` on list storage
        (degraded) or while no kind is adopted yet."""
        self._check_block(count)
        if self.degrade_reason is not None or self._kind is None:
            return None
        view = self._view(count)
        view.flags.writeable = False
        return view

    def _consumed(self) -> None:
        if self.degrade_reason is not None:
            Tape._compact(self)
        else:
            self._after_read()

    # -- draining (output collection) ------------------------------------------
    def drain(self) -> List[Any]:
        if self.degrade_reason is not None:
            return Tape.drain(self)
        # No sentinel scan: the staged-write mask was checked at commit.
        items = self._block(self._wp - self._head)
        self._head = self._wp
        self._after_read()
        return items
