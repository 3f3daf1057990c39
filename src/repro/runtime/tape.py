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
batch kernels never round-trip Python lists.  Payloads the array cannot
represent (vectors, bools, ints beyond the exact range) degrade the tape
to the inherited list representation, permanently and safely.

Storage is one of two orthogonal choices; the other, flow control, is
:class:`~repro.multicore.channels.Channel` — a bounded-blocking wrapper
around either storage.  All three speak the same **batch protocol**, which
is everything the batch paths (:mod:`.movers`, the vector kernels) know
about a tape's representation:

* ``window(count, arrays)`` — the next ``count`` committed items as an
  ndarray (pure int64/float64 content, when ``arrays``) or a list, or
  ``None``: run this batch per firing;
* ``write_strided(offset, stride, column)`` — stage a list *or* ndarray
  column; an np scalar never reaches list storage;
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
        ``values`` is a list or a 1-d ndarray."""
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

    def window(self, count: int, arrays: bool = True) -> Optional[Any]:
        """The next ``count`` committed items for one batch: an ndarray
        when ``arrays`` and the content is pure int64/float64 machine
        layout, else a list — or ``None`` when the batch must run per
        firing (fewer than ``count`` items committed, e.g. a short
        feedback window, or a tape that is not :attr:`batchable`)."""
        if not self.batchable or self._wp - self._head < count:
            return None
        view = self.peek_block_array(count) if arrays else None
        return self.peek_block(count) if view is None else view

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

#: Largest integer magnitude exactly representable in float64 — the same
#: limit the vector kernels guard with (``2**53``).  Ints beyond it cannot
#: share a float64 buffer with floats without silent rounding.
_ND_EXACT_INT = 2 ** 53
_INT64_MIN = -(2 ** 63)
_INT64_MAX = 2 ** 63 - 1

#: Injectable defect (mutation tests only): rotates every ndarray window
#: read by this many slots — the classic off-by-one ring-wrap bug.  The
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
    * the dtype is adopted from the first value written (int64 for
      ``int``, float64 for ``float``) and promoted int64→float64 when
      floats arrive mid-stream.  A promoted ("mixed") tape keeps a
      per-slot ``_int_mask`` so reads restore the exact Python type;
    * payloads the array cannot hold — vector (list) elements, bools,
      ints beyond the int64 / float64-exact range — **degrade** the tape
      to the inherited list representation (sticky; the reason is kept in
      ``degrade_reason`` and surfaced through
      ``ExecutionResult.vectorized``).

    A staged-write mask (``_written``) reproduces the list tape's
    ``_UNWRITTEN`` hole semantics for ``rpush`` gaps, and the tape resets
    to the no-dtype state whenever it empties completely, so per-phase
    dtype changes never force a degrade.
    """

    __slots__ = ("_arr", "_written", "_int_mask", "_kind", "_tail",
                 "degrade_reason")

    def __init__(self, name: str = "tape") -> None:
        if not HAVE_NUMPY:
            raise StreamRuntimeError(
                "NdTape requires numpy (install the [vector] extra: "
                "pip install .[vector])")
        super().__init__(name)
        self._arr: Optional[Any] = None       # int64/float64 backing array
        self._written: Optional[Any] = None   # bool mask: slot was staged
        self._int_mask: Optional[Any] = None  # bool mask: slot holds an int
        self._kind: Optional[str] = None      # None | "int" | "float" | "mixed"
        self._tail = 0                        # one past the furthest staged slot
        self.degrade_reason: Optional[str] = None

    # -- representation state --------------------------------------------------
    @property
    def dtype_kind(self) -> Optional[str]:
        """``"int"``/``"float"``/``"mixed"`` in array mode, ``"list"``
        after a degrade, ``None`` while empty with no dtype adopted."""
        if self.degrade_reason is not None:
            return "list"
        return self._kind

    @staticmethod
    def _reason_for(value: Any) -> str:
        if type(value) is list:
            return "vector payload"
        return f"non-numeric payload ({type(value).__name__})"

    def _degrade(self, reason: str) -> None:
        """Switch permanently to the inherited list representation,
        materializing committed and staged slots (holes stay holes)."""
        buf: List[Any] = []
        arr, written, mask = self._arr, self._written, self._int_mask
        if arr is not None and self._tail > self._head:
            as_int = arr.dtype.kind == "i"
            for i in range(self._head, self._tail):
                if not written[i]:
                    buf.append(_UNWRITTEN)
                elif as_int or (mask is not None and mask[i]):
                    buf.append(int(arr[i]))
                else:
                    buf.append(float(arr[i]))
        self._buf = buf
        self._wp -= self._head
        self._head = 0
        self._tail = 0
        self._arr = None
        self._written = None
        self._int_mask = None
        self._kind = None
        self.degrade_reason = reason

    def _adopt(self, kind: str) -> None:
        """Adopt a dtype while logically empty (reuses the allocation when
        the dtype matches; stale staged-write flags are cleared)."""
        dtype = np.int64 if kind == "int" else np.float64
        arr = self._arr
        if arr is None or arr.dtype != dtype:
            cap = 16 if arr is None else len(arr)
            self._arr = np.zeros(cap, dtype=dtype)
            self._written = np.zeros(cap, dtype=bool)
        else:
            self._written[:] = False
        self._kind = kind
        self._int_mask = None

    def _promote(self) -> bool:
        """int64 → float64 storage (floats arrived mid-stream).  Existing
        ints must be float64-exact; each staged slot is remembered as an
        int so reads restore the Python type.  Returns ``False`` (after
        degrading) when an existing int is beyond the exact range."""
        arr, written = self._arr, self._written
        live = written[:self._tail]
        if self._tail and live.any():
            staged = arr[:self._tail][live].astype(np.float64)
            if float(np.abs(staged).max()) > float(_ND_EXACT_INT):
                self._degrade("int beyond float64-exact range")
                return False
        self._arr = arr.astype(np.float64)
        self._int_mask = written.copy()
        self._kind = "mixed"
        return True

    def _to_mixed(self) -> None:
        """float64 storage gains an int mask (ints arrived mid-stream)."""
        self._int_mask = np.zeros(len(self._arr), dtype=bool)
        self._kind = "mixed"

    def _grow(self, index: int) -> None:
        arr = self._arr
        cap = max(len(arr) * 2, index + 1)
        new = np.zeros(cap, dtype=arr.dtype)
        new[:len(arr)] = arr
        self._arr = new
        grown = np.zeros(cap, dtype=bool)
        grown[:len(arr)] = self._written
        self._written = grown
        if self._int_mask is not None:
            mask = np.zeros(cap, dtype=bool)
            mask[:len(arr)] = self._int_mask
            self._int_mask = mask

    def _reset_empty(self) -> None:
        """Fully empty (no committed or staged items): drop the dtype so
        the next phase can adopt a fresh one; keep the allocation.  Stale
        staged-write flags must go too — a later ``advance_writer`` from
        the rebased write pointer must see holes, not ghosts."""
        if self._written is not None and self._tail:
            self._written[:self._tail] = False
        self._head = self._wp = self._tail = 0
        self._kind = None
        self._int_mask = None

    def _after_read(self) -> None:
        if self._head == self._tail:
            self._reset_empty()
            return
        head = self._head
        if head > _COMPACT_THRESHOLD and head * 2 > len(self._arr):
            n = self._tail - head
            self._arr[:n] = self._arr[head:self._tail].copy()
            self._written[:n] = self._written[head:self._tail].copy()
            if self._int_mask is not None:
                self._int_mask[:n] = self._int_mask[head:self._tail].copy()
            self._written[n:self._tail] = False
            self._wp -= head
            self._tail = n
            self._head = 0

    def _value_at(self, i: int) -> Any:
        if self._kind == "int":
            return int(self._arr[i])
        v = self._arr[i]
        if self._int_mask is not None and self._int_mask[i]:
            return int(v)
        return float(v)

    def _stage(self, where: Any, last: int, values: Any, ints: Any) -> None:
        """The one staging tail: grow, assign, mark staged, record int-ness,
        extend the staged tail.  ``where`` is one index or a strided slice
        whose furthest slot is ``last``."""
        if last >= len(self._arr):
            self._grow(last)
        self._arr[where] = values
        self._written[where] = True
        if self._int_mask is not None:
            self._int_mask[where] = ints
        if last >= self._tail:
            self._tail = last + 1

    def _write_scalar(self, index: int, value: Any) -> bool:
        """Stage ``value`` at absolute ``index``.  Returns ``False`` after
        degrading (caller redoes the operation through the list path)."""
        t = type(value)
        if t is int:
            vkind = "int"
        elif t is float:
            vkind = "float"
        else:
            self._degrade(self._reason_for(value))
            return False
        k = self._kind
        if k is None:
            self._adopt(vkind)
        elif k == "int" and vkind == "float":
            if not self._promote():
                return False
        elif k == "float" and vkind == "int":
            self._to_mixed()
        if vkind == "int":
            if self._kind == "int":
                if not _INT64_MIN <= value <= _INT64_MAX:
                    self._degrade("int beyond int64 range")
                    return False
            elif not -_ND_EXACT_INT <= value <= _ND_EXACT_INT:
                self._degrade("int beyond float64-exact range")
                return False
        self._stage(index, index, value, vkind == "int")
        return True

    def _admit_column(self, values: Any) -> Any:
        """Adopt/promote storage for a list or ndarray column.  Returns the
        column's int flags (one bool, or one per slot for a list mixing
        ints and floats), or ``None`` after degrading."""
        if isinstance(values, list):
            kinds = set(map(type, values))
            if not kinds <= {int, float}:
                bad = next(v for v in values if type(v) not in (int, float))
                self._degrade(self._reason_for(bad))
                return None
            vkind = "int" if kinds == {int} else \
                "float" if kinds == {float} else "mixed"
        else:
            vkind = {"i": "int", "f": "float"}.get(values.dtype.kind)
            if vkind is None:
                self._degrade(f"non-numeric payload (dtype {values.dtype})")
                return None
        k = self._kind
        if k is None:
            self._adopt("int" if vkind == "int" else "float")
            if vkind == "mixed":
                self._to_mixed()
        elif k == "int" and vkind != "int":
            if not self._promote():
                return None
        elif k == "float" and vkind != "float":
            self._to_mixed()
        if vkind != "float" and self._kind != "int":
            # Ints sharing float64 storage must be float64-exact.
            if isinstance(values, list):
                worst = max(abs(v) for v in values if type(v) is int)
            else:
                worst = float(np.abs(values.astype(np.float64)).max())
            if worst > _ND_EXACT_INT:
                self._degrade("int beyond float64-exact range")
                return None
        if vkind == "mixed":
            return [type(v) is int for v in values]
        return vkind == "int"

    # -- writing ---------------------------------------------------------------
    def push(self, value: Any) -> None:
        if self.degrade_reason is not None:
            Tape.push(self, value)
        elif self._write_scalar(self._wp, value):
            self._wp += 1
        else:
            Tape.push(self, value)

    def rpush(self, value: Any, offset: int) -> None:
        if offset < 0:
            raise ValueError(f"{self.name}: negative rpush offset {offset}")
        if self.degrade_reason is not None or \
                not self._write_scalar(self._wp + offset, value):
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
        ints = None if self.degrade_reason is not None \
            else self._admit_column(values)
        if ints is not None:
            base = self._wp + offset
            last = base + (len(values) - 1) * stride
            try:
                self._stage(slice(base, last + 1, stride), last, values, ints)
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
            view = np.roll(view, -_MUT_ND_WINDOW_SHIFT)
        return view

    def _block(self, count: int) -> List[Any]:
        if self.degrade_reason is not None:
            return Tape._block(self, count)
        if not count:
            return []
        items = self._view(count).tolist()
        if self._int_mask is None:
            return items
        mask = self._int_mask[self._head:self._head + count]
        return [int(v) if m else v for v, m in zip(items, mask.tolist())]

    def peek_block_array(self, count: int) -> Optional[Any]:
        """Zero-copy read-only view of the next ``count`` committed items,
        or ``None`` when no pure int64/float64 view exists (degraded,
        mixed int/float content, or no dtype adopted yet)."""
        self._check_block(count)
        if self.degrade_reason is not None or \
                self._kind not in ("int", "float"):
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
