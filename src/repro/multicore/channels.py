"""Bounded cross-core channels for the parallel runtime.

When a :class:`~repro.plan.partitioners.Partition` places the two
endpoints of a tape on different cores, the tape becomes a
:class:`Channel`: a thread-safe, *bounded* FIFO with blocking semantics on
both sides, wrapped *around* a tape (storage and flow control are
orthogonal: see :mod:`repro.runtime.tape`).  A reader that needs data
which has not been produced yet blocks until the producing core catches
up, and a writer that would overflow the bound blocks until the consuming
core drains — the paper's "the receiving core stalls on the transfer"
(§5) made literal, plus real backpressure on the sending side.

Capacity planning
-----------------

Capacity planning lives in :mod:`repro.plan.capacity` (the planning
subsystem prices a candidate partition's buffer memory with the same
planner the runtime allocates from).  Short version: each
cut tape is granted its sequential maximum occupancy (liveness, see the
deadlock-freedom argument there) plus one steady iteration of
double-buffer headroom.

Every :class:`Channel` keeps :class:`ChannelStats` (pushes, pops, stall
counts, high-water mark) and, when given a live tracer, emits a
``channel.stall`` instant (category ``"channel"``) each time a side
blocks, carrying the occupancy at stall time — the channel-occupancy
timeline of a parallel trace.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Optional

from ..obs.tracer import Tracer
from ..runtime.errors import StreamRuntimeError
from ..runtime.tape import Tape

__all__ = [
    "Channel", "ChannelAborted", "ChannelError", "ChannelStallTimeout",
    "ChannelStats", "RunAbort",
]


class ChannelError(StreamRuntimeError):
    """Base class for cross-core channel failures."""


class ChannelStallTimeout(ChannelError):
    """A channel side stalled longer than the configured timeout — the
    cores have deadlocked (or the capacity plan is wrong).

    Carries structured diagnostics so callers (``execute(..., cores=N)``,
    ``macross run --cores``, the serving layer) can report *which*
    channel stalled on *which* side without parsing the message:
    ``channel`` (tape name), ``side`` (``"push"``/``"pop"``),
    ``occupancy``/``needed``/``capacity`` at timeout, and the configured
    ``timeout_s``.
    """

    def __init__(self, message: str, *, channel: str = "?",
                 side: str = "?", occupancy: int = 0, needed: int = 0,
                 capacity: int = 0, timeout_s: float = 0.0) -> None:
        super().__init__(message)
        self.channel = channel
        self.side = side
        self.occupancy = occupancy
        self.needed = needed
        self.capacity = capacity
        self.timeout_s = timeout_s


class ChannelAborted(ChannelError):
    """Another core failed; this channel unblocked so its core can exit."""


class RunAbort:
    """Shared failure flag for one parallel run.

    The first worker that raises trips the flag; every blocked channel
    wait re-checks it and raises :class:`ChannelAborted`, so one core's
    failure cannot leave its peers blocked forever.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.exception: Optional[BaseException] = None

    @property
    def tripped(self) -> bool:
        return self.exception is not None

    def trip(self, exc: BaseException) -> None:
        with self._lock:
            if self.exception is None:
                self.exception = exc


@dataclass
class ChannelStats:
    """Observable behaviour of one channel (mutated under the lock)."""

    pushes: int = 0
    pops: int = 0
    push_stalls: int = 0
    pop_stalls: int = 0
    max_occupancy: int = 0
    capacity: int = 0

    def snapshot(self) -> Dict[str, int]:
        return {"pushes": self.pushes, "pops": self.pops,
                "push_stalls": self.push_stalls,
                "pop_stalls": self.pop_stalls,
                "max_occupancy": self.max_occupancy,
                "capacity": self.capacity}


#: Condition-wait slice so aborts propagate even without a notification.
_WAIT_SLICE_S = 0.05


class Channel:
    """Bounded-blocking flow control around any tape: the storage (a list
    :class:`~repro.runtime.tape.Tape` by default, the vector backend's
    ``NdTape`` on its cut edges) keeps the items and validates every
    argument; the channel adds the lock, the waits and the stats.

    The full tape repertoire is supported — ``push``/``pop``/``peek``,
    the SIMDized ``rpush``/``advance_writer``/``advance_reader`` — with
    blocking semantics:

    * readers (``pop``, ``peek``, ``peek_block``, ``advance_reader``)
      block until enough *committed* items are available;
    * committing writers (``push``, ``advance_writer``) block while the
      channel holds ``capacity`` committed items (backpressure);
    * ``rpush``/``write_strided`` only stage past the write pointer and
      never block — the commit that follows (``advance_writer``) is the
      gated step.

    Bulk operations make the vector backend's batched path work across
    cores: ``window(count)`` is the batched analogue of ``count``
    blocking pops (it waits until the whole window is committed), and
    ``advance_writer(count)`` commits in capacity-bounded *chunks*, each
    released to the consuming core as soon as it lands — so a bulk
    commit larger than the remaining free space behaves exactly like the
    equivalent sequence of blocking pushes (and is deadlock-free under
    the same capacity-planner argument).
    """

    __slots__ = ("name", "capacity", "stats", "stall_timeout", "_tape",
                 "_cond", "_abort", "_tracer")

    #: Batch protocol: a window is a copy taken under the lock (the
    #: producer may grow, compact or reset the storage at any time), so
    #: batch paths release the reader *before* a possibly blocking commit
    #: and cores never wedge on each other.
    window_is_copy = True

    def __init__(self, name: str, capacity: int, *,
                 tape: Optional[Tape] = None,
                 abort: Optional[RunAbort] = None,
                 tracer: Optional[Tracer] = None,
                 stall_timeout: float = 30.0) -> None:
        if capacity < 1:
            raise ValueError(f"{name}: channel capacity must be >= 1")
        self.name = name
        self.capacity = capacity
        self.stall_timeout = stall_timeout
        self._tape = Tape(name) if tape is None else tape
        # A wrapped tape may arrive holding its feedback-delay items.
        self.stats = ChannelStats(capacity=capacity,
                                  max_occupancy=len(self._tape))
        self._cond = threading.Condition()
        self._abort = abort
        self._tracer = tracer

    # -- the wrapped storage ---------------------------------------------------
    @property
    def degrade_reason(self) -> Optional[str]:
        return getattr(self._tape, "degrade_reason", None)

    @property
    def dtype_kind(self) -> Optional[str]:
        return getattr(self._tape, "dtype_kind", None)

    @property
    def batchable(self) -> bool:
        return self._tape.batchable

    def __len__(self) -> int:
        with self._cond:
            return len(self._tape)

    # -- setup ----------------------------------------------------------------
    def preload(self, items: Iterable[Any]) -> None:
        """Load initial (feedback-delay) items without blocking or stats."""
        with self._cond:
            for item in items:
                self._tape.push(item)
            occupancy = len(self._tape)
            if occupancy > self.capacity:
                raise ChannelError(
                    f"{self.name}: {occupancy} initial items exceed "
                    f"capacity {self.capacity}")
            self.stats.max_occupancy = max(self.stats.max_occupancy,
                                           occupancy)
            self._cond.notify_all()

    # -- blocking machinery ---------------------------------------------------
    def _await(self, ready, side: str, needed: int) -> None:
        """Block until ``ready()`` under the held condition lock."""
        if ready():
            return
        if side == "push":
            self.stats.push_stalls += 1
        else:
            self.stats.pop_stalls += 1
        if self._tracer is not None and self._tracer.enabled:
            self._tracer.event("channel.stall", cat="channel",
                               channel=self.name, side=side,
                               occupancy=len(self._tape), needed=needed,
                               capacity=self.capacity)
        deadline = time.monotonic() + self.stall_timeout
        while not ready():
            if self._abort is not None and self._abort.tripped:
                raise ChannelAborted(
                    f"{self.name}: unblocked by peer-core failure")
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ChannelStallTimeout(
                    f"{self.name}: {side} side stalled for more than "
                    f"{self.stall_timeout:.1f}s (occupancy "
                    f"{len(self._tape)}/{self.capacity}, needed "
                    f"{needed}) — cross-core deadlock",
                    channel=self.name, side=side,
                    occupancy=len(self._tape), needed=needed,
                    capacity=self.capacity,
                    timeout_s=self.stall_timeout)
            self._cond.wait(min(remaining, _WAIT_SLICE_S))

    def _await_items(self, count: int) -> None:
        tape = self._tape
        self._await(lambda: len(tape) >= count, "pop", count)

    def _record_high_water(self) -> None:
        occupancy = len(self._tape)
        if occupancy > self.stats.max_occupancy:
            self.stats.max_occupancy = occupancy

    # -- writing --------------------------------------------------------------
    def push(self, value: Any) -> None:
        tape = self._tape
        with self._cond:
            self._await(lambda: len(tape) < self.capacity, "push", 1)
            tape.push(value)
            self.stats.pushes += 1
            self._record_high_water()
            self._cond.notify_all()

    def rpush(self, value: Any, offset: int) -> None:
        with self._cond:
            self._tape.rpush(value, offset)

    def write_strided(self, offset: int, stride: int, values: Any) -> None:
        # Staging only (never blocks): commit is the gated step.
        with self._cond:
            self._tape.write_strided(offset, stride, values)

    def advance_writer(self, count: int) -> None:
        tape = self._tape
        remaining = count
        while True:
            with self._cond:
                self._await(
                    lambda: len(tape) + min(remaining, 1) <= self.capacity,
                    "push", remaining)
                chunk = min(remaining, self.capacity - len(tape))
                tape.advance_writer(chunk)
                self.stats.pushes += chunk
                self._record_high_water()
                self._cond.notify_all()
                remaining -= chunk
                if not remaining:
                    return

    # -- reading --------------------------------------------------------------
    def pop(self) -> Any:
        with self._cond:
            self._await_items(1)
            value = self._tape.pop()
            self.stats.pops += 1
            self._cond.notify_all()
            return value

    def peek(self, offset: int) -> Any:
        with self._cond:
            self._await_items(offset + 1)
            return self._tape.peek(offset)

    def peek_block(self, count: int) -> Any:
        with self._cond:
            self._await_items(count)
            return self._tape.peek_block(count)

    def window(self, count: int, arrays: bool = True) -> Optional[Any]:
        """The batch protocol's window fetch, blocking until the producing
        core has committed all ``count`` items.  ``None`` (run the batch
        per firing) when the window could never be resident at once
        (``count > capacity``: waiting would only ever time out) or the
        storage is not batchable."""
        if count > self.capacity or not self._tape.batchable:
            return None
        with self._cond:
            self._await_items(count)
            window = self._tape.window(count, arrays)
            # A list window is already a copy; an ndarray one is a live
            # view of storage the producer is free to move.
            return window if isinstance(window, list) else window.copy()

    def advance_reader(self, count: int) -> None:
        with self._cond:
            self._await_items(count)
            self._tape.advance_reader(count)
            self.stats.pops += count
            self._cond.notify_all()

    def drain(self) -> Any:
        with self._cond:
            items = self._tape.drain()
            self._cond.notify_all()
            return items
