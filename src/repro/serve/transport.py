"""Shared-memory result transport for the serving runtime.

The stock wire path (``wire_transport="queue"``) pickles every
:class:`~.session.SessionResult` whole down its lane's result pipe —
fine for counter bags, painful for sessions whose output streams run to
thousands of values (every element is serialized, copied through the
pipe, and re-materialized).
This module gives large output arrays a zero-copy lane: the worker packs
them into a :class:`multiprocessing.shared_memory.SharedMemory` segment
(NdTape-backed outputs are already contiguous int64/float64, so the pack
is a straight ``memoryview`` blit) and ships only the segment *name* on
the pipe; the parent attaches, reads, and unlinks.

Three invariants keep the segments from leaking:

* **Deterministic names** — a segment serving session ``seq`` on worker
  ``wid`` of pool ``uid`` is called ``mx<uid>w<wid>s<seq><o|i>``, so the
  parent can find (and destroy) a crashed worker's segments without
  ever having seen the result that announced them.
* **Single-consumer refcounting** — the parent-side
  :class:`SegmentRegistry` tracks every session whose result may own
  segments from dispatch until the result is drained (or the lane
  dies); ``resolve``/``scavenge`` unlink whatever exists and the
  registry must be empty after ``shutdown()``.
* **Parent-owned lifetime** — the creating worker unregisters the
  segment from its own ``resource_tracker`` (it closes but never
  unlinks), so a worker exiting cannot tear the segment down while the
  parent still reads it, and cannot spam tracker warnings either.

Small results stay inline: :data:`SHM_THRESHOLD_DEFAULT` (values
per result, overridable per pool and via ``MACROSS_SHM_THRESHOLD``)
keeps the segment setup cost off the fast path for tiny sessions.  The
``wire_transport`` seam — ``"queue"`` (never touch shm) vs ``"shm"``
(threshold-gated) — is exactly what the serve-parity fuzz oracle sweeps.
"""

from __future__ import annotations

import contextlib
import os
import threading
from array import array
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .session import ServeError

__all__ = [
    "SHM_THRESHOLD_DEFAULT", "WIRE_TRANSPORTS", "SegmentRegistry",
    "load_result_shm", "segment_names", "shm_threshold_default",
    "stage_result_shm",
]

#: The two wire transports the pool (and the fuzz oracle) support.
WIRE_TRANSPORTS: Tuple[str, ...] = ("queue", "shm")

#: Minimum number of output values before a result's arrays move via
#: shared memory (<= 0 forces every packable result through shm).
SHM_THRESHOLD_DEFAULT = 256

#: Output-list fields of a result wire that may travel via shm, with the
#: single-character suffix used in the segment name.
_SHM_FIELDS: Tuple[Tuple[str, str], ...] = (("outputs", "o"),
                                            ("init_outputs", "i"))

#: array typecodes used on the wire: int64 / float64, the NdTape dtypes.
_TYPECODES = ("q", "d")


def shm_threshold_default() -> int:
    """Default threshold, honouring ``MACROSS_SHM_THRESHOLD``."""
    raw = os.environ.get("MACROSS_SHM_THRESHOLD")
    if raw is None:
        return SHM_THRESHOLD_DEFAULT
    try:
        return int(raw)
    except ValueError:
        raise ServeError(
            f"MACROSS_SHM_THRESHOLD must be an integer, got {raw!r}")


def segment_names(uid: str, worker: int, seq: int) -> Tuple[str, ...]:
    """Every segment name session ``seq`` on ``worker`` may have created
    (deterministic, so crashes can be cleaned up blindly)."""
    return tuple(f"mx{uid}w{worker}s{seq}{suffix}"
                 for _field, suffix in _SHM_FIELDS)


def _pack(values: Sequence[Any]) -> Optional[array]:
    """Pack homogeneous numeric outputs into a typed array.

    Returns ``None`` when the values are not representable (mixed
    int/float stays on the queue path; bools are *ints* to ``array`` but
    not to the parity oracle, so they disqualify too)."""
    if not values:
        return None
    if all(type(v) is int for v in values):
        try:
            return array("q", values)
        except OverflowError:  # huge ints: queue path handles them fine
            return None
    if all(type(v) is float for v in values):
        return array("d", values)
    return None


def _unregister_tracked(shm: Any) -> None:
    """Detach a freshly created segment from this process's resource
    tracker: the *parent* owns the unlink (Python 3.13's ``track=False``,
    done by hand for older runtimes)."""
    from multiprocessing import resource_tracker
    with contextlib.suppress(Exception):
        resource_tracker.unregister(shm._name, "shared_memory")


def stage_result_shm(wire: Dict[str, Any], *, uid: str, worker: int,
                     seq: int, threshold: int) -> Dict[str, Any]:
    """Worker side: move large output lists out of ``wire`` into shared
    memory.  Mutates and returns ``wire``; on any shm failure the result
    simply stays on the queue path (transport must never fail a
    session)."""
    from multiprocessing import shared_memory

    names = dict(zip((f for f, _s in _SHM_FIELDS),
                     segment_names(uid, worker, seq)))
    segments: Dict[str, Dict[str, Any]] = {}
    created: List[Any] = []
    try:
        for fld, _suffix in _SHM_FIELDS:
            values = wire.get(fld)
            if not values:
                continue
            if threshold > 0 and len(values) < threshold:
                continue
            packed = _pack(values)
            if packed is None:
                continue
            name = names[fld]
            try:
                shm = shared_memory.SharedMemory(
                    name=name, create=True, size=packed.itemsize * len(packed))
            except FileExistsError:
                # A stale segment from a killed predecessor of this seq:
                # destroy it and take the name over.
                stale = shared_memory.SharedMemory(name=name)
                stale.close()
                with contextlib.suppress(FileNotFoundError):
                    stale.unlink()
                shm = shared_memory.SharedMemory(
                    name=name, create=True, size=packed.itemsize * len(packed))
            created.append(shm)
            shm.buf[:packed.itemsize * len(packed)] = packed.tobytes()
            _unregister_tracked(shm)
            shm.close()
            segments[fld] = {"name": name, "typecode": packed.typecode,
                             "count": len(packed)}
            wire[fld] = []
    except Exception:  # noqa: BLE001 - degrade to the queue path
        for fld in list(segments):
            with contextlib.suppress(Exception):
                shared_memory.SharedMemory(name=segments[fld]["name"]).unlink()
        return wire
    if segments:
        wire["shm"] = segments
    return wire


def load_result_shm(wire: Dict[str, Any]) -> Dict[str, Any]:
    """Parent side: materialize shm-borne fields back into ``wire`` and
    destroy the segments.  Raises :class:`ServeError` on a malformed
    envelope (the oracle's mutation tests corrupt exactly this)."""
    from multiprocessing import shared_memory

    segments = wire.pop("shm", None)
    if not segments:
        return wire
    for fld, meta in segments.items():
        if fld not in {f for f, _s in _SHM_FIELDS}:
            raise ServeError(f"unknown shm-borne field {fld!r}")
        typecode, count = meta["typecode"], meta["count"]
        if typecode not in _TYPECODES or count < 0:
            raise ServeError(f"malformed shm envelope for {fld!r}: {meta}")
        try:
            shm = shared_memory.SharedMemory(name=meta["name"])
        except FileNotFoundError:
            raise ServeError(
                f"shm segment {meta['name']!r} for {fld!r} vanished "
                f"before the result was drained")
        try:
            values = array(typecode)
            expected = values.itemsize * count
            if expected > len(shm.buf):
                raise ServeError(
                    f"shm envelope for {fld!r} claims {count} values "
                    f"({expected} bytes) but segment holds "
                    f"{len(shm.buf)}")
            values.frombytes(bytes(shm.buf[:expected]))
            wire[fld] = values.tolist()
        finally:
            shm.close()
            with contextlib.suppress(FileNotFoundError):
                shm.unlink()
    return wire


class SegmentRegistry:
    """Parent-side ledger of sessions that may own shm segments.

    One *expectation* (seq -> candidate segment names) is opened per
    dispatched session and closed exactly once — by ``resolve`` when the
    result is drained, or by ``scavenge`` when the owning lane dies or
    the pool shuts down.  Closing an expectation unlinks any of its
    segments that still exist, so no code path (drain, crash, shutdown)
    can leak a segment.  ``outstanding()`` must be empty after
    ``ServePool.shutdown()`` — the shutdown-idempotency tests assert it.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._expected: Dict[int, Tuple[str, ...]] = {}

    def expect(self, seq: int, names: Sequence[str]) -> None:
        with self._lock:
            self._expected[seq] = tuple(names)

    def outstanding(self) -> Dict[int, Tuple[str, ...]]:
        with self._lock:
            return dict(self._expected)

    def __len__(self) -> int:
        with self._lock:
            return len(self._expected)

    def _close(self, seq: int) -> int:
        from multiprocessing import shared_memory
        with self._lock:
            names = self._expected.pop(seq, ())
        destroyed = 0
        for name in names:
            try:
                shm = shared_memory.SharedMemory(name=name)
            except FileNotFoundError:
                continue
            shm.close()
            with contextlib.suppress(FileNotFoundError):
                shm.unlink()
            destroyed += 1
        return destroyed

    def resolve(self, seq: int) -> None:
        """Result for ``seq`` drained: drop the expectation and destroy
        any segment the consumer did not already unlink (e.g. a result
        that errored after creating its segments)."""
        self._close(seq)

    def scavenge(self, seq: int) -> int:
        """The session's lane died (or the pool is shutting down):
        destroy whatever the worker managed to create.  Returns the
        number of segments destroyed (observable in tests)."""
        return self._close(seq)

    def scavenge_all(self) -> int:
        destroyed = 0
        for seq in list(self.outstanding()):
            destroyed += self.scavenge(seq)
        return destroyed
