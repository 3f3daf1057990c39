"""Session layer of the serving runtime: specs, results, wire format.

A *session* is one complete stream-graph execution served by a worker
process: a program (a registry benchmark name or a serialized fuzz
:class:`~repro.fuzz.descriptions.ProgramDesc`), a compilation pipeline, a
target machine, a backend, and an iteration count go in; the outputs,
init outputs, per-actor performance-counter bags, and cache statistics
come back.  Everything that crosses the process boundary is kept to
plain picklable builtins (strings, ints, floats, lists, dicts) so the
pool is spawn-safe and the wire format is stable regardless of how the
dataclasses in this module evolve.

The explicit :func:`encode_result` / :func:`decode_result` pair is the
*only* path a session result takes across the boundary — the fuzz serve
oracle mutation-tests exactly this seam (corrupt the serializer, the
parity oracle must notice).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, fields
from typing import Any, Dict, List, Optional

from ..runtime.errors import StreamRuntimeError
from ..simd.machine import CORE_I7

__all__ = [
    "ERROR_KIND_WORKER_DIED", "ServeError", "ServeOverload", "SessionSpec",
    "SessionResult", "WorkerDied", "decode_result",
    "encode_result", "worker_died_result",
]

#: Wire-format version; bumped on incompatible changes so a mixed-version
#: pool fails loudly instead of silently misdecoding.  v2: ``retried`` /
#: ``error_kind`` supervision fields and the optional ``shm`` envelope of
#: the shared-memory transport.
WIRE_VERSION = 2

#: ``SessionResult.error_kind`` of a session whose worker lane died and
#: which could not be (or had already been) re-dispatched.
ERROR_KIND_WORKER_DIED = "worker-died"


class ServeError(StreamRuntimeError):
    """Base class for serving-runtime failures (pool misuse, timeouts)."""


@dataclass(frozen=True)
class ServeOverload:
    """Typed admission-control rejection returned by ``ServePool.submit``.

    Not an exception: overload is an expected steady-state outcome under
    load, and load generators record it rather than unwind.  ``worker``
    is the worker the policy chose, or ``-1`` when every worker was at
    its high-water mark.
    """

    worker: int
    queue_depth: int
    limit: int
    reason: str = "queue-high-water"

    def __str__(self) -> str:
        where = f"worker {self.worker}" if self.worker >= 0 else "all workers"
        return (f"overloaded ({self.reason}): {where} at depth "
                f"{self.queue_depth}/{self.limit}")


@dataclass(frozen=True)
class SessionSpec:
    """One serving request (picklable, spawn-safe).

    Exactly one of ``benchmark`` (app-registry name) or ``program`` (a
    fuzz ``ProgramDesc`` as the plain dict from
    :func:`repro.fuzz.desc_to_dict`) must be set.  ``pipeline`` names a
    compilation preset from :data:`repro.simd.pipeline.PIPELINES`
    (``None`` runs the scalar graph untransformed); ``machine`` is a
    target-registry name resolved inside the worker.
    """

    benchmark: Optional[str] = None
    program: Optional[Dict[str, Any]] = None
    pipeline: Optional[str] = "full"
    machine: str = CORE_I7.name
    backend: str = "compiled"
    iterations: int = 4
    #: worker-local thread cores (>1 routes through the parallel runtime
    #: *inside* the worker process).
    cores: int = 1
    #: client correlation label, echoed back on the result.
    tag: str = ""

    def __post_init__(self) -> None:
        if (self.benchmark is None) == (self.program is None):
            raise ServeError(
                "SessionSpec needs exactly one of benchmark= or program=")
        if self.iterations < 1:
            raise ServeError(
                f"iterations must be >= 1, got {self.iterations}")
        if self.cores < 1:
            raise ServeError(f"cores must be >= 1, got {self.cores}")

    def graph_key(self) -> str:
        """Content-addressed identity of the *compiled graph* this spec
        needs: (program identity, machine, pipeline).  Two specs with the
        same key share one compiled graph + schedule in a worker's graph
        cache (iterations/backend/cores vary per session, not per
        graph)."""
        if self.benchmark is not None:
            source = f"bench:{self.benchmark}"
        else:
            blob = json.dumps(self.program, sort_keys=True,
                              separators=(",", ":"))
            source = "desc:" + hashlib.sha256(
                blob.encode()).hexdigest()[:16]
        return f"{source}|{self.machine}|{self.pipeline or 'scalar-asis'}"

    def to_wire(self) -> Dict[str, Any]:
        return asdict(self)

    @staticmethod
    def from_wire(wire: Dict[str, Any]) -> "SessionSpec":
        return SessionSpec(**wire)


@dataclass
class SessionResult:
    """Everything a served session hands back to the client.

    Counter state crosses the process boundary as plain *bags* —
    ``actor id -> {event name -> count}`` with zero counts dropped, the
    same normal form the fuzz backend oracle compares — so a served
    result is directly comparable to a direct
    :func:`repro.runtime.executor.execute` run.
    """

    seq: int = 0
    worker: int = -1
    tag: str = ""
    graph_name: str = ""
    backend: str = ""
    iterations: int = 0
    outputs: List[Any] = field(default_factory=list)
    init_outputs: List[Any] = field(default_factory=list)
    steady_bags: Dict[int, Dict[str, int]] = field(default_factory=dict)
    init_bags: Dict[int, Dict[str, int]] = field(default_factory=dict)
    #: kernel-cache counter deltas of this session (compiled backend).
    kernel_cache: Optional[Dict[str, int]] = None
    #: True when the worker reused a previously compiled graph+schedule.
    graph_cache_hit: bool = False
    #: in-worker service time (compile + execute), seconds.
    busy_s: float = 0.0
    #: True when the session was re-dispatched after its original lane
    #: died (stamped by the pool, at most once per session).
    retried: bool = False
    #: ``"ExcType: message"`` when the session failed; outputs are empty.
    error: Optional[str] = None
    #: machine-readable failure class (``""`` for ordinary in-session
    #: exceptions; :data:`ERROR_KIND_WORKER_DIED` when the lane died).
    error_kind: str = ""

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def worker_died(self) -> bool:
        """True for the typed :class:`WorkerDied` outcome: the session
        was accepted but its worker process died (and at-most-once
        re-dispatch was exhausted or impossible)."""
        return self.error_kind == ERROR_KIND_WORKER_DIED


@dataclass
class WorkerDied(SessionResult):
    """Typed terminal outcome for a session stranded by a dead lane.

    Produced parent-side by the pool's loop (it never crosses the
    wire): the session was *accepted* but its worker process died before
    answering, and at-most-once re-dispatch was either already spent
    (``retried=True``) or impossible (no lane left to restart).  Checks
    work both by type (``isinstance(result, WorkerDied)``) and — for
    results that did cross a process boundary — by the
    :attr:`SessionResult.worker_died` property.
    """


def worker_died_result(seq: int, worker: int, *,
                       exitcode: Optional[int] = None,
                       retried: bool = False,
                       detail: str = "") -> WorkerDied:
    """Build the canonical :class:`WorkerDied` result for one session."""
    reason = f"worker {worker} died"
    if exitcode is not None:
        reason += f" (exit code {exitcode})"
    if retried:
        reason += " after one re-dispatch"
    if detail:
        reason += f": {detail}"
    return WorkerDied(seq=seq, worker=worker, retried=retried,
                      error=reason, error_kind=ERROR_KIND_WORKER_DIED)


def encode_result(result: SessionResult) -> Dict[str, Any]:
    """Serialize a result for the cross-process result pipe.

    The wire dict shares ``outputs`` / ``init_outputs`` with ``result``
    rather than copying them item by item: the worker drops the result
    right after encoding it, and pickling copies the bytes anyway.
    Counter-bag keys become strings (dict keys survive JSON round-trips
    too, should a transport ever want text); :func:`decode_result`
    restores the int keys.
    """
    wire = {f.name: getattr(result, f.name) for f in fields(result)}
    wire["v"] = WIRE_VERSION
    wire["steady_bags"] = {str(aid): dict(bag)
                           for aid, bag in result.steady_bags.items()}
    wire["init_bags"] = {str(aid): dict(bag)
                         for aid, bag in result.init_bags.items()}
    return wire


def decode_result(wire: Dict[str, Any]) -> SessionResult:
    """Inverse of :func:`encode_result` (parent-process side)."""
    version = wire.get("v")
    if version != WIRE_VERSION:
        raise ServeError(
            f"session result wire version {version!r} != {WIRE_VERSION}")
    fields = dict(wire)
    fields.pop("v")
    fields["steady_bags"] = {int(aid): dict(bag)
                             for aid, bag in wire["steady_bags"].items()}
    fields["init_bags"] = {int(aid): dict(bag)
                           for aid, bag in wire["init_bags"].items()}
    return SessionResult(**fields)
