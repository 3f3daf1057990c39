"""Process-sharded worker pool: admission control, supervision, and one
parent-side event loop over one result pipe per lane.

:class:`ServePool` owns ``workers`` long-lived ``spawn`` processes.  Each
lane has a request ``mp.Queue`` going in and a one-way result *pipe*
coming out, and the parent runs exactly one service thread
(``macross-serve-loop``) for any worker count.  The flow of one session:

1. :meth:`submit` asks the placement policy for a worker.  Admission
   control: a worker whose in-flight depth (queued + running) is at
   ``max_queue_depth`` is not eligible (dead lanes awaiting restart are
   never eligible); if no worker is eligible the submit returns a typed
   :class:`~repro.serve.session.ServeOverload` instead of queueing
   unboundedly — load-shedding at the front door is the serving
   analogue of the multicore runtime's bounded channels.
2. The spec crosses to the worker as plain builtins; the worker runs it
   against its persistent caches and sends the answer down its lane's
   pipe — large output arrays via a named shared-memory segment when
   ``wire_transport="shm"`` (see :mod:`.transport`), everything else
   inline.
3. The loop decodes the result where it reads it, resolves the
   :class:`SessionTicket`, stamps the completion time, and charges the
   worker's :class:`WorkerStats` blame bag (requests, busy time, cache
   hits, queue-depth high-water — the gem5 stream-engine per-lane
   statistics idiom).

**One loop.**  The service thread blocks in a single
``multiprocessing.connection.wait`` over every lane's result pipe, every
live worker's process *sentinel* and a wake pipe, with the nearest
restart deadline as its timeout — nothing in this module polls or
sleeps.  When a sentinel fires it first reads that lane's pipe to EOF
(a result the worker finished sending is honoured), then scavenges the
lane's shared-memory segments and schedules a restart with bounded
exponential back-off as a *deadline* the same wait honours, so two
lanes dying together restart together.  Once the lane is back its
in-flight sessions are re-dispatched **at most once** (results carry a
``retried`` flag; a twice-stranded session, or one with no lane left
because the lane's ``_MAX_RESTARTS`` restarts are spent, resolves to a typed
:class:`~repro.serve.session.WorkerDied` result instead).
Restart/requeue counts land in the per-lane blame table, so churn is
observable, not silent.

**Kill-safety is structural.**  A worker may be SIGKILLed at any
instruction, including half-way through writing a result.  Each lane's
pipe has exactly one writer — the worker's main thread; there is no
feeder thread and no cross-process write lock to die holding — and the
parent closes its own copy of the write end right after
``Process.start()``.  A dead worker is therefore an immediate
``EOFError`` on its lane and a torn frame an ``OSError``: on that lane
alone, and never a read that outlives the writer.

``drain()`` waits (on a condition, not a poll) for in-flight work
without accepting more; ``shutdown()`` drains (optionally), sends each
worker its shutdown sentinel, merges the workers' lifetime stats, ends
once every lane has hung up, joins the processes, and destroys any
shared-memory segment still registered.  The pool is a context manager;
exiting shuts down gracefully.
"""

from __future__ import annotations

import multiprocessing as mp
import multiprocessing.connection
import os
import signal
import threading
import time
import uuid
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Union

from ..obs.tracer import Tracer, ensure_tracer
from .scheduler import PlacementPolicy, get_policy
from .session import (ServeError, ServeOverload, SessionResult, SessionSpec,
                      decode_result, worker_died_result)
from .store import default_store_dir
from .transport import (WIRE_TRANSPORTS, SegmentRegistry, load_result_shm,
                        segment_names, shm_threshold_default)
from .worker import MSG_BYE, MSG_READY, MSG_RESULT, worker_main

__all__ = ["ServePool", "ServeTimeout", "SessionTicket", "WorkerStats"]

#: Workers are spawned, never forked: the strictest start method, and the
#: one that hands a child only the descriptors it is passed — a forked
#: sibling would inherit every lane's write end and no pipe would ever
#: reach EOF.
_START_METHOD = "spawn"

#: Every worker must announce ``MSG_READY`` within this long.
_START_TIMEOUT_S = 120.0

#: Back-off before a lane's first restart; doubles with every restart the
#: lane has already had, capped at ``_BACKOFF_CAP_S``.
_RESTART_BACKOFF_S = 0.05
_BACKOFF_CAP_S = 2.0

#: Restarts a lane gets before its stranded sessions fail as
#: ``WorkerDied`` and the lane stays down.
_MAX_RESTARTS = 3


def _backoff_s(restarts: int) -> float:
    return min(_RESTART_BACKOFF_S * 2 ** restarts, _BACKOFF_CAP_S)


class ServeTimeout(ServeError):
    """A ticket wait or pool startup/drain exceeded its deadline."""


@dataclass
class WorkerStats:
    """Parent-side blame bag for one worker lane."""

    worker: int
    submitted: int = 0
    completed: int = 0
    rejected: int = 0
    errors: int = 0
    #: current in-flight depth (queued + running).
    queue_depth: int = 0
    max_queue_depth: int = 0
    #: accumulated in-worker service time.
    busy_s: float = 0.0
    #: kernel-cache counters accumulated over this lane's sessions.
    cache: Dict[str, int] = field(default_factory=dict)
    graph_cache_hits: int = 0
    #: supervision: times this lane's process was restarted after dying.
    restarts: int = 0
    #: supervision: sessions this lane stranded that were re-dispatched.
    requeued: int = 0
    #: supervision: sessions terminally failed as ``WorkerDied``.
    worker_died: int = 0
    #: worker-reported lifetime stats, filled at shutdown (MSG_BYE).
    env: Dict[str, Any] = field(default_factory=dict)

    def charge(self, result: SessionResult) -> None:
        self.completed += 1
        self.queue_depth -= 1
        self.busy_s += result.busy_s
        if result.error is not None:
            self.errors += 1
        if result.worker_died:
            self.worker_died += 1
        if result.graph_cache_hit:
            self.graph_cache_hits += 1
        if result.kernel_cache:
            for key, value in result.kernel_cache.items():
                if key == "size":
                    self.cache["size"] = value  # resident count, not a delta
                else:
                    self.cache[key] = self.cache.get(key, 0) + value

    def snapshot(self) -> Dict[str, Any]:
        return {"worker": self.worker, "submitted": self.submitted,
                "completed": self.completed, "rejected": self.rejected,
                "errors": self.errors, "queue_depth": self.queue_depth,
                "max_queue_depth": self.max_queue_depth,
                "busy_s": self.busy_s, "cache": dict(self.cache),
                "graph_cache_hits": self.graph_cache_hits,
                "restarts": self.restarts, "requeued": self.requeued,
                "worker_died": self.worker_died,
                "env": dict(self.env)}


class SessionTicket:
    """Handle for one admitted session; resolved by the pool's loop."""

    __slots__ = ("seq", "worker", "spec", "submitted_at", "done_at",
                 "retried", "_event", "_result")

    def __init__(self, seq: int, worker: int, spec: SessionSpec) -> None:
        self.seq = seq
        self.worker = worker
        self.spec = spec
        self.submitted_at = time.perf_counter()
        self.done_at: Optional[float] = None
        #: set when the session is re-dispatched after its original lane
        #: died (at most once).
        self.retried = False
        self._event = threading.Event()
        self._result: Optional[SessionResult] = None

    def done(self) -> bool:
        return self._event.is_set()

    def result(self, timeout: Optional[float] = None) -> SessionResult:
        """Block until the session completes (or ``timeout`` seconds)."""
        if not self._event.wait(timeout):
            raise ServeTimeout(
                f"session {self.seq} (worker {self.worker}) still pending "
                f"after {timeout}s")
        assert self._result is not None
        return self._result

    @property
    def latency_s(self) -> float:
        """Submit-to-completion wall time (queueing + service)."""
        if self.done_at is None:
            raise ServeError(f"session {self.seq} not finished")
        return self.done_at - self.submitted_at

    def _resolve(self, result: SessionResult) -> None:
        self._result = result
        self.done_at = time.perf_counter()
        self._event.set()


class ServePool:
    """A fixed-size pool of worker processes serving stream sessions."""

    def __init__(self, workers: int = 2, *,
                 policy: Union[str, PlacementPolicy] = "round-robin",
                 backend: str = "compiled",
                 max_queue_depth: int = 8,
                 wire_transport: str = "shm",
                 shm_threshold: Optional[int] = None,
                 store_dir: Optional[str] = None,
                 tracer: Optional[Tracer] = None) -> None:
        if workers < 1:
            raise ServeError(f"workers must be >= 1, got {workers}")
        if max_queue_depth < 1:
            raise ServeError(
                f"max_queue_depth must be >= 1, got {max_queue_depth}")
        if wire_transport not in WIRE_TRANSPORTS:
            raise ServeError(
                f"wire_transport must be one of {WIRE_TRANSPORTS}, "
                f"got {wire_transport!r}")
        self.workers = workers
        self.backend = backend
        self.max_queue_depth = max_queue_depth
        self.policy = get_policy(policy) if isinstance(policy, str) \
            else policy
        self.tracer = ensure_tracer(tracer)
        self.wire_transport = wire_transport
        self.shm_threshold = shm_threshold_default() \
            if shm_threshold is None else shm_threshold
        if store_dir is None:
            env_dir = default_store_dir()
            store_dir = str(env_dir) if env_dir is not None else None
        self.store_dir = store_dir
        self.uid = uuid.uuid4().hex[:8]
        self.registry = SegmentRegistry()
        self._lock = threading.Lock()
        #: notified whenever ``_pending`` shrinks; ``drain`` waits on it.
        self._settled = threading.Condition(self._lock)
        self._shutdown_lock = threading.Lock()
        self._seq = 0
        self._closed = False
        self._stopping = False   # teardown started: no more restarts
        self._stopped = False
        self._pending: Dict[int, SessionTicket] = {}
        self.stats: List[WorkerStats] = [WorkerStats(w)
                                         for w in range(workers)]
        self._ctx = mp.get_context(_START_METHOD)
        self._requests: List[Any] = [None] * workers
        #: the parent's (read) end of each lane's result pipe; ``None``
        #: once the lane has hung up.
        self._readers: List[Any] = [None] * workers
        self._procs: List[Any] = [None] * workers
        self._alive: List[bool] = [False] * workers
        #: lane -> monotonic time its restart back-off ends.
        self._restart_at: Dict[int, float] = {}
        self._wake_r, self._wake_w = self._ctx.Pipe(duplex=False)
        for wid in range(workers):
            self._spawn_worker(wid)
        self._await_ready()
        self._thread = threading.Thread(target=self._loop,
                                        name="macross-serve-loop",
                                        daemon=True)
        self._thread.start()

    # -- lifecycle -------------------------------------------------------------
    def _spawn_worker(self, wid: int) -> None:
        """(Re)create lane ``wid``: a fresh request queue, a fresh result
        pipe and a process.  A dead lane's old request queue is abandoned
        wholesale — its undelivered messages correspond exactly to the
        tickets the loop re-dispatches."""
        old = self._requests[wid]
        if old is not None:
            old.cancel_join_thread()
            old.close()
        requests = self._ctx.Queue()
        reader, writer = self._ctx.Pipe(duplex=False)
        proc = self._ctx.Process(
            target=worker_main,
            args=(wid, requests, writer, self.backend, self.wire_transport,
                  self.shm_threshold, self.uid, self.store_dir),
            name=f"macross-serve-w{wid}", daemon=True)
        proc.start()
        # The worker holds the only write end from here on.  With a copy
        # left open in the parent, a SIGKILLed worker's lane would never
        # reach EOF and whoever read it would block for good (PR 10's
        # deadlock, there behind a shared queue and its write lock).
        writer.close()
        self._requests[wid] = requests
        self._readers[wid] = reader
        self._procs[wid] = proc
        self._alive[wid] = True

    def _await_ready(self) -> None:
        """Consume one MSG_READY per worker before serving (keeps process
        startup out of every latency measurement).  A worker that dies
        first hangs up its pipe, so there is no liveness to poll."""
        waiting = {reader: wid for wid, reader in enumerate(self._readers)}
        deadline = time.monotonic() + _START_TIMEOUT_S
        while waiting:
            ready = mp.connection.wait(
                list(waiting), max(0.0, deadline - time.monotonic()))
            if not ready:
                self._kill()
                raise ServeTimeout(
                    f"only {self.workers - len(waiting)}/{self.workers} "
                    f"workers ready after {_START_TIMEOUT_S:.0f}s")
            for reader in ready:
                wid = waiting.pop(reader)
                message = self._recv(reader)
                if message is not None and message[0] == MSG_READY:
                    continue
                self._kill()
                if message is not None:  # MSG_BYE carrying a traceback
                    raise ServeError(
                        f"worker {wid} failed to start: "
                        f"{message[2].get('error', 'unknown')}")
                raise ServeError(
                    f"worker {wid} died during startup (exit code "
                    f"{self._procs[wid].exitcode}) — with the 'spawn' "
                    f"start method the entry script must be importable "
                    f"(guard it with __main__)")

    def __enter__(self) -> "ServePool":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.shutdown()

    def _kill(self) -> None:
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
        for proc in self._procs:
            proc.join(timeout=5.0)

    # -- fault injection -------------------------------------------------------
    def kill_worker(self, wid: Optional[int] = None) -> int:
        """SIGKILL one live worker process (fault injection: tests and
        ``macross loadgen --kill-worker-after``).  Returns the lane id,
        or ``-1`` when no lane is alive to kill."""
        with self._lock:
            candidates = [w for w in range(self.workers)
                          if self._alive[w] and self._procs[w].is_alive()]
            if wid is not None:
                candidates = [w for w in candidates if w == wid]
            if not candidates:
                return -1
            victim = candidates[0]
            pid = self._procs[victim].pid
        os.kill(pid, signal.SIGKILL)
        return victim

    # -- the loop --------------------------------------------------------------
    def _loop(self) -> None:
        """The pool's one service thread.  Blocks until a lane has a
        message, a live worker's sentinel fires, a restart back-off ends
        or ``shutdown()`` wakes it, and handles each inline; returns once
        teardown has started and every lane has hung up."""
        while True:
            if self._stopping:
                self._restart_at.clear()
            readers = {reader: wid
                       for wid, reader in enumerate(self._readers)
                       if reader is not None}
            if self._stopping and not readers:
                return
            sentinels = {self._procs[wid].sentinel: wid
                         for wid in range(self.workers) if self._alive[wid]}
            timeout = None
            if self._restart_at:
                timeout = max(0.0, min(self._restart_at.values())
                              - time.monotonic())
            for ready in mp.connection.wait(
                    [*readers, *sentinels, self._wake_r], timeout):
                if ready in readers:
                    self._read_lane(readers[ready])
                elif ready in sentinels:
                    self._on_worker_death(sentinels[ready])
                else:
                    self._wake_r.recv_bytes()
            now = time.monotonic()
            for wid in [w for w, at in self._restart_at.items()
                        if at <= now]:
                self._restart(wid)

    @staticmethod
    def _recv(reader: Any) -> Optional[tuple]:
        """One ``(kind, worker, payload)`` message from a lane's pipe, or
        ``None`` once the lane has hung up: EOF from a worker that
        exited, or a frame torn by SIGKILL (``OSError``).  Neither can
        block past the writer's death, because the worker held the
        pipe's only write end."""
        try:
            return reader.recv()
        except (EOFError, OSError):
            return None

    def _read_lane(self, wid: int, *, to_eof: bool = False) -> None:
        """Handle the next message on lane ``wid``'s pipe — every
        remaining one with ``to_eof``, which only a dead writer makes
        safe — and retire the pipe once the lane has hung up."""
        reader = self._readers[wid]
        if reader is None:
            return
        while (message := self._recv(reader)) is not None:
            self._on_message(*message)
            if not to_eof:
                return
        reader.close()
        self._readers[wid] = None

    def _on_message(self, kind: str, wid: int, payload: Any) -> None:
        if kind == MSG_RESULT:
            try:
                payload = load_result_shm(payload)
                result = decode_result(payload)
            except Exception as exc:  # noqa: BLE001 - corrupt wire
                result = SessionResult(
                    seq=payload.get("seq", -1) if isinstance(
                        payload, dict) else -1,
                    worker=wid,
                    error=f"decode failed: {type(exc).__name__}: {exc}")
            self._finish(wid, result)
            self.registry.resolve(result.seq)
        elif kind == MSG_BYE:
            with self._lock:
                self.stats[wid].env = dict(payload or {})
        # MSG_READY from a restarted lane needs no action: its requeued
        # work is already sitting in the lane's queue.

    def _finish(self, wid: int, result: SessionResult) -> None:
        with self._lock:
            ticket = self._pending.pop(result.seq, None)
            if ticket is None:
                return  # already failed, or served twice: nobody waits
            # Charge the lane the ticket is *currently* placed on:
            # re-dispatch may have moved it, and a result a dying lane
            # managed to send must release the depth slot its ticket now
            # occupies, not the dead lane's.
            result.retried = ticket.retried
            self.stats[ticket.worker].charge(result)
            self._settle(ticket, result)
        if self.tracer.enabled:
            self.tracer.event(
                "serve.session", cat="serve", worker=wid,
                seq=result.seq, graph=result.graph_name,
                ok=result.ok, retried=result.retried,
                latency_ms=round(ticket.latency_s * 1e3, 3),
                busy_ms=round(result.busy_s * 1e3, 3),
                graph_cache_hit=result.graph_cache_hit)

    def _settle(self, ticket: SessionTicket, result: SessionResult) -> None:
        """Resolve a ticket already taken out of ``_pending`` (lock held:
        whoever ``drain`` wakes finds the ticket done)."""
        ticket._resolve(result)
        self._settled.notify_all()

    # -- supervision -----------------------------------------------------------
    def _on_worker_death(self, wid: int) -> None:
        """Lane ``wid``'s sentinel fired: honour whatever it finished
        sending, scavenge its segments, and either schedule its restart
        (bounded exponential back-off, as a deadline of the loop's wait)
        or, with the restart budget spent, re-place or fail its in-flight
        sessions now."""
        proc = self._procs[wid]
        proc.join()  # already exiting: returns at once, and reaps
        self._read_lane(wid, to_eof=True)
        with self._lock:
            self._alive[wid] = False
            if self._stopping:
                return  # orderly exit; shutdown() fails what is left
            stranded = [t.seq for t in self._pending.values()
                        if t.worker == wid]
            restarts = self.stats[wid].restarts
        if self.tracer.enabled:
            self.tracer.event("serve.worker_died", cat="serve",
                              worker=wid, exitcode=proc.exitcode,
                              stranded=len(stranded))
        # The dead worker may have created segments for results it never
        # (fully) announced: destroy them before any retry reuses the
        # deterministic names.
        for seq in stranded:
            self.registry.scavenge(seq)
        if restarts < _MAX_RESTARTS:
            self._restart_at[wid] = time.monotonic() + _backoff_s(restarts)
        else:
            self._requeue_stranded(wid, proc.exitcode)

    def _restart(self, wid: int) -> None:
        """Lane ``wid``'s back-off is over: respawn it and hand it back
        the sessions it stranded."""
        del self._restart_at[wid]
        with self._lock:
            if self._stopping:
                return
            exitcode = self._procs[wid].exitcode
            self._spawn_worker(wid)
            self.stats[wid].restarts += 1
            attempt = self.stats[wid].restarts
        if self.tracer.enabled:
            self.tracer.event("serve.worker_restarted", cat="serve",
                              worker=wid, attempt=attempt,
                              backoff_s=_backoff_s(attempt - 1))
        self._requeue_stranded(wid, exitcode)

    def _requeue_stranded(self, wid: int, exitcode: Optional[int]) -> None:
        with self._lock:
            stranded = sorted(
                (t for t in self._pending.values() if t.worker == wid),
                key=lambda t: t.seq)
        for ticket in stranded:
            self._redispatch_or_fail(ticket, wid, exitcode)

    def _redispatch_or_fail(self, ticket: SessionTicket, dead_wid: int,
                            exitcode: Optional[int]) -> None:
        """At-most-once re-dispatch of one stranded session."""
        with self._lock:
            if ticket.seq not in self._pending:
                return  # resolved concurrently (its result was in flight)
            if ticket.retried:
                target = -1  # the one retry is spent
            else:
                # Prefer the restarted home lane, else the shallowest
                # other live lane.
                live = [w for w in range(self.workers) if self._alive[w]]
                if dead_wid in live:
                    target = dead_wid
                elif live:
                    target = min(live,
                                 key=lambda w: self.stats[w].queue_depth)
                else:
                    target = -1
            if target < 0:
                del self._pending[ticket.seq]
                result = worker_died_result(
                    ticket.seq, dead_wid, exitcode=exitcode,
                    retried=ticket.retried)
                self.stats[ticket.worker].charge(result)
                self._settle(ticket, result)
                return
            self.stats[ticket.worker].queue_depth -= 1
            self.stats[dead_wid].requeued += 1
            ticket.retried = True
            ticket.worker = target
            stats = self.stats[target]
            stats.queue_depth += 1
            if stats.queue_depth > stats.max_queue_depth:
                stats.max_queue_depth = stats.queue_depth
        self._dispatch(ticket)
        if self.tracer.enabled:
            self.tracer.event("serve.session_requeued", cat="serve",
                              seq=ticket.seq, from_worker=dead_wid,
                              to_worker=target)

    # -- submission ------------------------------------------------------------
    def _dispatch(self, ticket: SessionTicket) -> None:
        """Hand one admitted session to its lane (registering the
        session's possible shm segments first, so even a lane that dies
        mid-write cannot leak them)."""
        if self.wire_transport == "shm":
            self.registry.expect(
                ticket.seq,
                segment_names(self.uid, ticket.worker, ticket.seq))
        self._requests[ticket.worker].put(
            (ticket.seq, ticket.spec.to_wire()))

    def submit(self, spec: SessionSpec) -> Union[SessionTicket,
                                                 ServeOverload]:
        """Admit and place one session, or return :class:`ServeOverload`.

        Never blocks: backpressure is surfaced to the caller as data, so
        clients (and the load generator) decide whether to retry, shed,
        or slow down.  A dead lane (awaiting restart) is simply
        ineligible — with every lane dead, submits shed rather than
        hang.
        """
        with self._lock:
            if self._closed:
                raise ServeError("pool is shut down (or draining)")
            # A dead lane reports itself saturated so no policy picks it.
            depths = [s.queue_depth if self._alive[s.worker]
                      else self.max_queue_depth
                      for s in self.stats]
            wid = self.policy.choose(depths, self.max_queue_depth)
            if wid < 0:
                busiest = max(range(self.workers),
                              key=lambda w: depths[w])
                self.stats[busiest].rejected += 1
                overload = ServeOverload(worker=-1,
                                         queue_depth=depths[busiest],
                                         limit=self.max_queue_depth)
                if self.tracer.enabled:
                    self.tracer.event("serve.overload", cat="serve",
                                      queue_depth=overload.queue_depth,
                                      limit=overload.limit)
                return overload
            self._seq += 1
            ticket = SessionTicket(self._seq, wid, spec)
            self._pending[ticket.seq] = ticket
            stats = self.stats[wid]
            stats.submitted += 1
            stats.queue_depth += 1
            if stats.queue_depth > stats.max_queue_depth:
                stats.max_queue_depth = stats.queue_depth
        self._dispatch(ticket)
        return ticket

    def run(self, spec: SessionSpec, *,
            timeout: Optional[float] = None) -> SessionResult:
        """Synchronous convenience: submit and wait (raises
        :class:`ServeError` on overload instead of returning it)."""
        ticket = self.submit(spec)
        if isinstance(ticket, ServeOverload):
            raise ServeError(str(ticket))
        return ticket.result(timeout)

    # -- draining / shutdown ---------------------------------------------------
    def drain(self, timeout: Optional[float] = None) -> None:
        """Wait until every admitted session has completed.

        Always makes progress: the loop requeues or fails a dead lane's
        sessions, so a SIGKILL mid-drain shrinks ``_pending`` like any
        result does."""
        with self._settled:
            if not self._settled.wait_for(lambda: not self._pending,
                                          timeout):
                raise ServeTimeout(
                    f"{len(self._pending)} session(s) still in flight "
                    f"after {timeout}s drain")

    def shutdown(self, *, drain: bool = True,
                 timeout: float = 60.0) -> List[Dict[str, Any]]:
        """Gracefully stop: close the front door, optionally drain, send
        each worker its sentinel, merge lifetime stats, join.  Returns
        the final per-worker stats snapshots (idempotent; a second caller
        racing the first waits for its teardown)."""
        with self._lock:
            self._closed = True
        with self._shutdown_lock:
            if not self._stopped:
                self._teardown(drain, timeout)
        return self.stats_snapshot()

    def _teardown(self, drain: bool, timeout: float) -> None:
        if drain:
            try:
                self.drain(timeout=timeout)
            except ServeTimeout:
                pass  # fall through; the tickets fail below
        with self._lock:
            self._stopping = True  # exits are orderly from here on
            live = [wid for wid in range(self.workers) if self._alive[wid]]
        for wid in live:
            self._requests[wid].put(None)
        self._wake_w.send_bytes(b"stopping")
        deadline = time.monotonic() + timeout
        for proc in self._procs:
            proc.join(timeout=max(0.0, deadline - time.monotonic()) + 1.0)
        self._kill()
        # The loop has read every worker's MSG_BYE stats by the time the
        # last lane hangs up, which is when it returns.
        self._thread.join(timeout=5.0)
        self._stopped = True
        with self._lock:
            while self._pending:
                _seq, ticket = self._pending.popitem()
                self._settle(ticket, SessionResult(
                    seq=ticket.seq, worker=ticket.worker,
                    error="pool shut down before completion"))
        # No segment may outlive the pool, whatever path got us here.
        self.registry.scavenge_all()
        for requests in self._requests:
            requests.cancel_join_thread()
            requests.close()
        self._wake_r.close()
        self._wake_w.close()
        if self.tracer.enabled:
            for stats in self.stats:
                self.tracer.event(f"serve.worker{stats.worker}",
                                  cat="serve", **{
                                      k: v for k, v in
                                      stats.snapshot().items()
                                      if k not in ("cache", "env")})

    def stats_snapshot(self) -> List[Dict[str, Any]]:
        with self._lock:
            return [s.snapshot() for s in self.stats]
