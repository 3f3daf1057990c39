"""Load generator for the serving runtime (``repro.serve.loadgen``).

Two canonical request-stream shapes drive a :class:`~.pool.ServePool`
over a mix of session specs:

* **closed loop** (:func:`run_closed_loop`) — a fixed number of client
  threads, each keeping exactly one session in flight: measures the
  system's sustainable throughput at a given concurrency, latency never
  includes un-admitted queueing.  Overloads are retried after a small
  backoff (a closed-loop client has nothing better to do) and counted.
* **open loop** (:func:`run_open_loop`) — requests arrive on a fixed
  schedule (``rate`` per second) regardless of completions: measures
  behaviour *under* offered load, including queueing delay.  Latency is
  measured from the request's *intended arrival time* (so scheduler lag
  is charged to the system, not hidden), and overloads are shed, not
  retried — exactly the admission-control contract under stress.

Both return a :class:`LoadReport` with per-request records, p50/p99
latency, throughput, and the overload/error tallies — the numbers
``macross loadgen`` publishes.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from .pool import ServePool, SessionTicket
from .session import ServeError, ServeOverload, SessionSpec

__all__ = ["LoadReport", "RequestRecord", "kill_worker_after", "percentile",
           "run_closed_loop", "run_open_loop"]


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of ``values``.

    Pinned semantics (property-tested in ``tests/serve/test_loadgen``):
    the returned value is ``sorted(values)[rank - 1]`` with
    ``rank = clamp(ceil(q * n / 100), 1, n)`` computed *exactly* — a
    naive float ``ceil(q / 100 * n)`` overshoots whenever the product
    lands epsilon above an integer (e.g. ``q=7, n=100`` gave rank 8),
    so the rank is evaluated in rational arithmetic over the binary
    value of ``q``.  A one-element sample returns that element for
    every valid ``q``; an empty sample raises :class:`ServeError`
    (there is no nearest rank to return).
    """
    if not values:
        raise ServeError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ServeError(f"percentile q must be in [0, 100], got {q}")
    from fractions import Fraction
    ordered = sorted(values)
    rank = math.ceil(Fraction(q) * len(ordered) / 100)  # exact nearest rank
    rank = min(len(ordered), max(1, rank))
    return ordered[rank - 1]


def kill_worker_after(pool: ServePool, completed: int, *,
                      poll_s: float = 0.005) -> threading.Thread:
    """Arm fault injection: SIGKILL one live worker once the pool has
    completed ``completed`` sessions (``macross loadgen
    --kill-worker-after N``).  Returns the (daemon) trigger thread; join
    it after the run to learn that the kill actually fired.  Throughput
    degrades gracefully — the lane restarts, stranded sessions
    re-dispatch once — instead of hanging clients."""
    if completed < 0:
        raise ServeError(
            f"kill_worker_after needs a count >= 0, got {completed}")

    def trigger() -> None:
        while True:
            done = sum(s.completed for s in pool.stats)
            if done >= completed:
                pool.kill_worker()
                return
            if pool._stopped:  # pool gone before the threshold was hit
                return
            time.sleep(poll_s)

    thread = threading.Thread(target=trigger, name="loadgen-fault",
                              daemon=True)
    thread.start()
    return thread


@dataclass
class RequestRecord:
    """One load-generated request, successful or not."""

    index: int
    spec_tag: str
    worker: int = -1
    ok: bool = False
    overloads: int = 0          # rejections observed for this request
    error: Optional[str] = None
    latency_s: float = 0.0      # arrival (intended) -> completion
    service_s: float = 0.0      # in-worker busy time


@dataclass
class LoadReport:
    """Aggregate outcome of one load-generation run."""

    mode: str
    workers: int
    requested: int
    completed: int = 0
    overloads: int = 0
    shed: int = 0               # open-loop requests dropped on overload
    errors: int = 0
    duration_s: float = 0.0
    records: List[RequestRecord] = field(default_factory=list)

    @property
    def throughput_rps(self) -> float:
        return self.completed / self.duration_s if self.duration_s else 0.0

    def latencies_s(self) -> List[float]:
        return [r.latency_s for r in self.records if r.ok]

    def latency_ms(self, q: float) -> float:
        return percentile(self.latencies_s(), q) * 1e3

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready summary (what ``macross loadgen --json`` writes)."""
        lat = self.latencies_s()
        return {
            "mode": self.mode, "workers": self.workers,
            "requested": self.requested, "completed": self.completed,
            "overloads": self.overloads, "shed": self.shed,
            "errors": self.errors,
            "duration_s": round(self.duration_s, 6),
            "throughput_rps": round(self.throughput_rps, 3),
            "p50_ms": round(percentile(lat, 50) * 1e3, 3) if lat else None,
            "p99_ms": round(percentile(lat, 99) * 1e3, 3) if lat else None,
            "mean_ms": round(sum(lat) / len(lat) * 1e3, 3) if lat else None,
        }

    def summary(self) -> str:
        head = (f"{self.mode} loadgen: {self.completed}/{self.requested} "
                f"ok, {self.overloads} overload(s), {self.errors} "
                f"error(s), {self.duration_s:.2f}s "
                f"-> {self.throughput_rps:.1f} req/s")
        lat = self.latencies_s()
        if lat:
            head += (f"\n  latency p50 {percentile(lat, 50) * 1e3:.1f} ms"
                     f"  p99 {percentile(lat, 99) * 1e3:.1f} ms"
                     f"  max {max(lat) * 1e3:.1f} ms")
        return head


def _spec_for(specs: Sequence[SessionSpec], index: int) -> SessionSpec:
    return specs[index % len(specs)]


def run_closed_loop(pool: ServePool, specs: Sequence[SessionSpec], *,
                    concurrency: int, requests: int,
                    overload_backoff_s: float = 0.002,
                    timeout_s: float = 300.0) -> LoadReport:
    """Fixed-concurrency request stream: ``concurrency`` clients pull the
    next request index from a shared counter until ``requests`` have been
    issued, each waiting for its session before issuing the next."""
    if not specs:
        raise ServeError("closed loop needs at least one SessionSpec")
    if concurrency < 1 or requests < 1:
        raise ServeError("concurrency and requests must be >= 1")
    report = LoadReport(mode="closed", workers=pool.workers,
                        requested=requests)
    counter = iter(range(requests))
    lock = threading.Lock()
    records: List[RequestRecord] = []

    def client() -> None:
        while True:
            with lock:
                index = next(counter, None)
            if index is None:
                return
            spec = _spec_for(specs, index)
            record = RequestRecord(index=index, spec_tag=spec.tag
                                   or spec.benchmark or "program")
            arrival = time.perf_counter()
            while True:
                ticket = pool.submit(spec)
                if isinstance(ticket, ServeOverload):
                    record.overloads += 1
                    time.sleep(overload_backoff_s)
                    continue
                break
            result = ticket.result(timeout=timeout_s)
            record.worker = result.worker
            record.latency_s = time.perf_counter() - arrival
            record.service_s = result.busy_s
            record.ok = result.ok
            record.error = result.error
            with lock:
                records.append(record)

    start = time.perf_counter()
    clients = [threading.Thread(target=client, name=f"loadgen-c{i}",
                                daemon=True)
               for i in range(concurrency)]
    for thread in clients:
        thread.start()
    for thread in clients:
        thread.join()
    report.duration_s = time.perf_counter() - start
    report.records = sorted(records, key=lambda r: r.index)
    report.completed = sum(1 for r in report.records if r.ok)
    report.errors = sum(1 for r in report.records
                        if not r.ok and r.error is not None)
    report.overloads = sum(r.overloads for r in report.records)
    return report


def run_open_loop(pool: ServePool, specs: Sequence[SessionSpec], *,
                  rate: float, requests: int,
                  timeout_s: float = 300.0) -> LoadReport:
    """Fixed-arrival-rate request stream: request ``i`` is offered at
    ``start + i/rate`` whether or not earlier ones finished; overloaded
    arrivals are shed (recorded, not retried)."""
    if not specs:
        raise ServeError("open loop needs at least one SessionSpec")
    if rate <= 0 or requests < 1:
        raise ServeError("rate must be > 0 and requests >= 1")
    report = LoadReport(mode="open", workers=pool.workers,
                        requested=requests)
    inflight: List[tuple] = []  # (record, intended_arrival, ticket)
    start = time.perf_counter()
    for index in range(requests):
        intended = start + index / rate
        now = time.perf_counter()
        if intended > now:
            time.sleep(intended - now)
        spec = _spec_for(specs, index)
        record = RequestRecord(index=index, spec_tag=spec.tag
                               or spec.benchmark or "program")
        ticket = pool.submit(spec)
        if isinstance(ticket, ServeOverload):
            record.overloads = 1
            report.shed += 1
            report.records.append(record)
            continue
        inflight.append((record, intended, ticket))
        report.records.append(record)
    for record, intended, ticket in inflight:
        result = ticket.result(timeout=timeout_s)
        record.worker = result.worker
        # Open-loop convention: latency from *intended* arrival, so
        # coordinated omission cannot flatter the tail.
        record.latency_s = (ticket.done_at or time.perf_counter()) - intended
        record.service_s = result.busy_s
        record.ok = result.ok
        record.error = result.error
    report.duration_s = time.perf_counter() - start
    report.completed = sum(1 for r in report.records if r.ok)
    report.errors = sum(1 for r in report.records
                        if not r.ok and r.error is not None and
                        not r.overloads)
    report.overloads = sum(r.overloads for r in report.records)
    return report
