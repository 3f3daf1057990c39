"""Worker supervision: SIGKILL fault injection against live pools.

The contract under test — killing a worker mid-campaign loses zero
sessions: every admitted ticket resolves to either a successful result
(``retried`` when its first lane died under it) or a typed
:class:`WorkerDied`, never a hang — and the lane restarts with its
churn recorded in the blame table.  Marked ``serve``."""

from __future__ import annotations

import fcntl
import glob
import multiprocessing as mp
import multiprocessing.connection
import os
import struct
import termios
import threading
import time

import pytest

from repro.obs.tracer import Tracer
from repro.serve import (
    ERROR_KIND_WORKER_DIED,
    ServePool,
    SessionSpec,
    WorkerDied,
    kill_worker_after,
    worker_died_result,
)

from .test_pool import _assert_fully_torn_down

pytestmark = pytest.mark.serve

WAIT_S = 120.0

#: Heavy enough to still be in flight when the SIGKILL lands.
SLOW = dict(benchmark="FMRadio", iterations=8)


def _no_leaked_segments(pool: ServePool) -> bool:
    return not glob.glob(f"/dev/shm/mx{pool.uid}*")


def _await(condition, what: str) -> None:
    """Poll ``condition`` to a deadline (never assert after a bare
    sleep: under CPU contention any fixed pause is too short)."""
    deadline = time.monotonic() + WAIT_S
    while not condition():
        assert time.monotonic() < deadline, f"timed out waiting for {what}"
        time.sleep(0.01)


def _restarts(pool: ServePool) -> list:
    return [s["restarts"] for s in pool.stats_snapshot()]


class TestSupervisedRestart:
    def test_kill_mid_campaign_loses_no_sessions(self):
        with ServePool(2, max_queue_depth=8, wire_transport="shm",
                       shm_threshold=0) as pool:
            tickets = [pool.submit(SessionSpec(**SLOW, tag=f"s{i}"))
                       for i in range(8)]
            assert pool.kill_worker() >= 0
            results = [t.result(timeout=WAIT_S) for t in tickets]
            ok = [r for r in results if r.ok]
            died = [r for r in results if r.worker_died]
            assert len(ok) + len(died) == 8  # nothing lost, nothing hung
            # The kill landed while work was in flight, so the stranded
            # sessions either re-dispatched (retried results) or spent
            # their one retry.
            assert any(r.retried for r in results) or died
            stats = pool.stats_snapshot()
            assert sum(s["restarts"] for s in stats) >= 1
            assert sum(s["requeued"] for s in stats) == \
                sum(1 for r in ok if r.retried) + \
                sum(1 for r in died if r.retried)
            assert pool.drain(timeout=WAIT_S) is None
        assert len(pool.registry) == 0
        assert _no_leaked_segments(pool)

    def test_restarted_lane_serves_again(self):
        with ServePool(1, max_queue_depth=8) as pool:
            first = pool.submit(SessionSpec(**SLOW))
            pool.kill_worker()
            first.result(timeout=WAIT_S)  # retried or died; don't care
            deadline = time.monotonic() + WAIT_S
            while not pool._alive[0] and time.monotonic() < deadline:
                time.sleep(0.05)
            after = pool.run(SessionSpec(benchmark="DCT", iterations=1),
                             timeout=WAIT_S)
            assert after.ok, after.error
            assert pool.stats_snapshot()[0]["restarts"] == 1

    def _at_most_once_redispatch(self, **transport):
        """With restarts disabled and a single lane, a stranded session
        has nowhere to go: it must resolve as a typed WorkerDied rather
        than retry forever (or hang) — ``drain()`` returns, and no
        segment the dead worker may have created survives."""
        with ServePool(1, max_queue_depth=8, max_restarts=0,
                       **transport) as pool:
            tickets = [pool.submit(SessionSpec(**SLOW)) for _ in range(3)]
            pool.kill_worker()
            pool.drain(timeout=WAIT_S)
            results = [t.result(timeout=1.0) for t in tickets]
            assert all(r.worker_died for r in results)
            assert all(isinstance(r, WorkerDied) for r in results)
            assert all(r.error_kind == ERROR_KIND_WORKER_DIED
                       for r in results)
            assert not any(r.ok for r in results)
            stats = pool.stats_snapshot()[0]
            assert stats["restarts"] == 0
            assert stats["worker_died"] == 3
            assert stats["queue_depth"] == 0  # slots released
            # All lanes dead: fault injection has nothing left to kill.
            assert pool.kill_worker() == -1
        assert len(pool.registry) == 0
        assert _no_leaked_segments(pool)

    def test_at_most_once_redispatch(self):
        self._at_most_once_redispatch(wire_transport="queue")

    def test_at_most_once_redispatch_shm(self):
        self._at_most_once_redispatch(wire_transport="shm",
                                      shm_threshold=0)

    def test_overlapping_deaths_restart_together(self):
        """Both lanes die inside one back-off window: each restart is a
        deadline of the same wait, so neither queues behind the other,
        and every stranded session goes home to its restarted lane."""
        with ServePool(2, max_queue_depth=8) as pool:
            tickets = [pool.submit(SessionSpec(**SLOW, tag=f"s{i}"))
                       for i in range(6)]
            killed = [pool._procs[w].pid for w in (0, 1)]
            assert pool.kill_worker(0) == 0
            assert pool.kill_worker(1) == 1
            results = [t.result(timeout=WAIT_S) for t in tickets]
            assert all(r.ok for r in results), [r.error for r in results]
            assert any(r.retried for r in results)
            _await(lambda: _restarts(pool) == [1, 1], "both restarts")
            assert sum(s["worker_died"]
                       for s in pool.stats_snapshot()) == 0
        assert not [p for p in mp.active_children() if p.pid in killed]
        _assert_fully_torn_down(pool)

    def test_worker_died_results_name_the_failure(self):
        result = worker_died_result(7, 1, exitcode=-9, retried=True)
        assert result.worker_died and result.retried
        assert "worker 1 died" in result.error
        assert "-9" in result.error
        assert "re-dispatch" in result.error


class TestDrainUnderFailure:
    def test_drain_returns_after_sigkill_mid_drain(self):
        """Regression: drain() used to wait on the result queue alone, so
        a worker SIGKILLed mid-drain stranded its sessions forever."""
        with ServePool(2, max_queue_depth=8) as pool:
            tickets = [pool.submit(SessionSpec(**SLOW)) for _ in range(6)]
            killer = kill_worker_after(pool, 1)
            start = time.monotonic()
            pool.drain(timeout=WAIT_S)  # must return, not time out
            assert time.monotonic() - start < WAIT_S
            killer.join(timeout=5.0)
            for ticket in tickets:
                result = ticket.result(timeout=1.0)  # already resolved
                assert result.ok or result.worker_died


class TestFaultInjectionHelper:
    def test_kill_worker_after_fires_at_threshold(self):
        with ServePool(2, max_queue_depth=8) as pool:
            trigger = kill_worker_after(pool, 2)
            tickets = [pool.submit(SessionSpec(benchmark="DCT",
                                               iterations=1))
                       for _ in range(6)]
            results = [t.result(timeout=WAIT_S) for t in tickets]
            trigger.join(timeout=WAIT_S)
            assert not trigger.is_alive()
            assert all(r.ok or r.worker_died for r in results)
            # The restart is counted after back-off + respawn, and when
            # the kill lands on a lane with nothing in flight no result
            # waits for that.
            _await(lambda: sum(_restarts(pool)) >= 1, "the restart")

    def test_kill_worker_after_validates_count(self):
        from repro.serve import ServeError
        with pytest.raises(ServeError):
            kill_worker_after(object(), -1)


class _StallingTracer(Tracer):
    """Parks the pool's loop thread inside the first ``serve.session``
    event after ``armed`` is set, until ``gate`` opens: the test's
    handle for "the parent is not reading any lane right now"."""

    def __init__(self) -> None:
        super().__init__(enabled=True)
        self.armed = threading.Event()
        self.parked = threading.Event()
        self.gate = threading.Event()

    def event(self, name, cat="", **args):
        if name == "serve.session" and self.armed.is_set():
            self.armed.clear()
            self.parked.set()
            self.gate.wait(WAIT_S)
        super().event(name, cat, **args)


def _buffered(reader) -> int:
    """Bytes sitting unread in a pipe."""
    raw = fcntl.ioctl(reader.fileno(), termios.FIONREAD, bytes(4))
    return struct.unpack("i", raw)[0]


class TestOneLoop:
    """The structure of the parent side — one service thread over one
    result pipe per lane — and the kill-safety property it must keep."""

    def test_torn_frame_reads_as_hang_up(self):
        """A frame whose writer was SIGKILLed mid-write (length header,
        half a body, then EOF) must report hang-up, not block."""
        reader, writer = mp.Pipe(duplex=False)
        writer.send(("result", 0, {"seq": 1}))
        os.write(writer.fileno(), struct.pack("!i", 1000) + b"x" * 500)
        writer.close()
        got = []
        watchdog = threading.Thread(
            target=lambda: got.extend(ServePool._recv(reader)
                                      for _ in range(2)),
            daemon=True)
        watchdog.start()
        watchdog.join(timeout=5.0)
        assert not watchdog.is_alive(), "lane read blocked on a torn frame"
        assert got == [("result", 0, {"seq": 1}), None]

    def test_sigkill_mid_result_frame(self):
        """Kill a worker while its result is half-way down the pipe: the
        frame (~290 kB) is far larger than the pipe buffer, so with the
        loop parked the worker blocks inside ``send`` — the state a
        feeder thread holding a shared write lock used to poison every
        lane from.  The torn frame must cost that lane only."""
        tracer = _StallingTracer()
        bulk = SessionSpec(benchmark="StreamCopy", iterations=256)
        small = SessionSpec(benchmark="DCT", iterations=1)
        with ServePool(2, wire_transport="queue", tracer=tracer) as pool:
            tracer.armed.set()
            assert pool.run(small, timeout=WAIT_S).ok
            assert tracer.parked.wait(WAIT_S)
            ticket = pool.submit(bulk)
            victim = ticket.worker
            reader, proc = pool._readers[victim], pool._procs[victim]
            _await(lambda: _buffered(reader) >= 1024, "a frame in flight")
            assert pool.kill_worker(victim) == victim
            assert mp.connection.wait([proc.sentinel], WAIT_S)
            tracer.gate.set()
            others = [pool.run(small, timeout=WAIT_S) for _ in range(2)]
            assert all(r.ok for r in others), [r.error for r in others]
            assert any(r.worker != victim for r in others)
            result = ticket.result(timeout=WAIT_S)
            assert (result.ok and result.retried) or result.worker_died
            if result.ok:
                assert len(result.outputs) == 32768
            _await(lambda: _restarts(pool)[victim] == 1, "the restart")
        assert not [p for p in mp.active_children() if p.pid == proc.pid]
        _assert_fully_torn_down(pool)

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_one_service_thread_for_any_worker_count(self, workers):
        def service_threads():
            return [t.name for t in threading.enumerate()
                    if t.name.startswith("macross-serve-")]

        before = service_threads()
        with ServePool(workers) as pool:
            assert pool.run(SessionSpec(benchmark="DCT", iterations=1),
                            timeout=WAIT_S).ok
            assert len(service_threads()) == len(before) + 1
        assert service_threads() == before
        _assert_fully_torn_down(pool)
