"""Tests for bounded cross-core channels and the capacity planner."""

import threading
import time

import pytest

from repro.graph import flatten
from repro.multicore import (
    Channel,
    ChannelAborted,
    ChannelError,
    ChannelStallTimeout,
    plan_capacities,
    sequential_max_occupancy,
    steady_crossings,
)
from repro.multicore.channels import RunAbort
from repro.obs.tracer import Tracer
from repro.schedule import build_schedule

from ..conftest import (
    linear_program,
    make_pair_sum,
    make_ramp_source,
    make_scaler,
)

JOIN_S = 5.0  # generous thread-join bound; every wait below is ~ms scale


def _spawn(fn):
    thread = threading.Thread(target=fn, daemon=True)
    thread.start()
    return thread


class TestChannelBasics:
    def test_fifo_order(self):
        ch = Channel("t", capacity=8)
        for i in range(5):
            ch.push(float(i))
        assert [ch.pop() for _ in range(5)] == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            Channel("t", capacity=0)

    def test_peek_does_not_consume(self):
        ch = Channel("t", capacity=4)
        ch.push(7.0)
        ch.push(8.0)
        assert ch.peek(0) == 7.0
        assert ch.peek(1) == 8.0
        assert len(ch) == 2

    def test_negative_peek_rejected(self):
        ch = Channel("t", capacity=4)
        with pytest.raises(ValueError):
            ch.peek(-1)

    def test_preload_sets_initial_items(self):
        ch = Channel("t", capacity=4)
        ch.preload([1.0, 2.0])
        assert len(ch) == 2
        assert ch.pop() == 1.0

    def test_preload_beyond_capacity_rejected(self):
        ch = Channel("t", capacity=2)
        with pytest.raises(ChannelError):
            ch.preload([1.0, 2.0, 3.0])

    def test_rpush_stages_without_commit(self):
        """SIMDized writers stage with rpush then commit via
        advance_writer — readers must not see staged items."""
        ch = Channel("t", capacity=8)
        ch.rpush(1.0, 0)
        ch.rpush(2.0, 1)
        assert len(ch) == 0  # staged, not committed
        ch.advance_writer(2)
        assert len(ch) == 2
        assert ch.pop() == 1.0

    def test_advance_reader_bulk_pop(self):
        ch = Channel("t", capacity=8)
        for i in range(4):
            ch.push(float(i))
        ch.advance_reader(3)
        assert ch.pop() == 3.0


class TestBlocking:
    def test_push_blocks_at_capacity_until_pop(self):
        ch = Channel("t", capacity=2, stall_timeout=JOIN_S)
        ch.push(0.0)
        ch.push(1.0)
        done = threading.Event()

        def producer():
            ch.push(2.0)  # must block: channel full
            done.set()

        thread = _spawn(producer)
        time.sleep(0.05)
        assert not done.is_set(), "push must block at capacity"
        assert ch.pop() == 0.0  # drains one slot, unblocks producer
        thread.join(JOIN_S)
        assert done.is_set()
        assert ch.stats.push_stalls >= 1

    def test_pop_blocks_until_push(self):
        ch = Channel("t", capacity=2, stall_timeout=JOIN_S)
        got = []

        def consumer():
            got.append(ch.pop())  # must block: channel empty

        thread = _spawn(consumer)
        time.sleep(0.05)
        assert not got, "pop must block on empty channel"
        ch.push(42.0)
        thread.join(JOIN_S)
        assert got == [42.0]
        assert ch.stats.pop_stalls >= 1

    def test_peek_blocks_until_enough_committed(self):
        ch = Channel("t", capacity=4, stall_timeout=JOIN_S)
        ch.push(1.0)
        got = []
        thread = _spawn(lambda: got.append(ch.peek(1)))
        time.sleep(0.05)
        assert not got
        ch.push(2.0)
        thread.join(JOIN_S)
        assert got == [2.0]

    def test_stall_timeout_raises(self):
        ch = Channel("t", capacity=1, stall_timeout=0.15)
        with pytest.raises(ChannelStallTimeout):
            ch.pop()

    def test_abort_unblocks_waiters(self):
        abort = RunAbort()
        ch = Channel("t", capacity=1, abort=abort, stall_timeout=JOIN_S)
        raised = threading.Event()

        def consumer():
            try:
                ch.pop()
            except ChannelAborted:
                raised.set()

        thread = _spawn(consumer)
        time.sleep(0.05)
        abort.trip(RuntimeError("peer died"))
        thread.join(JOIN_S)
        assert raised.is_set()
        assert abort.tripped


class TestStatsAndTracing:
    def test_stats_counts(self):
        ch = Channel("t", capacity=4)
        for i in range(3):
            ch.push(float(i))
        ch.pop()
        snap = ch.stats.snapshot()
        assert snap["pushes"] == 3
        assert snap["pops"] == 1
        assert snap["max_occupancy"] == 3
        assert snap["capacity"] == 4

    def test_stall_emits_tracer_instant(self):
        tracer = Tracer()
        ch = Channel("t", capacity=4, tracer=tracer, stall_timeout=JOIN_S)
        thread = _spawn(lambda: ch.pop())
        time.sleep(0.05)
        ch.push(1.0)
        thread.join(JOIN_S)
        stalls = [e for e in tracer.events if e.name == "channel.stall"]
        assert stalls, "blocked pop must emit a channel.stall instant"
        assert stalls[0].cat == "channel"
        assert stalls[0].args["side"] == "pop"
        assert stalls[0].args["channel"] == "t"


class TestCapacityPlanner:
    def _graph(self):
        return linear_program(make_ramp_source(4), make_scaler(name="a"),
                              make_pair_sum())

    def test_steady_crossings_match_rates(self):
        g = self._graph()
        schedule = build_schedule(g)
        crossings = steady_crossings(g, schedule)
        for tid, edge in g.tapes.items():
            expected = schedule.reps[edge.src] * g.push_rate(edge.src,
                                                             edge.src_port)
            assert crossings[tid] == expected

    def test_max_occupancy_at_least_one_firing(self):
        """Every tape must reach at least one producer firing's worth of
        occupancy under the sequential schedule."""
        g = self._graph()
        schedule = build_schedule(g)
        high = sequential_max_occupancy(g, schedule)
        for tid, edge in g.tapes.items():
            assert high[tid] >= g.push_rate(edge.src, edge.src_port)

    def test_plan_formula(self):
        g = self._graph()
        schedule = build_schedule(g)
        high = sequential_max_occupancy(g, schedule)
        crossings = steady_crossings(g, schedule)
        tids = list(g.tapes)
        plan = plan_capacities(g, schedule, tids)
        for tid in tids:
            assert plan[tid] == max(1, high[tid]) + crossings[tid]

    def test_plan_covers_requested_tapes_only(self):
        g = self._graph()
        schedule = build_schedule(g)
        tid = next(iter(g.tapes))
        plan = plan_capacities(g, schedule, [tid])
        assert set(plan) == {tid}

    def test_real_benchmark_plans_are_positive(self):
        from repro.apps import get_benchmark
        g = flatten(get_benchmark("FilterBank"))
        schedule = build_schedule(g)
        plan = plan_capacities(g, schedule, list(g.tapes))
        assert all(cap >= 1 for cap in plan.values())
