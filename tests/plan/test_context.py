"""PlanContext assembly and communication-aware partition pricing."""

from __future__ import annotations

import dataclasses

import pytest

from repro.perf import events as ev
from repro.plan import (
    Partition,
    build_plan_context,
    evaluate_partition,
    plan_capacities,
    profile_actor_costs,
    sequential_max_occupancy,
    steady_crossings,
)
from repro.simd.machine import CORE_I7, GPU_LIKE, UnsupportedOperation

from ..conftest import (
    linear_program,
    make_pair_sum,
    make_ramp_source,
    make_scaler,
)


def _graph():
    return linear_program(make_ramp_source(4), make_scaler(name="a"),
                          make_pair_sum())


class TestContext:
    def test_costs_are_per_iteration(self):
        """Profiling twice as long must not change per-iteration costs —
        the normalization that keeps compute loads commensurable with
        per-iteration communication charges."""
        graph = _graph()
        short = profile_actor_costs(graph, CORE_I7, iterations=2)
        long = profile_actor_costs(graph, CORE_I7, iterations=4)
        assert short.keys() == long.keys()
        for aid in short:
            assert short[aid] == pytest.approx(long[aid])

    def test_context_carries_target_comm_price(self):
        graph = _graph()
        i7 = build_plan_context(graph, "i7")
        gpu = build_plan_context(graph, "gpu-like")
        assert i7.comm_price == CORE_I7.price(ev.COMM)
        assert gpu.comm_price == GPU_LIKE.price(ev.COMM)
        assert gpu.comm_price > i7.comm_price

    def test_capacities_match_capacity_planner(self):
        graph = _graph()
        ctx = build_plan_context(graph, "i7")
        expected = plan_capacities(graph, ctx.schedule, graph.tapes)
        assert ctx.capacities == expected

    def test_traffic_matches_steady_crossings(self):
        graph = _graph()
        ctx = build_plan_context(graph, "i7")
        assert ctx.traffic == steady_crossings(graph, ctx.schedule)

    def test_total_work_is_cost_sum(self):
        ctx = build_plan_context(_graph(), "i7")
        assert ctx.total_work == pytest.approx(sum(ctx.costs.values()))

    def test_explicit_costs_short_circuit_profiling(self):
        graph = _graph()
        costs = {aid: 1.0 for aid in graph.actors}
        ctx = build_plan_context(graph, "i7", costs=costs)
        assert ctx.costs == costs

    def test_target_without_comm_price_raises(self):
        """A target that cannot price a transfer must not be planned as if
        communication were free."""
        prices = {event: price for event, price in CORE_I7.prices.items()
                  if event != ev.COMM}
        no_comm = dataclasses.replace(CORE_I7, prices=prices)
        with pytest.raises(UnsupportedOperation, match="comm"):
            build_plan_context(_graph(), no_comm)


class TestEvaluate:
    def test_serial_partition_has_no_comm_or_memory(self):
        graph = _graph()
        ctx = build_plan_context(graph, "i7")
        serial = Partition({aid: 0 for aid in graph.actors}, 2)
        ev_ = evaluate_partition(ctx, serial)
        assert ev_.memory_items == 0
        assert ev_.comm_cycles == 0.0
        assert not ev_.cut_tapes
        assert ev_.makespan == pytest.approx(ctx.total_work)

    def test_cut_pays_capacity_and_comm(self):
        graph = _graph()
        ctx = build_plan_context(graph, "i7")
        order = graph.ordered_actors()
        split = {aid: (0 if i < 2 else 1) for i, aid in enumerate(order)}
        ev_ = evaluate_partition(ctx, Partition(split, 2))
        assert ev_.cut_tapes
        assert ev_.memory_items == sum(ctx.capacities[t]
                                       for t in ev_.cut_tapes)
        assert ev_.comm_cycles == pytest.approx(
            sum(ctx.comm_cycles(t) for t in ev_.cut_tapes))

    def test_receiving_core_pays_the_transfer(self):
        """Doubling COMM price on the same cut raises only the consumer
        side's load (paper §5: the receiving core stalls on the
        transfer)."""
        graph = _graph()
        base = build_plan_context(graph, "i7")
        order = graph.ordered_actors()
        split = Partition({aid: (0 if i < len(order) - 1 else 1)
                           for i, aid in enumerate(order)}, 2)
        ev_base = evaluate_partition(base, split)
        pricier = dataclasses.replace(base, comm_price=base.comm_price * 2)
        ev_pricey = evaluate_partition(pricier, split)
        assert ev_pricey.core_loads[1] > ev_base.core_loads[1]
        assert ev_pricey.core_loads[0] == pytest.approx(ev_base.core_loads[0])

    def test_sequential_occupancy_bounds_capacity(self):
        graph = _graph()
        ctx = build_plan_context(graph, "i7")
        occ = sequential_max_occupancy(graph, ctx.schedule)
        for tid, cap in ctx.capacities.items():
            assert cap >= max(1, occ[tid])
