"""Tests for the multicore partitioners."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.plan import (
    build_plan_context,
    evaluate_partition,
    partition_contiguous,
    partition_lpt,
)

from ..conftest import linear_program, make_pair_sum, make_ramp_source, make_scaler


def _graph():
    return linear_program(make_ramp_source(4),
                          make_scaler(name="a"),
                          make_scaler(name="b"),
                          make_pair_sum())


def _loads(graph, part, costs):
    """Per-core compute load: the planner's price with free transfers."""
    ctx = build_plan_context(graph, costs=costs)
    ctx = dataclasses.replace(ctx, comm_price=0.0)
    return list(evaluate_partition(ctx, part).core_loads)


class TestLPT:
    def test_every_actor_assigned(self):
        g = _graph()
        part = partition_lpt(g, {aid: 1.0 for aid in g.actors}, 2)
        assert set(part.assignment) == set(g.actors)
        assert set(part.assignment.values()) <= {0, 1}

    def test_single_core(self):
        g = _graph()
        part = partition_lpt(g, {aid: 1.0 for aid in g.actors}, 1)
        assert set(part.assignment.values()) == {0}

    def test_balances_loads(self):
        g = _graph()
        costs = {aid: float(aid + 1) for aid in g.actors}
        part = partition_lpt(g, costs, 2)
        loads = _loads(g, part, costs)
        assert max(loads) - min(loads) <= max(costs.values())

    def test_heaviest_actor_first(self):
        g = _graph()
        heavy = g.actor_by_name("a").id
        costs = {aid: 1.0 for aid in g.actors}
        costs[heavy] = 100.0
        part = partition_lpt(g, costs, 2)
        # The heavy actor is alone-ish: its core has no other heavy work.
        heavy_core = part.assignment[heavy]
        others = [aid for aid, core in part.assignment.items()
                  if core == heavy_core and aid != heavy]
        assert len(others) <= 1

    def test_deterministic(self):
        g = _graph()
        costs = {aid: 1.0 for aid in g.actors}
        assert (partition_lpt(g, costs, 2).assignment
                == partition_lpt(g, costs, 2).assignment)


class TestContiguous:
    def test_topological_slices(self):
        g = _graph()
        costs = {aid: 1.0 for aid in g.actors}
        part = partition_contiguous(g, costs, 2)
        order = g.topological_order()
        cores = [part.assignment[aid] for aid in order]
        assert cores == sorted(cores)  # non-decreasing along the pipeline

    def test_uses_all_cores_when_enough_work(self):
        g = _graph()
        costs = {aid: 10.0 for aid in g.actors}
        part = partition_contiguous(g, costs, 2)
        assert set(part.assignment.values()) == {0, 1}


PARTITIONERS = [partition_lpt, partition_contiguous]
_IDS = ["lpt", "contiguous"]


class TestEdgeCases:
    """Contract edge cases shared by every partitioner."""

    @pytest.mark.parametrize("partitioner", PARTITIONERS, ids=_IDS)
    def test_zero_cores_rejected(self, partitioner):
        g = _graph()
        costs = {aid: 1.0 for aid in g.actors}
        with pytest.raises(ValueError):
            partitioner(g, costs, 0)
        with pytest.raises(ValueError):
            partitioner(g, costs, -3)

    @pytest.mark.parametrize("partitioner", PARTITIONERS, ids=_IDS)
    def test_more_cores_than_actors(self, partitioner):
        g = _graph()
        costs = {aid: 1.0 for aid in g.actors}
        cores = len(g.actors) + 5
        part = partitioner(g, costs, cores)
        assert set(part.assignment) == set(g.actors)
        assert all(0 <= core < cores for core in part.assignment.values())
        # Trailing cores stay empty but still report a (zero) load.
        assert len(_loads(g, part, costs)) == cores

    @pytest.mark.parametrize("partitioner", PARTITIONERS, ids=_IDS)
    def test_all_zero_costs(self, partitioner):
        g = _graph()
        costs = {aid: 0.0 for aid in g.actors}
        part = partitioner(g, costs, 2)
        assert set(part.assignment) == set(g.actors)
        assert all(core in (0, 1) for core in part.assignment.values())

    @pytest.mark.parametrize("partitioner", PARTITIONERS, ids=_IDS)
    def test_missing_costs_treated_as_zero(self, partitioner):
        g = _graph()
        part = partitioner(g, {}, 2)
        assert set(part.assignment) == set(g.actors)


class TestProperties:
    """Hypothesis: total assignment + in-range cores for arbitrary cost
    maps and core counts (the invariants the parallel runtime's partition
    normalisation relies on)."""

    @pytest.mark.parametrize("partitioner", PARTITIONERS, ids=_IDS)
    @settings(max_examples=30, deadline=None)
    @given(data=st.data(),
           cores=st.integers(min_value=1, max_value=6))
    def test_total_in_range_assignment(self, partitioner, data, cores):
        g = _graph()
        costs = {aid: data.draw(st.floats(min_value=0.0, max_value=1e6,
                                          allow_nan=False),
                                label=f"cost[{aid}]")
                 for aid in g.actors}
        part = partitioner(g, costs, cores)
        assert set(part.assignment) == set(g.actors)  # total
        assert all(0 <= core < cores
                   for core in part.assignment.values())  # in range
        assert part.cores == cores
        loads = _loads(g, part, costs)
        assert len(loads) == cores
        assert sum(loads) == pytest.approx(sum(costs.values()))
