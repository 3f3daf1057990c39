"""Partitioner contracts: total assignments, in-range cores, and the
all-zero-cost-map regression for contiguous slicing."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.plan import get_partitioner, list_partitioners, partition_contiguous
from repro.simd.machine import CORE_I7

from ..conftest import (
    linear_program,
    make_expander,
    make_pair_sum,
    make_ramp_source,
    make_scaler,
)


def _chain_graph(length: int):
    """A pipeline with ``length`` scalers behind the source."""
    stages = [make_scaler(name=f"s{i}") for i in range(length)]
    return linear_program(make_ramp_source(4), *stages)


GRAPHS = {
    "chain3": _chain_graph(3),
    "chain6": _chain_graph(6),
    "rates": linear_program(make_ramp_source(4), make_expander(),
                            make_scaler(), make_pair_sum()),
}


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(list_partitioners())),
       graph_key=st.sampled_from(sorted(GRAPHS)),
       cores=st.integers(min_value=1, max_value=6),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_partitioners_produce_total_inrange_assignments(name, graph_key,
                                                        cores, seed):
    """Property (all registered partitioners, seeded random cost maps):
    every actor is assigned exactly once and every core index lies in
    ``range(cores)`` — including zero, uniform, and wildly skewed costs."""
    graph = GRAPHS[graph_key]
    rng = random.Random(seed)
    mode = rng.choice(("zero", "uniform", "skewed"))
    if mode == "zero":
        costs = {aid: 0.0 for aid in graph.actors}
    elif mode == "uniform":
        costs = {aid: 100.0 for aid in graph.actors}
    else:
        costs = {aid: rng.choice((0.0, 1.0, 10.0, 1000.0))
                 for aid in graph.actors}
    part = get_partitioner(name, CORE_I7)(graph, costs, cores)
    assert set(part.assignment) == set(graph.actors)
    assert all(core in range(cores) for core in part.assignment.values())
    assert part.cores == cores


class TestContiguousZeroCostRegression:
    """The old rule (``acc >= target * (core+1)`` with target == 0) hopped
    to the next core after *every* actor, piling the pipeline's whole tail
    onto the last core."""

    def test_zero_costs_spread_evenly_by_count(self):
        graph = _chain_graph(7)  # 8 actors with the source
        costs = {aid: 0.0 for aid in graph.actors}
        part = partition_contiguous(graph, costs, 4)
        loads = [0] * 4
        for core in part.assignment.values():
            loads[core] += 1
        assert loads == [2, 2, 2, 2]

    def test_zero_costs_do_not_pile_tail_on_last_core(self):
        graph = _chain_graph(9)  # 10 actors
        costs = {aid: 0.0 for aid in graph.actors}
        part = partition_contiguous(graph, costs, 2)
        last_core_count = sum(1 for c in part.assignment.values() if c == 1)
        assert last_core_count == 5  # was 9 under the buggy rule

    def test_zero_costs_keep_slices_contiguous(self):
        graph = _chain_graph(5)
        costs = {aid: 0.0 for aid in graph.actors}
        part = partition_contiguous(graph, costs, 3)
        cores_in_order = [part.assignment[aid]
                          for aid in graph.ordered_actors()]
        assert cores_in_order == sorted(cores_in_order)

    def test_empty_cost_map_treated_as_zero(self):
        graph = _chain_graph(3)
        part = partition_contiguous(graph, {}, 2)
        assert set(part.assignment) == set(graph.actors)
        assert set(part.assignment.values()) == {0, 1}

    def test_more_cores_than_actors_zero_costs(self):
        graph = linear_program(make_ramp_source(4), make_scaler())
        costs = {aid: 0.0 for aid in graph.actors}
        part = partition_contiguous(graph, costs, 8)
        assert set(part.assignment) == set(graph.actors)
        assert all(c in range(8) for c in part.assignment.values())

    def test_nonzero_costs_unchanged(self):
        """The fix only touches the no-signal path: with real costs the
        cumulative-threshold slicing behaves as before."""
        graph = _chain_graph(3)
        order = graph.ordered_actors()
        costs = {aid: 10.0 for aid in order}
        part = partition_contiguous(graph, costs, 2)
        cores_in_order = [part.assignment[aid] for aid in order]
        assert cores_in_order == [0, 0, 1, 1]
