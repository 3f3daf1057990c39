"""Tests for Figure 13's makespan model: partitions priced by
:func:`repro.plan.evaluate_partition` per output item, pinned against a
sequential :func:`execute` of the same graph."""

import pytest

from repro.apps import get_benchmark
from repro.experiments.fig13 import multicore_speedups
from repro.graph import flatten
from repro.plan import (
    build_plan_context,
    evaluate_partition,
    partition_lpt,
    profile_actor_costs,
)
from repro.runtime import execute
from repro.simd.machine import CORE_I7

from ..conftest import linear_program, make_pair_sum, make_ramp_source, make_scaler


def _graph():
    return linear_program(make_ramp_source(8),
                          make_scaler(name="a", pop=4),
                          make_scaler(name="b", pop=4),
                          make_pair_sum())


def _price(graph, cores):
    """The scalar Figure 13 model: LPT over profiled costs, priced once
    (``evaluate_partition``) and its outputs per steady iteration."""
    ctx = build_plan_context(graph, CORE_I7)
    plan = evaluate_partition(ctx, partition_lpt(graph, ctx.costs, cores))
    return plan, ctx.outputs_per_iteration


class TestProfile:
    def test_costs_cover_all_actors(self):
        g = _graph()
        costs = profile_actor_costs(g, CORE_I7)
        assert set(costs) == set(g.actors)
        assert all(c >= 0 for c in costs.values())


class TestSimulation:
    def test_single_core_matches_total(self):
        g = _graph()
        plan, outputs = _price(g, 1)
        baseline = execute(g, machine=CORE_I7, iterations=2)
        assert len(baseline.outputs) == 2 * outputs
        expected = (baseline.steady_cycles(CORE_I7)
                    / len(baseline.outputs))
        assert plan.makespan / outputs == pytest.approx(expected)
        assert plan.comm_cycles == 0

    def test_two_cores_split_compute_heavy_load(self):
        g = flatten(get_benchmark("MP3Decoder"))
        one, _ = _price(g, 1)
        two, _ = _price(g, 2)
        assert two.makespan < one.makespan
        assert two.comm_cycles > 0

    def test_comm_heavy_graph_can_lose_on_two_cores(self):
        """Cache-line ping-pong makes fine-grained pipelines slower on two
        cores — the slowdown case §1 of the paper mentions."""
        g = _graph()
        one, _ = _price(g, 1)
        two, _ = _price(g, 2)
        assert two.comm_cycles > 0
        assert two.makespan > one.makespan

    def test_macro_simd_variant_faster(self):
        g = flatten(get_benchmark("DCT"))
        row = multicore_speedups(g, CORE_I7, [2])
        assert row["2c+simd"] > row["2c"]

    def test_core_loads_length(self):
        g = _graph()
        plan, _ = _price(g, 4)
        assert len(plan.core_loads) == 4
        assert max(plan.core_loads) <= plan.makespan + 1e-9


class TestFigure13Claims:
    def test_two_core_simd_beats_four_core_scalar(self):
        """The paper's headline Figure 13 claim, on a representative app."""
        g = flatten(get_benchmark("MP3Decoder"))
        row = multicore_speedups(g, CORE_I7, [2, 4])
        assert row["2c+simd"] >= row["4c"] * 0.95

    def test_speedups_increase_with_simd(self):
        g = flatten(get_benchmark("FilterBank"))
        row = multicore_speedups(g, CORE_I7, [2])
        assert row["2c+simd"] > row["2c"]
