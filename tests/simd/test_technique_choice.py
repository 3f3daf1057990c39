"""Tests for the vertical-vs-horizontal cost-model arbitration (§3.5)."""

import dataclasses

import pytest

from repro.apps.running_example import build
from repro.graph import (
    FilterSpec,
    Program,
    flatten,
    pipeline,
    roundrobin_joiner,
    roundrobin_splitter,
    splitjoin,
)
from repro.ir import WorkBuilder
from repro.perf import events as ev
from repro.runtime import execute
from repro.schedule import repetition_vector
from repro.simd import compile_graph
from repro.simd.machine import CORE_I7
from repro.simd.segments import find_horizontal_candidates
from repro.simd.technique_choice import (
    horizontal_cost,
    prefer_horizontal,
    vertical_cost,
)

from ..conftest import make_ramp_source


def _gain(value: float, name: str) -> FilterSpec:
    b = WorkBuilder()
    b.push(b.pop() * value)
    return FilterSpec(name, pop=1, push=1, work_body=b.build())


def _deep_chain_graph(depth: int):
    """Width-4 split-join of depth-N trivial isomorphic gain chains."""
    branches = [
        pipeline(*[_gain(1.0 + branch, f"g{branch}_{level}")
                   for level in range(depth)])
        for branch in range(4)
    ]
    tail = _gain(1.0, "tail")
    return flatten(Program("deep", pipeline(
        make_ramp_source(4),
        splitjoin(roundrobin_splitter([1, 1, 1, 1]), branches,
                  roundrobin_joiner([1, 1, 1, 1])),
        tail,
    )))


class TestArbitration:
    def test_stateful_levels_force_horizontal(self):
        g = flatten(build())
        (candidate,) = find_horizontal_candidates(g, CORE_I7)
        reps = repetition_vector(g)
        # C actors are stateful: horizontal without a cost comparison.
        assert prefer_horizontal(g, candidate, reps, CORE_I7)

    def test_shallow_stateless_splitjoin_prefers_horizontal(self):
        g = _deep_chain_graph(depth=2)
        (candidate,) = find_horizontal_candidates(g, CORE_I7)
        reps = repetition_vector(g)
        assert prefer_horizontal(g, candidate, reps, CORE_I7)

    def test_deep_trivial_chains_prefer_vertical(self):
        """Twelve trivial stages: the per-level tape traffic and firing
        overhead of twelve separate SIMD actors exceeds one fused coarse
        actor per branch."""
        g = _deep_chain_graph(depth=12)
        (candidate,) = find_horizontal_candidates(g, CORE_I7)
        reps = repetition_vector(g)
        assert not prefer_horizontal(g, candidate, reps, CORE_I7)

    def test_cost_functions_positive_and_ordered(self):
        g = _deep_chain_graph(depth=12)
        (candidate,) = find_horizontal_candidates(g, CORE_I7)
        reps = repetition_vector(g)
        ch = horizontal_cost(g, candidate, reps, CORE_I7)
        cv = vertical_cost(g, candidate, reps, CORE_I7)
        assert 0 < cv < ch

    def test_unpriceable_side_forces_horizontal(self):
        """A target that cannot price a pack cannot price the horizontal
        side; the arbiter then leaves the decision to horizontal (which
        falls back to scalar if it fails) rather than picking vertical."""
        g = _deep_chain_graph(depth=12)
        (candidate,) = find_horizontal_candidates(g, CORE_I7)
        reps = repetition_vector(g)
        no_pack = dataclasses.replace(
            CORE_I7, prices={event: price for event, price
                             in CORE_I7.prices.items() if event != ev.PACK})
        assert not prefer_horizontal(g, candidate, reps, CORE_I7)
        assert prefer_horizontal(g, candidate, reps, no_pack)


class TestEndToEnd:
    def test_vertical_choice_recorded_and_correct(self):
        g = _deep_chain_graph(depth=12)
        baseline = execute(g, iterations=4).outputs
        compiled = compile_graph(g, CORE_I7)
        assert any("cost model chose vertical" in s
                   for s in compiled.report.skipped_horizontal)
        assert compiled.report.vertical_segments  # branches fused instead
        outputs = execute(compiled.graph, machine=CORE_I7,
                          iterations=1).outputs
        n = min(len(baseline), len(outputs))
        assert outputs[:n] == baseline[:n]

    def test_horizontal_choice_on_running_example_unchanged(self):
        g = flatten(build())
        compiled = compile_graph(g, CORE_I7)
        assert compiled.report.decisions["B0"] == "horizontal"
        assert not compiled.report.skipped_horizontal
