"""The memory-vs-makespan Pareto explorer: monotone fronts, no dominated
points, typed feasibility errors."""

from __future__ import annotations

import pytest

from repro.experiments.harness import DEFAULT_BENCHMARKS, scalar_graph
from repro.plan import (
    InfeasiblePlanError,
    build_plan_context,
    evaluate_partition,
    pareto_front,
)

_CTX_CACHE = {}


def _ctx(app, target="i7"):
    key = (app, target)
    if key not in _CTX_CACHE:
        _CTX_CACHE[key] = build_plan_context(scalar_graph(app), target)
    return _CTX_CACHE[key]


@pytest.mark.parametrize("app", DEFAULT_BENCHMARKS)
class TestFrontShape:
    def test_front_is_strictly_monotone(self, app):
        """Makespan strictly increasing, memory strictly decreasing —
        i.e. no dominated and no duplicate points survive the filter."""
        front = pareto_front(_ctx(app), 4, points=6)
        assert front, "front must never be empty"
        for prev, cur in zip(front, front[1:]):
            assert cur.makespan > prev.makespan
            assert cur.memory_items < prev.memory_items

    def test_no_point_dominates_another(self, app):
        front = pareto_front(_ctx(app), 4, points=6)
        for a in front:
            for b in front:
                if a is b:
                    continue
                dominates = (a.makespan <= b.makespan
                             and a.memory_items <= b.memory_items)
                assert not dominates

    def test_front_ends_at_zero_memory_serial_anchor(self, app):
        front = pareto_front(_ctx(app), 4, points=6)
        assert front[-1].memory_items == 0
        assert not front[-1].evaluation.cut_tapes

    def test_points_price_consistently_with_evaluate(self, app):
        """Every front point's numbers re-derive from its partition."""
        ctx = _ctx(app)
        for pt in pareto_front(ctx, 4, points=4):
            ev = evaluate_partition(ctx, pt.partition)
            assert ev.makespan == pytest.approx(pt.makespan)
            assert ev.memory_items == pt.memory_items


class TestFrontSize:
    @pytest.mark.parametrize("app", DEFAULT_BENCHMARKS)
    def test_at_least_three_points_on_i7(self, app):
        """Acceptance bar: every app's i7 front offers at least three
        distinct memory-vs-throughput trade-offs."""
        front = pareto_front(_ctx(app), 4, points=6)
        assert len(front) >= 3

    def test_more_points_refine_not_degrade(self):
        ctx = _ctx("FFT")
        coarse = pareto_front(ctx, 4, points=2)
        fine = pareto_front(ctx, 4, points=8)
        assert len(fine) >= len(coarse)
        # Anchors agree regardless of sweep resolution.
        assert fine[0].makespan == pytest.approx(coarse[0].makespan)
        assert fine[-1].memory_items == coarse[-1].memory_items == 0


class TestErrors:
    def test_negative_points_is_typed(self):
        with pytest.raises(InfeasiblePlanError):
            pareto_front(_ctx("DCT"), 4, points=-1)

    def test_single_core_front_is_one_serial_point(self):
        front = pareto_front(_ctx("DCT"), 1, points=4)
        assert len(front) == 1
        assert front[0].memory_items == 0
