"""Failure-injection tests: broken schedules, corrupted graphs, and rate
lies must fail loudly, never silently corrupt the stream."""

import pytest

from repro.graph import FilterSpec, StreamGraph, duplicate_splitter
from repro.ir import WorkBuilder
from repro.runtime import execute
from repro.runtime.errors import StreamRuntimeError, TapeUnderflow
from repro.schedule import RateError, Schedule, build_schedule, repetition_vector

from ..conftest import linear_program, make_pair_sum, make_ramp_source, make_scaler


class TestScheduleSabotage:
    def _graph(self):
        return linear_program(make_ramp_source(2), make_pair_sum())

    def test_consumer_scheduled_before_producer_underflows(self):
        g = self._graph()
        good = build_schedule(g)
        sabotaged = Schedule(good.init, tuple(reversed(good.steady)),
                             good.reps)
        with pytest.raises(TapeUnderflow):
            execute(g, sabotaged, iterations=1)

    def test_overcounted_consumer_underflows(self):
        g = self._graph()
        good = build_schedule(g)
        reps = dict(good.reps)
        consumer = g.actor_by_name("pairsum").id
        steady = tuple((aid, count * 2 if aid == consumer else count)
                       for aid, count in good.steady)
        with pytest.raises(TapeUnderflow):
            execute(g, Schedule(good.init, steady, reps), iterations=1)

    def test_unbalanced_reps_rejected_before_execution(self):
        g = self._graph()
        reps = repetition_vector(g)
        reps[g.actor_by_name("src").id] += 1
        with pytest.raises(RateError):
            build_schedule(g, reps)


class TestLyingRates:
    def test_actor_that_pops_more_than_declared(self):
        """A body popping more than its declared rate underflows at run
        time (validation would reject it statically, too)."""
        b = WorkBuilder()
        b.push(b.pop() + b.pop())  # declares pop=1 below: a lie
        liar = FilterSpec("liar", pop=1, push=1, work_body=b.build())
        g = linear_program(make_ramp_source(1), liar)
        with pytest.raises(TapeUnderflow):
            execute(g, iterations=4)

    def test_validation_catches_the_same_lie(self):
        from repro.graph import collect_problems
        b = WorkBuilder()
        b.push(b.pop() + b.pop())
        liar = FilterSpec("liar", pop=1, push=1, work_body=b.build())
        g = linear_program(make_ramp_source(1), liar)
        assert any("pops 2" in p for p in collect_problems(g))


class TestGraphSabotage:
    def test_two_dangling_outputs_rejected(self):
        g = StreamGraph()
        a = g.add_actor(make_ramp_source(2, name="a"))
        b = g.add_actor(make_ramp_source(2, name="b"))
        with pytest.raises(StreamRuntimeError):
            execute(g, iterations=1)

    def test_two_pushing_terminal_filters_rejected(self):
        """A connected graph whose splitter feeds two pushing filters
        with no consumer has two outputs: the run refuses to pick one."""
        g = StreamGraph()
        src = g.add_actor(make_ramp_source(2))
        split = g.add_actor(duplicate_splitter(2))
        g.add_tape(src.id, split.id)
        for port, name in enumerate(("left", "right")):
            leaf = g.add_actor(make_scaler(name=name))
            g.add_tape(split.id, leaf.id, src_port=port)
        assert len(g.output_actors()) == 2
        with pytest.raises(StreamRuntimeError,
                           match="multiple dangling outputs"):
            execute(g, iterations=1)

    def test_disconnected_components_run_independently(self):
        """One source + one full pipeline: the lone source just runs."""
        g = linear_program(make_ramp_source(2), make_scaler())
        # fine as-is; nothing to assert beyond no crash and output
        outputs = execute(g, iterations=1).outputs
        assert outputs == [0.0, 2.0]
