"""Channel stall-timeout diagnostics surfaced through ``execute`` and
``macross run --cores``: a timed-out stall must say *which* channel
stalled, on *which* side, at what occupancy."""

from __future__ import annotations

import time

import pytest

from repro.multicore.channels import Channel, ChannelStallTimeout
from repro.multicore.parallel import parallel_execute
from repro.runtime import execute
from repro.simd.machine import CORE_I7

from ..conftest import HookedBackend, linear_program, make_ramp_source, \
    make_scaler


class TestChannelLevel:
    def test_push_timeout_carries_structured_diagnostics(self):
        channel = Channel("tape7", capacity=2, stall_timeout=0.02)
        channel.push(1.0)
        channel.push(2.0)
        with pytest.raises(ChannelStallTimeout) as info:
            channel.push(3.0)
        exc = info.value
        assert exc.channel == "tape7"
        assert exc.side == "push"
        assert exc.occupancy == 2
        assert exc.capacity == 2
        assert exc.needed == 1
        assert exc.timeout_s == pytest.approx(0.02)
        assert "tape7" in str(exc) and "push side" in str(exc)

    def test_pop_timeout_names_the_pop_side(self):
        channel = Channel("tape9", capacity=4, stall_timeout=0.02)
        with pytest.raises(ChannelStallTimeout) as info:
            channel.pop()
        exc = info.value
        assert exc.channel == "tape9"
        assert exc.side == "pop"
        assert exc.occupancy == 0
        assert exc.needed == 1


def _sleepy_backend(slow: str, delay_s: float) -> HookedBackend:
    """Fault injector: the filter named ``slow`` sleeps ``delay_s``
    before every firing."""
    def hook(actor_id, name):
        if name == slow:
            time.sleep(delay_s)
    return HookedBackend(hook)


class TestRuntimeLevel:
    def _stalling_graph(self):
        return linear_program(make_ramp_source(4),
                              make_scaler(name="slow", pop=4))

    def test_parallel_run_surfaces_stalled_channel(self):
        """A consumer slowed far beyond the stall timeout deadlocks the
        producer's bounded channel; the structured exception reaches the
        caller with the channel identity intact."""
        graph = self._stalling_graph()
        actor_ids = sorted(graph.actors)
        partition = {actor_ids[0]: 0}
        partition.update({aid: 1 for aid in actor_ids[1:]})
        with pytest.raises(ChannelStallTimeout) as info:
            parallel_execute(graph, machine=CORE_I7, iterations=32,
                             cores=2, partition=partition,
                             stall_timeout=0.05,
                             backend=_sleepy_backend("slow", 0.5))
        exc = info.value
        assert exc.side in ("push", "pop")
        assert exc.channel.startswith("tape")
        assert exc.capacity >= 1
        assert exc.timeout_s == pytest.approx(0.05)

    def test_execute_forwards_stall_timeout(self):
        """The ``execute(..., cores=N)`` front door forwards the timeout
        to the parallel runtime."""
        graph = self._stalling_graph()
        actor_ids = sorted(graph.actors)

        def split(graph_, costs, cores):
            mapping = {actor_ids[0]: 0}
            mapping.update({aid: 1 for aid in actor_ids[1:]})
            return mapping

        with pytest.raises(ChannelStallTimeout):
            execute(graph, machine=CORE_I7, iterations=32, cores=2,
                    partitioner=split, stall_timeout=0.05,
                    backend=_sleepy_backend("slow", 0.5))

    def test_generous_timeout_does_not_fire(self):
        graph = self._stalling_graph()
        result = execute(graph, machine=CORE_I7, iterations=3, cores=2,
                         stall_timeout=30.0)
        assert len(result.outputs) > 0
