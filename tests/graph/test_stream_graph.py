"""Tests for the flat StreamGraph container."""

import pytest

from repro.graph import (
    FilterSpec,
    GraphError,
    StreamGraph,
    duplicate_splitter,
    roundrobin_joiner,
)

from ..conftest import make_pair_sum, make_ramp_source, make_scaler


def _chain_graph():
    g = StreamGraph("chain")
    a = g.add_actor(make_ramp_source(4))
    b = g.add_actor(make_scaler())
    c = g.add_actor(make_pair_sum())
    g.add_tape(a.id, b.id)
    g.add_tape(b.id, c.id)
    return g, a, b, c


class TestConstruction:
    def test_unique_names(self):
        g = StreamGraph()
        first = g.add_actor(make_scaler(name="f"))
        second = g.add_actor(make_scaler(name="f"))
        assert first.name == "f"
        assert second.name == "f_1"

    def test_tape_endpoints_must_exist(self):
        g = StreamGraph()
        a = g.add_actor(make_scaler())
        with pytest.raises(GraphError):
            g.add_tape(a.id, 999)

    def test_remove_actor_with_tapes_rejected(self):
        g, a, b, c = _chain_graph()
        with pytest.raises(GraphError):
            g.remove_actor(b.id)

    def test_remove_after_detach(self):
        g, a, b, c = _chain_graph()
        for tape in list(g.tapes.values()):
            g.remove_tape(tape.id)
        g.remove_actor(b.id)
        assert b.id not in g.actors


class TestQueries:
    def test_in_out_tapes(self):
        g, a, b, c = _chain_graph()
        assert [t.src for t in g.in_tapes(b.id)] == [a.id]
        assert [t.dst for t in g.out_tapes(b.id)] == [c.id]

    def test_single_input_output_helpers(self):
        g, a, b, c = _chain_graph()
        assert g.input_tape(a.id) is None
        assert g.output_tape(c.id) is None
        assert g.input_tape(b.id).src == a.id

    def test_predecessors_successors(self):
        g, a, b, c = _chain_graph()
        assert g.predecessors(c.id) == [b.id]
        assert g.successors(a.id) == [b.id]

    def test_sources_and_terminals(self):
        g, a, b, c = _chain_graph()
        assert [x.id for x in g.sources()] == [a.id]
        assert [x.id for x in g.output_actors()] == [c.id]

    def test_output_actors_skip_sinks_and_movers(self):
        """A terminal filter that pushes nothing, and a terminal splitter,
        produce no output."""
        g, a, b, c = _chain_graph()
        sink = g.add_actor(FilterSpec("sink", pop=1, push=0))
        split = g.add_actor(duplicate_splitter(2))
        g.add_tape(b.id, sink.id)
        g.add_tape(a.id, split.id)
        assert [x.id for x in g.output_actors()] == [c.id]

    def test_topological_order(self):
        g, a, b, c = _chain_graph()
        assert g.topological_order() == [a.id, b.id, c.id]

    def test_cycle_detection(self):
        g, a, b, c = _chain_graph()
        g.add_tape(c.id, b.id, dst_port=0)
        with pytest.raises(GraphError):
            g.topological_order()

    def test_actor_by_name(self):
        g, a, b, c = _chain_graph()
        assert g.actor_by_name("scale").id == b.id
        with pytest.raises(KeyError):
            g.actor_by_name("nope")


class TestRates:
    def test_filter_rates(self):
        g, a, b, c = _chain_graph()
        assert g.pop_rate(c.id) == 2
        assert g.push_rate(a.id) == 4
        assert g.peek_rate(c.id) == 2

    def test_splitter_joiner_rates(self):
        g = StreamGraph()
        s = g.add_actor(duplicate_splitter(3))
        j = g.add_actor(roundrobin_joiner([2, 2, 2]))
        assert g.pop_rate(s.id) == 1
        assert g.push_rate(s.id, 1) == 1
        assert g.pop_rate(j.id, 2) == 2
        assert g.push_rate(j.id) == 6


class TestClone:
    def test_clone_preserves_ids_and_structure(self):
        g, a, b, c = _chain_graph()
        clone = g.clone()
        assert set(clone.actors) == set(g.actors)
        assert set(clone.tapes) == set(g.tapes)
        assert clone.actors[b.id].spec is g.actors[b.id].spec

    def test_clone_is_independent(self):
        g, a, b, c = _chain_graph()
        clone = g.clone()
        for tape in list(clone.tapes.values()):
            clone.remove_tape(tape.id)
        assert len(g.tapes) == 2

    def test_clone_name_uniqueness_continues(self):
        g, *_ = _chain_graph()
        clone = g.clone()
        again = clone.add_actor(make_scaler(name="scale"))
        assert again.name != "scale"
