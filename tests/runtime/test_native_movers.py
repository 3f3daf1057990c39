"""Direct tests of the native splitter/joiner/HSplitter/HJoiner firing
paths (usually exercised only through whole-graph runs).

The first two classes pin the interpreter-backend reference
(``executor._fire_*``) by hand.  :class:`TestMoverMatrix` then holds the
two forms derived from the lane map of :mod:`repro.runtime.movers` — the
compiled per-firing closure and the vector ``n``-firing batch closure —
to that reference on every shape, tape class and payload kind.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.runtime.movers as movers_mod
from repro.graph import FilterSpec, StreamGraph
from repro.graph.builtins import (
    HJoinerSpec,
    HSplitterSpec,
    SplitKind,
    duplicate_splitter,
    roundrobin_joiner,
    roundrobin_splitter,
)
from repro.ir import WorkBuilder
from repro.runtime.executor import _GraphRun, _make_tapes
from repro.runtime.tape import HAVE_NUMPY, NdTape, Tape
from repro.schedule import Schedule
from repro.simd.machine import CORE_I7, CORE_I7_SAGU

from ..conftest import make_ramp_source, make_scaler


def _run_for(graph):
    reps = {aid: 1 for aid in graph.actors}
    return _GraphRun(graph, Schedule((), tuple(), reps), CORE_I7, "interp",
                     _make_tapes(graph, "interp"), graph.actors)


class TestRoundRobinMovers:
    def _graph(self):
        g = StreamGraph("movers")
        src = g.add_actor(make_ramp_source(8, name="src"))
        split = g.add_actor(roundrobin_splitter([2, 2]))
        a = g.add_actor(make_scaler(name="a"))
        b = g.add_actor(make_scaler(name="b"))
        join = g.add_actor(roundrobin_joiner([2, 2]))
        tail = g.add_actor(make_scaler(name="tail"))
        g.add_tape(src.id, split.id)
        g.add_tape(split.id, a.id, src_port=0)
        g.add_tape(split.id, b.id, src_port=1)
        g.add_tape(a.id, join.id, dst_port=0)
        g.add_tape(b.id, join.id, dst_port=1)
        g.add_tape(join.id, tail.id)
        return g, src, split, a, b, join

    def test_splitter_distributes_in_weight_chunks(self):
        g, src, split, a, b, join = self._graph()
        run = _run_for(g)
        run.fire(src.id)
        run.fire(split.id)
        tape_to_a = [t for t in g.out_tapes(split.id) if t.dst == a.id][0]
        tape_to_b = [t for t in g.out_tapes(split.id) if t.dst == b.id][0]
        assert run.tapes[tape_to_a.id].drain() == [0.0, 1.0]
        assert run.tapes[tape_to_b.id].drain() == [2.0, 3.0]

    def test_joiner_merges_in_weight_chunks(self):
        g, src, split, a, b, join = self._graph()
        run = _run_for(g)
        in_a = [t for t in g.in_tapes(join.id) if t.dst_port == 0][0]
        in_b = [t for t in g.in_tapes(join.id) if t.dst_port == 1][0]
        for v in (10, 11):
            run.tapes[in_a.id].push(v)
        for v in (20, 21):
            run.tapes[in_b.id].push(v)
        run.fire(join.id)
        out = g.out_tapes(join.id)[0]
        assert run.tapes[out.id].drain() == [10, 11, 20, 21]


class TestHorizontalMovers:
    def _hgraph(self, kind=SplitKind.ROUNDROBIN, weight=2):
        g = StreamGraph("h")
        src = g.add_actor(make_ramp_source(8, name="src"))
        hsplit = g.add_actor(HSplitterSpec(kind, weight, 4))
        hjoin = g.add_actor(HJoinerSpec(weight, 4))
        tail = g.add_actor(make_scaler(name="tail"))
        g.add_tape(src.id, hsplit.id)
        g.add_tape(hsplit.id, hjoin.id, vector_width=4)
        g.add_tape(hjoin.id, tail.id)
        return g, src, hsplit, hjoin

    def test_rr_hsplitter_packs_lane_per_branch(self):
        g, src, hsplit, hjoin = self._hgraph()
        run = _run_for(g)
        run.fire(src.id)
        run.fire(hsplit.id)
        vec_tape = g.out_tapes(hsplit.id)[0]
        vectors = run.tapes[vec_tape.id].drain()
        # weight=2: items [0,1] -> branch0, [2,3] -> branch1, ...
        assert vectors == [[0.0, 2.0, 4.0, 6.0], [1.0, 3.0, 5.0, 7.0]]

    def test_hsplit_hjoin_roundtrip_is_identity(self):
        g, src, hsplit, hjoin = self._hgraph()
        run = _run_for(g)
        run.fire(src.id)
        run.fire(hsplit.id)
        run.fire(hjoin.id)
        out = g.out_tapes(hjoin.id)[0]
        assert run.tapes[out.id].drain() == [float(i) for i in range(8)]

    def test_duplicate_hsplitter_splats(self):
        g, src, hsplit, hjoin = self._hgraph(SplitKind.DUPLICATE, weight=1)
        run = _run_for(g)
        run.fire(src.id)
        run.fire(hsplit.id)
        vec_tape = g.out_tapes(hsplit.id)[0]
        assert run.tapes[vec_tape.id].pop() == [0.0, 0.0, 0.0, 0.0]

    def test_mover_events_charged(self):
        g, src, hsplit, hjoin = self._hgraph()
        run = _run_for(g)
        run.fire(src.id)
        run.fire(hsplit.id)
        counters = run.counters.by_actor[hsplit.id]
        assert counters["pack"] == 8
        assert counters["v_store"] == 2
        assert counters["s_load"] == 8


# ==============================================================================
# The mover matrix: derived forms vs the reference
# ==============================================================================

needs_numpy = pytest.mark.skipif(not HAVE_NUMPY, reason="needs numpy")

BACKENDS = ["interp", "compiled", pytest.param("vector", marks=needs_numpy)]
TAPES = [Tape, pytest.param(NdTape, marks=needs_numpy)]
SHAPES = ["split_dup", "split_rr", "join", "join_dangling",
          "hsplit_dup", "hsplit_rr", "hjoin", "hjoin_dangling"]

weights_st = st.lists(st.integers(0, 3), min_size=1, max_size=3).filter(sum)
scalars_st = {
    "int": st.integers(-9, 9),
    "float": st.floats(-4, 4, allow_nan=False).map(lambda x: round(x, 2)),
    "mixed": st.one_of(st.integers(-9, 9), st.just(0.5), st.just(-1.25)),
}


def _sink(name):
    b = WorkBuilder()
    b.let("x", b.pop())
    return FilterSpec(name, pop=1, push=0, work_body=b.build())


def _draw_spec(draw, shape):
    """(spec, payload kind, dangling) for one drawn instance of ``shape``."""
    width = draw(st.sampled_from([2, 4, 8]))
    weight = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["int", "float", "mixed"]))
    if shape == "split_dup":
        spec = duplicate_splitter(draw(st.integers(1, 3)))
    elif shape == "split_rr":
        spec = roundrobin_splitter(draw(weights_st))
    elif shape.startswith("join"):
        spec = roundrobin_joiner(draw(weights_st))
    elif shape == "hsplit_dup":
        return HSplitterSpec(SplitKind.DUPLICATE, weight, width), kind, False
    elif shape == "hsplit_rr":
        return HSplitterSpec(SplitKind.ROUNDROBIN, weight, width), kind, False
    else:
        return (HJoinerSpec(weight, width), f"vector{width}:{kind}",
                shape.endswith("dangling"))
    # Plain movers carry vector items (horizontal regions) as opaque elements.
    if draw(st.booleans()):
        kind = f"vector{width}:{kind}"
    return spec, kind, shape.endswith("dangling")


def _mover_graph(spec, dangling=False):
    """``spec`` with a source on every input port and (unless ``dangling``)
    a sink on every output port."""
    m = movers_mod.mover_map(spec)
    g = StreamGraph("matrix")
    mover = g.add_actor(spec)
    for port in range(len(m.pops)):
        src = g.add_actor(make_ramp_source(1, name=f"in{port}"))
        g.add_tape(src.id, mover.id, dst_port=port)
    if not dangling:
        for port in range(len(m.pushes)):
            dst = g.add_actor(_sink(f"out{port}"))
            g.add_tape(mover.id, dst.id, src_port=port)
    return g, mover, m


def _payload(draw, kind, count):
    if kind.startswith("vector"):
        width, lane_kind = kind[len("vector"):].split(":")
        return draw(st.lists(
            st.lists(scalars_st[lane_kind], min_size=int(width),
                     max_size=int(width)),
            min_size=count, max_size=count))
    return draw(st.lists(scalars_st[kind], min_size=count, max_size=count))


def _typed(item):
    """Value plus exact Python type, lane by lane for vectors."""
    if isinstance(item, list):
        return [_typed(lane) for lane in item]
    return (type(item), item)


def _mover_run(graph, mover, machine, backend, tape_cls, inputs):
    tapes = {tid: tape_cls(f"tape{tid}") for tid in graph.tapes}
    run = _GraphRun(graph, Schedule((), (), {a: 1 for a in graph.actors}),
                    machine, backend, tapes, [mover.id])
    for edge in graph.in_tapes(mover.id):
        for item in inputs[edge.dst_port]:
            tapes[edge.id].push(list(item) if isinstance(item, list)
                                else item)
    return run


def _nd_kind(item):
    """The kind of ``NdTape`` that holds ``item`` without degrading, or
    ``None``: a vector is a row only when every lane is a float."""
    if isinstance(item, list):
        return "vector" if all(type(x) is float for x in item) else None
    return type(item).__name__


def _batches(backend, tape_cls, m, inputs):
    """Whether the vector backend's batch closure takes the batched path:
    ndarray windows only — the tapes are ``NdTape``, each non-empty input
    holds one kind — and every packed lane is a float."""
    if backend != "vector" or tape_cls is not NdTape:
        return False
    for items in inputs:
        kinds = {_nd_kind(x) for x in items}
        if len(kinds) > 1 or None in kinds:
            return False
        if m.out_width > 1 and kinds - {"float"}:
            return False
    return True


def _observed(run, mover):
    return ({tid: [_typed(x) for x in tape.drain()]
             for tid, tape in run.tapes.items()},
            +run.counters.for_actor(mover.id).events)


def _fire_n(run, mover, n):
    """Fire ``n`` times the way the executor would; returns whether a
    batch closure ran the batched path."""
    batch = run.batch_fns.get(mover.id)
    if batch is not None:
        return batch(n)
    for _ in range(n):
        run.fire(mover.id)
    return False


class TestMoverMatrix:
    @pytest.mark.parametrize("n", [1, 3, 17])
    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("tape_cls", TAPES)
    @pytest.mark.parametrize("backend", BACKENDS)
    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_matches_reference(self, backend, tape_cls, shape, n, data):
        draw = data.draw
        spec, kind, dangling = _draw_spec(draw, shape)
        graph, mover, m = _mover_graph(spec, dangling)
        for edge in graph.tapes.values():
            edge.lane_ordered = draw(st.booleans())
        machine = draw(st.sampled_from([CORE_I7, CORE_I7_SAGU]))
        inputs = [_payload(draw, kind, n * rate) for rate in m.pops]
        ref = _mover_run(graph, mover, machine, "interp", Tape, inputs)
        dut = _mover_run(graph, mover, machine, backend, tape_cls, inputs)
        assert (mover.id in dut.batch_fns) == (backend == "vector")
        _fire_n(ref, mover, n)
        assert _fire_n(dut, mover, n) == _batches(backend, tape_cls, m,
                                                  inputs)
        assert _observed(dut, mover) == _observed(ref, mover)

    @needs_numpy
    @pytest.mark.parametrize("tape_cls", TAPES)
    @pytest.mark.parametrize("n", [3, 17])
    def test_short_window_refires_and_matches(self, tape_cls, n):
        """A feedback joiner whose second input is its own output never
        holds ``n`` firings' worth of window: the batch closure must hand
        the batch back per firing, report ``False``, and still match."""
        g = StreamGraph("feedback")
        join = g.add_actor(roundrobin_joiner([1, 1]))
        src = g.add_actor(make_ramp_source(1, name="src"))
        g.add_tape(src.id, join.id, dst_port=0)
        loop = g.add_tape(join.id, join.id, dst_port=1)
        inputs = [[float(i) for i in range(n)], [7]]
        ref = _mover_run(g, join, CORE_I7, "interp", Tape, inputs)
        dut = _mover_run(g, join, CORE_I7, "vector", tape_cls, inputs)
        _fire_n(ref, join, n)
        assert _fire_n(dut, join, n) is False
        assert len(dut.tapes[loop.id]) == n + 1
        assert _observed(dut, join) == _observed(ref, join)

    @needs_numpy
    def test_unknown_tape_subclass_refires_and_matches(self):
        class OddTape(Tape):
            __slots__ = ()

        g, split, _ = _mover_graph(roundrobin_splitter([2, 1]))
        inputs = [[float(i) for i in range(9)]]
        ref = _mover_run(g, split, CORE_I7, "interp", Tape, inputs)
        dut = _mover_run(g, split, CORE_I7, "vector", OddTape, inputs)
        _fire_n(ref, split, 3)
        assert _fire_n(dut, split, 3) is False
        assert _observed(dut, split) == _observed(ref, split)

    @pytest.mark.parametrize("backend", BACKENDS[1:])
    def test_armed_shift_is_killed(self, backend, monkeypatch):
        """``_MUT_MOVER_SHIFT`` rotates the one map both derived forms are
        built from; the matrix's comparison must see it.  The vector
        backend's derived form is its batch closure (it replays a refused
        batch on the reference), so its tapes are ``NdTape``s."""
        monkeypatch.setattr(movers_mod, "_MUT_MOVER_SHIFT", 1)
        tape_cls = NdTape if backend == "vector" else Tape
        killed = 0
        for spec in (roundrobin_splitter([2, 1]), roundrobin_joiner([1, 2]),
                     HSplitterSpec(SplitKind.ROUNDROBIN, 2, 4),
                     HJoinerSpec(2, 4)):
            g, mover, m = _mover_graph(spec)
            ramp = iter(range(1000))
            inputs = [[[float(next(ramp)) for _ in range(4)]
                       if isinstance(spec, HJoinerSpec) else float(next(ramp))
                       for _ in range(3 * rate)] for rate in m.pops]
            ref = _mover_run(g, mover, CORE_I7, "interp", Tape, inputs)
            dut = _mover_run(g, mover, CORE_I7, backend, tape_cls, inputs)
            _fire_n(ref, mover, 3)
            assert _fire_n(dut, mover, 3) == (backend == "vector")
            killed += _observed(dut, mover) != _observed(ref, mover)
        assert killed == 4
