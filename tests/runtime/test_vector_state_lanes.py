"""The vector backend's three state lanes.

MacroSS SIMDizes stateful actors horizontally (§3.3); the batch-kernel
builder keeps their state exact three ways:

* **ring buffers** — a state array the body writes, indexed by constants
  or a ring cursor: every read is one gather over the batch-start
  contents and the written values, sourced from its slot's last writer;
* **the sequential scan** — a scalar state update outside the
  modular-affine class runs as one Python loop over precomputed operand
  columns with the interpreter's own callables;
* **the int64 lane** — bitwise operators on int columns, with ring ops
  exact modulo 2**64 until a constant mask makes them exact again.

Each lane must reproduce the interpreter's outputs, counter bags and
committed state at every batch size around the ring length, and refuse
(at build time) or abort (at batch time, committing nothing) whatever it
cannot prove exact.
"""

import copy

import pytest

np = pytest.importorskip("numpy")

from repro.apps.des import make_initial_permutation, make_round
from repro.apps.sources import checksum_sink
from repro.graph.actor import FilterSpec, StateVar
from repro.ir import FLOAT, INT, ArrayHandle, WorkBuilder, call, vector_of
from repro.perf.counters import PerActorCounters
from repro.runtime.interpreter import ActorRuntime, Interpreter
from repro.runtime.tape import NdTape
from repro.runtime.vector.kernel import Unvectorizable, build_batch_kernel

from ..conftest import vector_batch

#: Ring length of every ring below; batch sizes straddle it.
N = 4
SIZES = (1, N - 1, N, N + 1, 3 * N + 2)


def _runtime(state, data):
    """An actor runtime over ``NdTape``s, as the vector backend builds."""
    inp, out = NdTape("in"), NdTape("out")
    for item in data:
        inp.push(copy.deepcopy(item))
    return ActorRuntime(
        actor_id=0, simd_width=4, counters=PerActorCounters().for_actor(0),
        state=copy.deepcopy(state), input=inp, output=out)


def _interp(spec, state, data, n):
    rt = _runtime(state, data)
    interp = Interpreter(rt)
    for _ in range(n):
        interp.run_work(spec.work_body)
    return rt


def _assert_exact(spec, state, data, n, in_vector=False):
    """One ``n``-firing batch equals ``n`` interpreter firings: outputs
    (types and signs included), counter bags, state and input left.
    Vector items reach a kernel as the float64 rows of an ``NdTape``."""
    rt = _runtime(state, data)
    kernel = build_batch_kernel(rt, spec, in_vector)
    assert kernel.run(rt, n) is True
    ref = _interp(spec, state, data, n)
    assert repr(rt.output.drain()) == repr(ref.output.drain())
    assert dict(rt.counters.events) == dict(ref.counters.events)
    assert repr(rt.state) == repr(ref.state)
    assert len(rt.input) == len(ref.input)
    return kernel


def _vectors(count, seed=1.0):
    return [[seed * (k + 1) + 0.25 * lane for lane in range(4)]
            for k in range(count)]


def _floats(count):
    return [0.5 * k - 3.0 for k in range(count)]


# -- ring buffers ---------------------------------------------------------------

def _mic(width):
    """AudioBeam's ``Mic_h`` / RunningExample's ``C_h``: read the slot the
    cursor points at, then overwrite it — a delay of ``N`` firings."""
    b = WorkBuilder()
    hist, ph = ArrayHandle("hist"), b.var("ph")
    if width:
        b.vpush(hist[ph] * 2.0)
        b.set(hist[ph], b.vpop())
        elem = vector_of(FLOAT, width)
    else:
        b.push(hist[ph] * 2.0)
        b.set(hist[ph], b.pop())
        elem = FLOAT
    b.set(ph, (ph + 1) % N)
    return FilterSpec("mic", pop=1, push=1, work_body=b.build(),
                      state=(StateVar("hist", elem, N, 0.0),
                             StateVar("ph", INT, 0, 0)))


def _channel_fir():
    """BeamFormer's ``ChannelFIR_h``: two writes through the cursor, then
    constant-index reads of the whole ring."""
    b = WorkBuilder()
    hist, ph = ArrayHandle("hist"), b.var("ph")
    with b.loop("j", 0, 2):
        b.set(hist[ph], b.vpop())
        b.set(ph, (ph + 1) % N)
    acc = b.declare("acc", vector_of(FLOAT, 4))
    for t in range(N):
        b.set(acc, acc + hist[t] * (0.5 - 0.25 * t))
    b.vpush(acc)
    return FilterSpec("fir", pop=2, push=1, work_body=b.build(),
                      state=(StateVar("hist", vector_of(FLOAT, 4), N, 0.0),
                             StateVar("ph", INT, 0, 0)))


class TestRingLane:
    @pytest.mark.parametrize("n", SIZES)
    def test_vector_ring_read_before_write(self, n):
        state = {"hist": _vectors(N, seed=-1.5), "ph": 2}
        kernel = _assert_exact(_mic(4), state, _vectors(n), n,
                               in_vector=True)
        assert [r.name for r in kernel.rings] == ["hist"]

    @pytest.mark.parametrize("n", SIZES)
    def test_scalar_ring_read_before_write(self, n):
        state = {"hist": [1.5, -2.0, 0.25, -0.0], "ph": 1}
        _assert_exact(_mic(0), state, _floats(n), n)

    @pytest.mark.parametrize("n", SIZES)
    def test_reads_after_two_writes(self, n):
        state = {"hist": _vectors(N, seed=3.0), "ph": 3}
        _assert_exact(_channel_fir(), state, _vectors(2 * n), n,
                      in_vector=True)

    @pytest.mark.parametrize("n", SIZES)
    def test_int_ring_and_constant_slot(self, n):
        # An int ring: a write at a constant slot, a cursor read, a second
        # cursor write; int contents stay ints.
        b = WorkBuilder()
        buf, ph = ArrayHandle("buf"), b.var("ph")
        b.set(buf[0], b.pop())
        b.push(buf[ph] + b.pop())
        b.set(buf[(ph + 2) % N], b.pop() * 3)
        b.set(ph, (ph + 3) % N)
        spec = FilterSpec("iring", pop=3, push=1, data_type=INT,
                          work_body=b.build(),
                          state=(StateVar("buf", INT, N, 0),
                                 StateVar("ph", INT, 0, 0)))
        state = {"buf": [5, -3, 7, 11], "ph": 2}
        _assert_exact(spec, state, [k * 7 - 20 for k in range(3 * n)], n)

    def test_drifted_contents_replay_without_commit(self):
        spec = _mic(0)
        state = {"hist": [1.5, -2.0, 0.25, 4.0], "ph": 0}
        rt = _runtime(state, _floats(6))
        kernel = build_batch_kernel(rt, spec, False)
        rt.state["hist"][2] = 7             # an int among the floats
        assert kernel.run(rt, 6) is False
        assert len(rt.input) == 6 and len(rt.output) == 0
        assert rt.state["hist"] == [1.5, -2.0, 7, 4.0]

    def test_cursor_outside_the_ring_replays(self):
        # ph counts modulo 8 over a 4-slot ring: the fifth firing would
        # raise IndexError in the interpreter, so the batch aborts.
        b = WorkBuilder()
        hist, ph = ArrayHandle("hist"), b.var("ph")
        b.push(hist[ph])
        b.set(hist[ph], b.pop())
        b.set(ph, (ph + 1) % 8)
        spec = FilterSpec("wide", pop=1, push=1, work_body=b.build(),
                          state=(StateVar("hist", FLOAT, N, 0.0),
                                 StateVar("ph", INT, 0, 0)))
        state = {"hist": [0.0] * N, "ph": 0}
        rt = _runtime(state, _floats(6))
        kernel = build_batch_kernel(rt, spec, False)
        assert kernel.run(rt, 4) is True
        assert kernel.run(rt, 2) is False
        assert len(rt.input) == 2 and rt.state["ph"] == 4

    def test_stream_index_and_feedback_refuse(self):
        b = WorkBuilder()
        hist = ArrayHandle("hist")
        b.set(hist[b.pop()], 1.0)
        b.push(0.0)
        state = (StateVar("hist", FLOAT, N, 0.0), StateVar("ph", INT, 0, 0))
        spec = FilterSpec("idx", pop=1, push=1, work_body=b.build(),
                          state=state)
        with pytest.raises(Unvectorizable,
                           match="data-dependent array index"):
            build_batch_kernel(_runtime({"hist": [0.0] * N}, []), spec,
                               False)
        b = WorkBuilder()
        hist, ph = ArrayHandle("hist"), b.var("ph")
        b.set(hist[ph], hist[ph] * 0.5 + b.pop())
        b.push(hist[ph])
        b.set(ph, (ph + 1) % N)
        spec = FilterSpec("fb", pop=1, push=1, work_body=b.build(),
                          state=state)
        with pytest.raises(Unvectorizable, match="feeds back"):
            build_batch_kernel(
                _runtime({"hist": [0.0] * N, "ph": 0}, []), spec, False)


# -- the sequential scan -----------------------------------------------------------

def _iir():
    b = WorkBuilder()
    acc = b.var("acc")
    b.set(acc, acc * 0.9 + b.pop())
    b.push(acc)
    return FilterSpec("iir", pop=1, push=1, work_body=b.build(),
                      state=(StateVar("acc", FLOAT, 0, 0.0),))


def _int_fold(update):
    b = WorkBuilder()
    s = b.var("s")
    b.set(s, update(b, s))
    b.push(s)
    return FilterSpec("fold", pop=1, push=1, data_type=INT,
                      work_body=b.build(),
                      state=(StateVar("s", INT, 0, 0),))


class TestScanLane:
    @pytest.mark.parametrize("n", SIZES)
    def test_float_iir(self, n):
        kernel = _assert_exact(_iir(), {"acc": 0.3}, _floats(n), n)
        assert kernel.scan.names == ("acc",)

    @pytest.mark.parametrize("n", SIZES)
    def test_folding_accumulator(self, n):
        _assert_exact(checksum_sink("sink", pop=N), {"acc": -1.25},
                      _floats(N * n), n)

    @pytest.mark.parametrize("n", SIZES)
    def test_int_pop_minus_state(self, n):
        spec = _int_fold(lambda b, s: b.pop() - s)
        _assert_exact(spec, {"s": 9}, [k * k - 5 for k in range(n)], n)

    @pytest.mark.parametrize("n", SIZES)
    def test_coupled_states_read_before_and_after_update(self, n):
        b = WorkBuilder()
        a, c = b.var("a"), b.var("c")
        b.push(a)
        b.set(a, a * 0.5 + c)
        b.set(c, c - b.pop() * a)
        b.push(a + c)
        spec = FilterSpec("pair", pop=1, push=2, work_body=b.build(),
                          state=(StateVar("a", FLOAT, 0, 0.0),
                                 StateVar("c", FLOAT, 0, 0.0)))
        kernel = _assert_exact(spec, {"a": 1.0, "c": -0.5},
                               [0.125 * k for k in range(n)], n)
        assert kernel.scan.names == ("a", "c")

    def test_int_accumulator_past_2_53_replays(self):
        spec = _int_fold(lambda b, s: s + b.pop())
        state = {"s": 2 ** 53 - 10}
        data = [4] * 6
        rt = _runtime(state, data)
        kernel = build_batch_kernel(rt, spec, False)
        assert kernel.run(rt, 6) is False
        assert len(rt.input) == 6 and len(rt.output) == 0
        assert rt.state == state and not rt.counters.events
        # The backend's replay is the interpreter's, exact past 2**53.
        batch, _ = vector_batch(rt, spec)
        assert batch(6) is False
        want = _interp(spec, state, data, 6)
        assert rt.output.drain() == want.output.drain()
        assert rt.state == want.state == {"s": 2 ** 53 + 14}

    def test_domain_error_raises_at_the_interp_firing(self):
        b = WorkBuilder()
        acc = b.var("acc")
        b.set(acc, acc - b.pop())
        b.push(call("sqrt", acc))
        spec = FilterSpec("root", pop=1, push=1, work_body=b.build(),
                          state=(StateVar("acc", FLOAT, 0, 0.0),))
        state, data = {"acc": 10.0}, [1.0] * 16
        ref = _runtime(state, data)
        interp = Interpreter(ref)
        with pytest.raises(ValueError) as want:
            for _ in data:
                interp.run_work(spec.work_body)
        rt = _runtime(state, data)
        batch, status = vector_batch(rt, spec)
        assert status == "vector"
        with pytest.raises(ValueError) as got:
            batch(len(data))
        assert str(got.value) == str(want.value)
        assert rt.output.drain() == ref.output.drain()
        assert rt.state == ref.state

    def test_state_type_change_refuses(self):
        spec = _int_fold(lambda b, s: s * 0.5 + b.pop())
        with pytest.raises(Unvectorizable, match="state type changes"):
            build_batch_kernel(_runtime({"s": 1}, []), spec, False)


# -- the int64 lane ---------------------------------------------------------------

_EXTREMES = [0, 0xFFFFFFFF, 0xFFFFFFFF, 0, 0, 0, 0xFFFFFFFF, 0xFFFFFFFF,
             0x80000000, 0x7FFFFFFF, 1, 0xFFFFFFFE]


class TestIntLane:
    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("make", [make_initial_permutation,
                                      lambda: make_round(0),
                                      lambda: make_round(3)])
    def test_des_rounds_on_extremes(self, make, n):
        data = (_EXTREMES * n)[:2 * n]
        _assert_exact(make(), {}, data, n)

    def test_unmasked_overflowing_product_refuses(self):
        b = WorkBuilder()
        x = b.let("x", b.pop(), ty=INT)
        b.push(((x << 1) ^ 5) * 2654435761)
        spec = FilterSpec("ovf", pop=1, push=1, data_type=INT,
                          work_body=b.build())
        with pytest.raises(Unvectorizable, match="modulo 2\\*\\*64"):
            build_batch_kernel(_runtime({}, []), spec, False)

    def test_non_constant_shift_count_refuses(self):
        b = WorkBuilder()
        x = b.let("x", b.pop(), ty=INT)
        b.push(x << (b.pop() & 7))
        spec = FilterSpec("shv", pop=2, push=1, data_type=INT,
                          work_body=b.build())
        with pytest.raises(Unvectorizable, match="non-constant count"):
            build_batch_kernel(_runtime({}, []), spec, False)

    def test_float_window_replays(self):
        # Bitwise ops assume an int window; a float one replays.
        spec = make_initial_permutation()
        rt = _runtime({}, [1.0, 2.0])
        kernel = build_batch_kernel(rt, spec, False)
        assert kernel.window_mode == "int"
        assert kernel.run(rt, 1) is False and len(rt.output) == 0
