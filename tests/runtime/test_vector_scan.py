"""State-scan batch kernels: ``s ← (a·s + c) % m`` as one int64 jump-ahead.

The recurrence is associative, so a batch of ``n`` firings reads its
states from a cached jump-ahead table instead of running ``n`` closures.
These tests pin the three things that make that safe: the scan equals the
pure-Python recurrence (hypothesis, state carried across batches and
across a table-chunk boundary), every state the int64 lane cannot prove
exact leaves the batch untouched and replays interp-exact, and the
constant arrays all kernels share are bounded and read-only.
"""

import pytest

np = pytest.importorskip("numpy")

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.runtime.vector.kernel as vector_kernel
from repro.fuzz.descriptions import make_lcg_source
from repro.runtime.interpreter import Interpreter
from repro.runtime.vector.kernel import (_SCAN_CHUNK, _SharedArrays,
                                         build_batch_kernel)

from ..conftest import vector_batch
from .test_vector_fallback import _runtime


def _lcg_spec(a, c, m, seed, push, dtype="int"):
    return make_lcg_source(push, dtype, (a, c, m, seed))


def _reference(a, c, m, s, items):
    out = []
    for _ in range(items):
        s = (s * a + c) % m
        out.append(s)
    return out, s


_MODULI = st.one_of(
    st.sampled_from([1, 2, 3, 8, 1000, 2 ** 31 - 1, 2 ** 31]),
    st.integers(1, 2 ** 31))


@settings(max_examples=40, deadline=None)
@given(m=_MODULI, a=st.integers(0, 2 ** 40), c=st.integers(0, 2 ** 40),
       seed=st.integers(0, 2 ** 31), push=st.integers(1, 3),
       n1=st.integers(1, 9), n3=st.integers(1, 9),
       over=st.integers(0, 5))
def test_scan_equals_python_recurrence(m, a, c, seed, push, n1, n3, over):
    seed %= m
    spec = _lcg_spec(a, c, m, seed, push)
    rt = _runtime(spec)
    kernel = build_batch_kernel(rt, spec, False)
    state = seed
    # Three batches carrying the state; the middle one is longer than the
    # jump-ahead table, so it crosses a chunk boundary.
    for n in (n1, _SCAN_CHUNK + over, n3):
        assert kernel.run(rt, n) is True
        want, state = _reference(a, c, m, state, n * push)
        got = rt.output.drain()
        assert got == want
        assert all(type(x) is int for x in got[:4] + got[-4:])
        assert rt.state["s"] == state and type(rt.state["s"]) is int


def test_float_output_matches_interpreter_across_batches():
    spec = _lcg_spec(1103515245, 12345, 2 ** 31, 12345, 4, dtype="float")
    rt, ref = _runtime(spec), _runtime(spec)
    kernel = build_batch_kernel(rt, spec, False)
    interp = Interpreter(ref)
    for n in (3, 1, 5):
        assert kernel.run(rt, n) is True
        for _ in range(n):
            interp.run_work(spec.work_body)
    got, want = rt.output.drain(), ref.output.drain()
    assert got == want and {type(x) for x in got} == {float}
    assert rt.state == ref.state
    assert dict(rt.counters.events) == dict(ref.counters.events)


class TestRuntimeGuards:
    """States the int64 lane cannot prove exact: ``run`` returns False and
    has touched nothing; the per-firing replay is interp-exact."""

    M = 2 ** 31

    def _pair(self, seed):
        spec = _lcg_spec(1103515245, 12345, self.M, seed, 2)
        rt, ref = _runtime(spec), _runtime(spec)
        batch, status = vector_batch(rt, spec)
        assert status == "vector:scan"
        return spec, rt, ref, batch, build_batch_kernel(rt, spec, False)

    def _assert_refused_then_exact(self, spec, rt, ref, batch, kernel, n=3):
        state, events = dict(rt.state), dict(rt.counters.events)
        assert kernel.run(rt, n) is False
        assert rt.state == state and type(rt.state["s"]) is type(state["s"])
        assert len(rt.output) == 0
        assert dict(rt.counters.events) == events
        # The filter's batch closure replays the same batch per firing.
        assert batch(n) is False
        interp = Interpreter(ref)
        for _ in range(n):
            interp.run_work(spec.work_body)
        got, want = rt.output.drain(), ref.output.drain()
        assert got == want and list(map(type, got)) == list(map(type, want))
        assert rt.state == ref.state
        assert type(rt.state["s"]) is type(ref.state["s"])
        assert dict(rt.counters.events) == dict(ref.counters.events)

    @pytest.mark.parametrize("seed", [-7, 2 ** 31, 2 ** 31 + 12345, 2 ** 70])
    def test_seed_outside_modulus_replays(self, seed):
        self._assert_refused_then_exact(*self._pair(seed))

    @pytest.mark.parametrize("swapped", [1234.0, True])
    def test_state_type_swapped_between_batches_replays(self, swapped):
        spec, rt, ref, batch, kernel = self._pair(99)
        assert batch(2) is True
        interp = Interpreter(ref)
        for _ in range(2):
            interp.run_work(spec.work_body)
        assert rt.output.drain() == ref.output.drain()
        rt.state["s"] = ref.state["s"] = swapped
        self._assert_refused_then_exact(spec, rt, ref, batch, kernel)

    def test_in_range_state_after_replay_batches_again(self):
        _spec, rt, _ref, batch, _kernel = self._pair(2 ** 31 + 5)
        assert batch(1) is False                    # seed ≥ m: replayed
        assert 0 <= rt.state["s"] < self.M
        assert batch(4) is True                     # now inside [0, m)


class TestSharedConstants:
    def test_cached_arrays_are_read_only(self):
        with pytest.raises(ValueError):
            vector_kernel._arange(7)[0] = 1.0
        P, Q = vector_kernel._JUMP_TABLES.get((5, 3, 64))
        with pytest.raises(ValueError):
            P[0] = 2
        with pytest.raises(ValueError):
            Q += 1

    def test_eviction_spares_the_hottest_entry(self):
        cache = _SharedArrays(
            lambda n: (np.arange(n, dtype=np.float64),), 64)
        hot = cache.get(3)[0]
        for n in range(100, 165):       # 65 more sizes: 66 distinct in all
            cache.get(n)
            assert cache.get(3)[0] is hot
        assert len(cache._items) == 64
        assert 100 not in cache._items  # least recently used went first

    def test_concurrent_get_agrees_on_one_array(self):
        # parallel_execute's core threads share the cache: more threads
        # than cores, a short switch interval, and a cache small enough
        # that the contended key keeps being evicted by the others.  A
        # lost insert would hand two threads different arrays for one key
        # within a round, or leave the cache over its limit.
        import sys
        import threading
        cache = _SharedArrays(
            lambda n: (np.arange(n, dtype=np.float64),), 2)
        rounds, workers = 100, 4
        seen = [[None] * workers for _ in range(rounds)]
        barrier = threading.Barrier(workers)

        def worker(slot):
            for r in range(rounds):
                barrier.wait(timeout=10)
                seen[r][slot] = cache.get(11)[0]
                barrier.wait(timeout=10)
                cache.get(100 + slot)       # evicts 11 between rounds

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(slot,))
                       for slot in range(workers)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for row in seen:
            assert all(arr is row[0] for arr in row)
            assert not row[0].flags.writeable and len(row[0]) == 11
        assert len(cache._items) == 2
