"""dtype edges of the ndarray-native tape, unit-level and through the
full vector-backend stack.

Covers the one-kind rule (the first value fixes a tape's kind; the other
scalar kind degrades it, nothing is promoted), NaN/inf payloads, vector
items kept as ``(items, W)`` float64 rows, and the payloads that degrade
the tape to list storage (a vector on a scalar tape, bools) with the
reason surfaced through ``ExecutionResult.vectorized``.
"""

from __future__ import annotations

import math

import pytest

np = pytest.importorskip("numpy")

from repro.apps.registry import get_benchmark
from repro.graph.actor import FilterSpec
from repro.graph.flatten import flatten
from repro.graph.structure import Program, pipeline
from repro.fuzz.harness import OPTION_SETS
from repro.ir import WorkBuilder
from repro.runtime import NdTape, execute
from repro.simd.machine import CORE_I7
from repro.simd.pipeline import compile_graph


def canon(value):
    if isinstance(value, list):
        return tuple(canon(v) for v in value)
    return (type(value).__name__, repr(value))


# -- one kind per tape: no promotion mid-stream -------------------------------

class TestPromotion:
    """Nothing is promoted: the first value fixes the tape's kind, and a
    value of the other scalar kind degrades the tape to list storage with
    exact values and Python types."""

    def test_float_on_int_tape_degrades_exactly(self):
        t = NdTape("t")
        t.push(1)
        t.push(2)
        assert t.dtype_kind == "int"
        t.push(2.5)                       # float arrives mid-stream
        assert t.dtype_kind == "list"
        assert t.degrade_reason == "float on an int tape"
        got = [t.pop() for _ in range(3)]
        assert [(type(v), v) for v in got] == \
            [(int, 1), (int, 2), (float, 2.5)]
        assert t.dtype_kind == "list"     # sticky, even once drained

    def test_int_on_float_tape_degrades_exactly(self):
        t = NdTape("t")
        t.push(0.5)
        assert t.dtype_kind == "float"
        t.push(7)
        assert t.dtype_kind == "list"
        assert t.degrade_reason == "int on a float tape"
        a, b = t.pop(), t.pop()
        assert (type(a), a) == (float, 0.5)
        assert (type(b), b) == (int, 7)

    def test_float_after_inexact_int_keeps_exact_values(self):
        t = NdTape("t")
        t.push(2 ** 60)                   # exact in int64, not in float64
        assert t.dtype_kind == "int"
        t.push(0.5)
        assert t.dtype_kind == "list"
        assert t.degrade_reason == "float on an int tape"
        got = t.drain()
        assert got == [2 ** 60, 0.5]      # exact values preserved
        assert [type(v) for v in got] == [int, float]

    def test_int64_overflow_degrades(self):
        t = NdTape("t")
        t.push(1)
        t.push(2 ** 64)
        assert t.degrade_reason == "int beyond int64 range"
        assert t.drain() == [1, 2 ** 64]

    def test_dtype_readopted_after_empty(self):
        t = NdTape("t")
        t.push(1)
        t.pop()
        t.push(0.5)                       # whole new dtype, no degrade
        assert t.dtype_kind == "float"
        assert t.degrade_reason is None


# -- NaN / inf payloads -------------------------------------------------------

class TestNaNInf:
    def test_nan_and_inf_roundtrip(self):
        t = NdTape("t")
        t.push(float("nan"))
        t.push(float("inf"))
        t.push(float("-inf"))
        assert t.dtype_kind == "float"
        got = t.drain()
        assert math.isnan(got[0])
        assert got[1] == float("inf") and got[2] == float("-inf")

    def test_nan_visible_through_array_view(self):
        t = NdTape("t")
        t.push(1.0)
        t.push(float("nan"))
        view = t.peek_block_array(2)
        assert np.isnan(view[1])

    def test_graph_with_inf_and_nan_matches_interpreter(self):
        # huge -> x + x overflows to inf; (x+x) - (x+x) is then nan.
        b = WorkBuilder()
        b.push(1e308)
        src = FilterSpec("huge", pop=0, push=1, work_body=b.build())
        b = WorkBuilder()
        x = b.let("x", b.pop())
        y = b.let("y", x + x)
        b.push(y)
        b.push(y - y)
        blow = FilterSpec("blow", pop=1, push=2, work_body=b.build())
        graph = flatten(Program("nanflow", pipeline(src, blow)))
        ref = execute(graph, iterations=4, backend="interp")
        got = execute(graph, iterations=4, backend="vector")
        assert canon(got.outputs) == canon(ref.outputs)
        assert any(isinstance(v, float) and math.isnan(v)
                   for v in got.outputs)
        assert any(v == float("inf") for v in got.outputs)


# -- vector payloads: rows, or a degrade with a recorded reason ---------------

class TestVectorPayloadFallback:
    def test_vector_elements_degrade_tape(self):
        t = NdTape("t")
        t.push(1.0)
        t.push([2.0, 3.0])
        assert t.dtype_kind == "list"
        assert t.degrade_reason == "vector payload"
        assert t.drain() == [1.0, [2.0, 3.0]]

    def test_bool_payload_reason_names_the_type(self):
        t = NdTape("t")
        t.push(True)
        assert t.degrade_reason == "non-numeric payload (bool)"

    def test_horizontal_graph_records_tape_fallback_reason(self):
        """Horizontal SIMDization moves vectors over tapes.  They stay
        ``(items, SW)`` float64 rows, so no batched actor records a tape
        fallback, and the outputs equal the interpreter's."""
        scalar = flatten(get_benchmark("RunningExample"))
        graph = compile_graph(scalar, CORE_I7,
                              OPTION_SETS["horizontal"]).graph
        assert any(edge.is_vector for edge in graph.tapes.values())
        result = execute(graph, iterations=2, backend="vector")
        tainted = [v for v in result.vectorized.values()
                   if "tape fallback" in v]
        assert not tainted, result.vectorized
        ref = execute(graph, iterations=2, backend="interp")
        assert canon(result.outputs) == canon(ref.outputs)

    def test_horizontal_graph_still_batches_scalar_stretches(self):
        scalar = flatten(get_benchmark("RunningExample"))
        graph = compile_graph(scalar, CORE_I7,
                              OPTION_SETS["horizontal"]).graph
        result = execute(graph, iterations=4, backend="vector")
        assert result.batched_firings > 0
