"""The lane-kind rule is exact at runtime.

:func:`repro.simd.analysis.expr_is_vector` over a body's
:func:`~repro.simd.analysis.actor_vector_names` decides every value's
scalar/vector kind for the closure compiler, the static estimator and the
C++ emitter.  The closure compiler charges
every event from that decision at compile time, so the rule must name the
kind the interpreter actually computes, on every expression it evaluates.
Covered here: every app's ``full`` graph on core-i7-sse4, and a few fuzz
programs under every SIMDization option set.  A store that changes a
name's kind is outside the rule: ``ir.typecheck`` rejects it and the
closure compiler raises on it rather than run it differently.
"""

import random

import pytest

from repro.apps import BENCHMARKS
from repro.experiments.harness import scalar_graph
from repro.fuzz.descriptions import materialize
from repro.fuzz.generator import generate_program
from repro.fuzz.harness import OPTION_SETS
from repro.graph import FilterSpec, StateVar
from repro.graph.flatten import flatten
from repro.ir import FLOAT
from repro.ir import expr as E
from repro.ir import lvalue as L
from repro.ir import stmt as S
from repro.ir.typecheck import check_spec
from repro.ir.types import Vector
from repro.perf.counters import PerfCounters, counter_bags
from repro.runtime import execute
from repro.runtime.backends import InterpreterBackend
from repro.runtime.compiled.compiler import (Frame, Specialization,
                                             compile_kernel)
from repro.runtime.errors import InterpreterError
from repro.runtime.interpreter import ActorRuntime, Interpreter
from repro.runtime.tape import Tape
from repro.runtime.values import is_vector_value
from repro.simd.analysis import actor_vector_names, expr_is_vector
from repro.simd.machine import CORE_I7
from repro.simd.pipeline import compile_graph

from ..conftest import linear_program, make_ramp_source


class _KindChecking(Interpreter):
    """The interpreter, comparing each evaluated value's kind with the
    rule's and recording every disagreement in ``misses``."""

    def __init__(self, runtime, spec, misses):
        super().__init__(runtime)
        self.spec = spec
        self.misses = misses
        self.vectors = frozenset()

    def run_init(self, body):
        self.vectors = actor_vector_names(self.spec)[0]
        super().run_init(body)

    def run_work(self, body):
        self.vectors = actor_vector_names(self.spec)[1]
        super().run_work(body)

    def _eval(self, e):
        value = super()._eval(e)
        if expr_is_vector(e, self.vectors) != is_vector_value(value):
            self.misses.add(f"{self.spec.name}: {e!r} holds "
                            f"{type(value).__name__}")
        return value


class _KindCheckingBackend(InterpreterBackend):
    def __init__(self):
        self.misses = set()

    def make_filter_actor(self, runtime, spec, in_edge, out_edge):
        return _KindChecking(runtime, spec, self.misses)


def _misses(graph):
    backend = _KindCheckingBackend()
    result = execute(graph, machine=CORE_I7, iterations=2, backend=backend)
    assert result.outputs
    return sorted(backend.misses)


@pytest.mark.parametrize("app", sorted(BENCHMARKS))
def test_full_graph_kinds_are_exact(app):
    graph = compile_graph(scalar_graph(app), CORE_I7, pipeline="full").graph
    assert _misses(graph) == []


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("options", sorted(OPTION_SETS))
def test_fuzz_program_kinds_are_exact(seed, options):
    program = materialize(generate_program(random.Random(seed)))
    graph = compile_graph(flatten(program), CORE_I7,
                          OPTION_SETS[options]).graph
    assert _misses(graph) == []


V4 = Vector(FLOAT, 4)
VEC = E.VectorConst((1.0, 2.0, 3.0, 4.0))


def _filter(work_body, init_body=(), state=()):
    return FilterSpec("f", pop=1, push=1, state=tuple(state),
                      init_body=tuple(init_body), work_body=tuple(work_body))


def _run(spec, backend):
    return execute(linear_program(make_ramp_source(), spec), machine=CORE_I7,
                   iterations=2, backend=backend)


#: Bodies that store a value of one lane kind into a name of the other.
KIND_CHANGING = {
    "scalar-into-vector-local": _filter((
        S.DeclVar("acc", V4, E.FloatConst(1.0)),
        S.Assign(L.VarLV("acc"), E.Pop()),
        S.Push(E.Var("acc") * 2.0))),
    "scalar-into-vector-array": _filter((
        S.DeclArray("a", V4, 2),
        S.Assign(L.ArrayLV("a", E.IntConst(1)), E.Pop()),
        S.Push(E.ArrayRead("a", E.IntConst(0)).lane(0)))),
    "vector-into-scalar-state": _filter(
        (S.DeclVar("t", V4, E.Var("s") * 2.0),
         S.Push(E.Var("t").lane(0) + E.Pop())),
        init_body=(S.Assign(L.VarLV("s"), VEC),),
        state=(StateVar("s", FLOAT, 0, 0.0),)),
}


@pytest.mark.parametrize("name", sorted(KIND_CHANGING))
class TestKindChangingStores:
    def test_typecheck_rejects_the_store(self, name):
        issues = [str(i) for i in check_spec(KIND_CHANGING[name])]
        assert len(issues) == 1
        assert "lane kinds differ" in issues[0]

    def test_compiled_backend_refuses_what_the_interpreter_runs(self, name):
        assert _run(KIND_CHANGING[name], "interp").outputs
        with pytest.raises(InterpreterError, match="lane-kind assumption"):
            _run(KIND_CHANGING[name], "compiled")


@pytest.mark.parametrize("stmt", [
    S.Push(E.Select(E.BinaryOp("<", VEC, E.FloatConst(2.5)),
                    E.Broadcast(E.Var("x"), 4), VEC).lane(0)),
    S.DeclVar("y", V4, E.Var("x")),
    S.Assign(L.VarLV("x"), E.Var("x")),
], ids=["blended-broadcast", "declaration", "assignment"])
def test_misnamed_scalar_fails_loudly(stmt):
    """A name the rule reads as a vector but that holds a scalar must not
    run: blending ``broadcast(x)`` would skip the splat the interpreter
    charges for it."""
    spec = Specialization(is_work=False, simd_width=4, has_sagu=False,
                          in_lane_ordered=False, out_lane_ordered=False,
                          state_names=frozenset({"x"}),
                          vectors=frozenset({"x", "y"}))
    rt = ActorRuntime(0, 4, PerfCounters(), {"x": 1.0}, Tape("in"),
                      Tape("out"))
    with pytest.raises(InterpreterError, match="lane-kind assumption"):
        compile_kernel((stmt,), spec).run(Frame(rt))


def test_buffer_filled_in_init_is_read_as_vectors_in_work():
    """Internal buffers persist from init to work, so their kind is
    actor-wide: work reads the vectors init pushed."""
    spec = _filter(
        (S.DeclVar("v", V4, E.InternalPeek(0, E.IntConst(0))),
         S.Push(E.Var("v").lane(1) + E.Pop())),
        init_body=(S.InternalPush(0, VEC),))
    assert check_spec(spec) == []
    ref, got = _run(spec, "interp"), _run(spec, "compiled")
    assert got.outputs == ref.outputs
    assert counter_bags(got.steady_counters) == \
        counter_bags(ref.steady_counters)
    assert counter_bags(got.init_counters) == \
        counter_bags(ref.init_counters)
