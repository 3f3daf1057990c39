"""Shared fixtures and graph-building helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.graph import FilterSpec, Program, StateVar, flatten, pipeline
from repro.ir import FLOAT, INT, WorkBuilder
from repro.runtime.backends import InterpreterBackend
from repro.simd.machine import CORE_I7, CORE_I7_SAGU


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--fuzz-seed", type=int, default=0,
        help="seed for the differential fuzz smoke campaign (default: 0)")
    parser.addoption(
        "--update-golden", action="store_true", default=False,
        help="rewrite golden codegen snapshots instead of diffing them")


@pytest.fixture
def fuzz_seed(request: pytest.FixtureRequest) -> int:
    return request.config.getoption("--fuzz-seed")


@pytest.fixture
def update_golden(request: pytest.FixtureRequest) -> bool:
    return request.config.getoption("--update-golden")


@pytest.fixture
def machine():
    return CORE_I7


@pytest.fixture
def sagu_machine():
    return CORE_I7_SAGU


def make_ramp_source(push: int = 4, name: str = "src") -> FilterSpec:
    """Deterministic ramp source: 0, 1, 2, ..."""
    b = WorkBuilder()
    t = b.var("t")
    with b.loop("i", 0, push):
        b.push(t)
        b.set(t, t + 1.0)
    return FilterSpec(name, pop=0, push=push,
                      state=(StateVar("t", FLOAT, 0, 0.0),),
                      work_body=b.build())


def make_scaler(factor: float = 2.0, name: str = "scale",
                pop: int = 1) -> FilterSpec:
    """Stateless element-wise scaler (pop == push == ``pop``)."""
    b = WorkBuilder()
    with b.loop("i", 0, pop):
        b.push(b.pop() * factor)
    return FilterSpec(name, pop=pop, push=pop, work_body=b.build())


def make_pair_sum(name: str = "pairsum") -> FilterSpec:
    """pop 2, push 1: sum of consecutive pairs."""
    b = WorkBuilder()
    b.push(b.pop() + b.pop())
    return FilterSpec(name, pop=2, push=1, work_body=b.build())


def make_expander(name: str = "expand") -> FilterSpec:
    """pop 1, push 2: x -> (x, -x)."""
    b = WorkBuilder()
    x = b.let("x", b.pop())
    b.push(x)
    b.push(-x)
    return FilterSpec(name, pop=1, push=2, work_body=b.build())


def make_accumulator(name: str = "accum") -> FilterSpec:
    """Stateful running sum (pop 1, push 1)."""
    b = WorkBuilder()
    acc = b.var("acc")
    b.set(acc, acc + b.pop())
    b.push(acc)
    return FilterSpec(name, pop=1, push=1,
                      state=(StateVar("acc", FLOAT, 0, 0.0),),
                      work_body=b.build())


def linear_program(*specs: FilterSpec, name: str = "test"):
    """Flatten a source + given filters into a flat graph."""
    return flatten(Program(name, pipeline(*specs)))


def outputs_of(graph, iterations: int = 4, machine=CORE_I7):
    from repro.runtime import execute
    return execute(graph, machine=machine, iterations=iterations).outputs


def vector_batch(runtime, spec):
    """What the executor builds for a vector-backend filter with no init
    body: ``(batch closure or None, vector status)``, the batch replaying
    a refused ``n`` on the interpreter."""
    from repro.runtime.vector import VectorBackend
    backend = VectorBackend()
    actor = backend.make_filter_actor(runtime, spec, None, None)
    return backend.make_batch_filter(
        runtime, spec, None, lambda: actor.run_work(spec.work_body))


class HookedBackend(InterpreterBackend):
    """The interpreter backend with ``hook(actor id, filter name)`` called
    before every ``run_work`` — a probe, or a fault injector, at the
    firing site, through the ``backend=`` object seam ``execute`` and
    ``parallel_execute`` already have."""

    def __init__(self, hook) -> None:
        self.hook = hook

    def make_filter_actor(self, runtime, spec, in_edge, out_edge):
        runner = super().make_filter_actor(runtime, spec, in_edge, out_edge)
        run_work, hook = runner.run_work, self.hook

        def hooked_run_work(body) -> None:
            hook(runtime.actor_id, spec.name)
            run_work(body)
        runner.run_work = hooked_run_work
        return runner
