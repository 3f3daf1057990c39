"""The fuzz harness's tape-conservation oracle.

SDF's defining invariant: after the init phase, every steady cycle
returns every tape to the same occupancy.  ``_run_checked`` runs a graph
through the executor's one phase sequence and checks the invariant after
each steady cycle.
"""

from repro.fuzz.harness import _run_checked
from repro.graph import FilterSpec
from repro.ir import WorkBuilder
from repro.perf.counters import counter_bags
from repro.runtime import execute
from repro.schedule.steady_state import build_schedule
from repro.simd.machine import CORE_I7

from ..conftest import linear_program, make_pair_sum, make_scaler


def _source(pushed: int) -> FilterSpec:
    """A source that declares push 4 and pushes ``pushed`` items."""
    b = WorkBuilder()
    with b.loop("i", 0, pushed):
        b.push(1.0)
    return FilterSpec("src", pop=0, push=4, work_body=b.build())


def _checked(pushed: int, iterations: int = 3):
    graph = linear_program(_source(pushed), make_scaler(), make_pair_sum())
    return graph, _run_checked(graph, build_schedule(graph), CORE_I7,
                               iterations)


def test_balanced_graph_conserves_tapes_and_matches_execute():
    graph, (result, violation) = _checked(4)
    assert violation is None
    ref = execute(graph, machine=CORE_I7, iterations=3)
    assert result.outputs == ref.outputs
    assert result.init_outputs == ref.init_outputs
    assert counter_bags(result.steady_counters) == \
        counter_bags(ref.steady_counters)
    assert counter_bags(result.init_counters) == \
        counter_bags(ref.init_counters)


def test_rate_lying_source_is_caught_in_its_first_cycle():
    _, (_, violation) = _checked(5)
    assert violation is not None
    assert violation.startswith("steady cycle 0: tape occupancies changed")
    assert "(0, 1)" in violation
