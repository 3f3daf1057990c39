"""Regression tests for the multicore cost-model bugfixes.

Three defects, each pinned so it cannot quietly return:

1. ``MacroSSOptions`` used to be a *shared mutable default* in four
   signatures (``compile_graph``, ``Variants.macro_graph``,
   ``Variants.macro_cpo``, the Figure 13 model) — one caller mutating
   its options could change every later call's behaviour.  The fix is
   two-pronged: the dataclass is frozen, and every default is ``None``
   with per-call instantiation.
2. ``multicore_speedups`` silently dropped ``partitioner`` / ``options``
   / ``iterations`` instead of forwarding them to the per-variant model,
   making the partitioner ablation a no-op through that entry point.
3. The Figure 13 model masked "no steady-state output" with
   ``max(1, len(outputs))``, reporting a meaningless finite makespan;
   ``PlanContext.outputs_per_iteration`` now raises
   :class:`StreamRuntimeError` like ``cycles_per_output``.

Plus a pin of the *deliberate* communication-accounting semantics of
:func:`~repro.plan.evaluate_partition`, checked against a sequential
:func:`execute`: receiver-only charge, steady-state crossings only
(paper §5).
"""

import dataclasses
import inspect

import pytest

from repro.experiments.fig13 import multicore_speedups
from repro.experiments.harness import Variants
from repro.graph import FilterSpec, StateVar
from repro.plan import (
    Partition,
    build_plan_context,
    evaluate_partition,
    partition_contiguous,
    partition_lpt,
)
from repro.perf import events as ev
from repro.runtime import execute
from repro.runtime.errors import StreamRuntimeError
from repro.ir import FLOAT, WorkBuilder
from repro.simd.machine import CORE_I7
from repro.simd.pipeline import SCALAR_OPTIONS, MacroSSOptions, compile_graph

from ..conftest import linear_program, make_ramp_source, make_scaler


# ---------------------------------------------------------------------------
# Bugfix 1: shared-mutable-default options.


OPTIONS_TAKERS = [
    compile_graph,
    Variants.macro_graph,
    Variants.macro_cpo,
    multicore_speedups,
]


@pytest.mark.parametrize("fn", OPTIONS_TAKERS,
                         ids=lambda fn: fn.__qualname__)
def test_options_default_is_none_not_shared_instance(fn):
    """No signature may hold a ``MacroSSOptions`` *instance* as its
    default (that instance would be shared by every call ever made)."""
    default = inspect.signature(fn).parameters["options"].default
    assert default is None, (
        f"{fn.__qualname__} holds a shared MacroSSOptions default: "
        f"{default!r}")


def test_options_dataclass_is_frozen():
    options = MacroSSOptions()
    with pytest.raises(dataclasses.FrozenInstanceError):
        options.vertical = False  # type: ignore[misc]


def test_compile_graph_calls_do_not_share_options_state():
    """Two bare calls must each see pristine defaults: the report of a
    default-options compile never reflects another call's preset."""
    g = linear_program(make_ramp_source(4), make_scaler(name="a"))
    scalar_report = compile_graph(g, CORE_I7, SCALAR_OPTIONS).report
    default_report = compile_graph(g, CORE_I7).report
    assert scalar_report.options == SCALAR_OPTIONS
    assert default_report.options == MacroSSOptions()
    assert default_report.options != SCALAR_OPTIONS


# ---------------------------------------------------------------------------
# Bugfix 2: multicore_speedups kwarg plumbing.


def _heavy(name: str = "heavy") -> FilterSpec:
    """A deliberately expensive stateful filter (dominates the profile)."""
    b = WorkBuilder()
    acc = b.var("acc")
    b.set(acc, b.pop())
    with b.loop("i", 0, 64):
        b.set(acc, acc * 1.0000001 + 0.5)
    b.push(acc)
    return FilterSpec(name, pop=1, push=1,
                      state=(StateVar("acc", FLOAT, 0, 0.0),),
                      work_body=b.build())


def _skewed_graph():
    """One dominant actor early in the pipeline: contiguous slicing and
    LPT provably disagree about where to cut."""
    return linear_program(make_ramp_source(4), _heavy(),
                          make_scaler(name="a"), make_scaler(name="b"),
                          make_scaler(name="c"))


def test_partitioner_is_forwarded_to_simulation():
    g = _skewed_graph()
    lpt = multicore_speedups(g, CORE_I7, [2], partitioner=partition_lpt)
    contiguous = multicore_speedups(g, CORE_I7, [2],
                                    partitioner=partition_contiguous)
    # The two partitioners produce different cuts on the skewed graph, so
    # forwarding must change the modeled speedup.  (Pre-fix, the kwarg was
    # dropped and both rows came out identical.)
    assert lpt["2c"] != pytest.approx(contiguous["2c"])


def test_partitioners_really_disagree_on_the_skewed_graph():
    """Sanity for the test above: the disagreement is in the partitions
    themselves, not an accident of the makespan arithmetic."""
    g = _skewed_graph()
    costs = {aid: 1.0 for aid in g.actors}
    heavy = g.actor_by_name("heavy").id
    costs[heavy] = 100.0
    assert (partition_lpt(g, costs, 2).assignment
            != partition_contiguous(g, costs, 2).assignment)


def test_options_are_forwarded_to_simulation():
    from repro.apps import get_benchmark
    from repro.graph import flatten
    g = flatten(get_benchmark("FilterBank"))
    default = multicore_speedups(g, CORE_I7, [2])
    scalar_opts = multicore_speedups(g, CORE_I7, [2], options=SCALAR_OPTIONS)
    # With SIMDization disabled the "+simd" column degenerates to the
    # scalar column; with defaults it must not.  (Pre-fix, ``options`` was
    # dropped, so both rows used the default preset.)
    assert scalar_opts["2c+simd"] == pytest.approx(scalar_opts["2c"])
    assert default["2c+simd"] > default["2c"]


def test_iterations_are_forwarded():
    """Per-output metrics are iteration-invariant, so forwarding a
    different iteration count must reproduce the same row (and not
    crash)."""
    g = _skewed_graph()
    two = multicore_speedups(g, CORE_I7, [2], iterations=2)
    three = multicore_speedups(g, CORE_I7, [2], iterations=3)
    for key in two:
        assert two[key] == pytest.approx(three[key])


# ---------------------------------------------------------------------------
# Bugfix 3: no-output masking.


def _sink(name: str = "sink") -> FilterSpec:
    """pop 1, push 0: consumes the stream, produces nothing."""
    b = WorkBuilder()
    b.let("x", b.pop())
    return FilterSpec(name, pop=1, push=0, work_body=b.build())


def test_no_output_graph_raises_instead_of_masking():
    g = linear_program(make_ramp_source(4), make_scaler(name="a"), _sink())
    with pytest.raises(StreamRuntimeError, match="no steady-state output"):
        build_plan_context(g, CORE_I7).outputs_per_iteration
    with pytest.raises(StreamRuntimeError, match="no steady-state output"):
        multicore_speedups(g, CORE_I7, [2])


def test_no_output_matches_cycles_per_output_contract():
    """The masking fix aligns the Figure 13 model with the executor's own
    per-output contract."""
    g = linear_program(make_ramp_source(4), make_scaler(name="a"), _sink())
    result = execute(g, machine=CORE_I7, iterations=2)
    with pytest.raises(StreamRuntimeError):
        result.cycles_per_output(CORE_I7)


# ---------------------------------------------------------------------------
# Deliberate comm-accounting semantics (receiver-only, steady-only).


def test_comm_charged_to_receiving_core_only():
    g = linear_program(make_ramp_source(4), make_scaler(name="a"),
                       make_scaler(name="b"))
    src = g.actor_by_name("src").id
    a = g.actor_by_name("a").id
    b = g.actor_by_name("b").id

    def cut_after_src(graph, costs, cores):
        return Partition({src: 0, a: 1, b: 1}, 2)

    iterations = 2
    ctx = build_plan_context(g, CORE_I7, iterations=iterations)
    res = evaluate_partition(ctx, cut_after_src(g, ctx.costs, 2))
    seq = execute(g, machine=CORE_I7, iterations=iterations)
    per_actor = seq.actor_cycles(CORE_I7)
    outputs = len(seq.outputs)
    assert outputs == iterations * ctx.outputs_per_iteration
    # Per output item, as Figure 13 reports it.
    scale = 1 / ctx.outputs_per_iteration

    # The sending core's load is *pure compute* — no transfer surcharge.
    assert res.core_loads[0] * scale == pytest.approx(
        per_actor[src] / outputs)

    # Only steady-state crossings are priced: reps[src] * push_rate items
    # per steady iteration, nothing for init priming.
    (tape,) = [t for t in g.tapes.values() if t.src == src]
    items = seq.schedule.reps[src] * g.push_rate(src, tape.src_port)
    expected_comm = items * iterations * CORE_I7.price(ev.COMM)
    assert res.comm_cycles * scale == pytest.approx(expected_comm / outputs)

    # ... and the whole charge lands on the receiving core.
    assert res.core_loads[1] * scale == pytest.approx(
        (per_actor[a] + per_actor[b] + expected_comm) / outputs)


def test_same_core_tapes_are_free():
    g = linear_program(make_ramp_source(4), make_scaler(name="a"))

    def all_on_one(graph, costs, cores):
        return Partition({aid: 0 for aid in graph.actors}, cores)

    ctx = build_plan_context(g, CORE_I7)
    res = evaluate_partition(ctx, all_on_one(g, ctx.costs, 2))
    assert res.comm_cycles == 0
    seq = execute(g, machine=CORE_I7, iterations=2)
    assert res.makespan / ctx.outputs_per_iteration == pytest.approx(
        seq.cycles_per_output(CORE_I7))
