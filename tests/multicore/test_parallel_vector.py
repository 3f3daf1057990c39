"""Vector-backed multicore: ``parallel_execute(..., backend="vector")``.

The nd-tape data plane must compose with the thread-based runtime: local
(intra-core) edges become :class:`NdTape`, cut edges stay bounded
:class:`Channel`\\ s with bulk block transfers, and per-core schedule
slices batch-execute through the same kernels as the sequential vector
backend — all while staying event-identical to the interpreter.
"""

from __future__ import annotations

import math

import pytest

from repro.runtime.tape import HAVE_NUMPY

pytestmark = pytest.mark.skipif(not HAVE_NUMPY,
                                reason="numpy not installed ([vector] extra)")

from repro.experiments.harness import scalar_graph
from repro.multicore import parallel_execute
from repro.runtime import execute
from repro.simd.machine import CORE_I7

APPS = ("FMRadio", "DCT", "FilterBank")
CORES = (1, 2, 4)


def canon(value):
    if isinstance(value, list):
        return tuple(canon(v) for v in value)
    return (type(value).__name__, repr(value))


@pytest.mark.parametrize("app", APPS)
@pytest.mark.parametrize("cores", CORES)
def test_parallel_vector_matches_sequential_interp(app, cores):
    graph = scalar_graph(app)
    seq = execute(graph, machine=CORE_I7, iterations=4, backend="interp")
    par = parallel_execute(graph, machine=CORE_I7, iterations=4,
                           cores=cores, backend="vector")
    assert canon(par.outputs) == canon(seq.outputs)
    assert canon(par.init_outputs) == canon(seq.init_outputs)
    # Vector-backed multicore must actually batch, not silently fall
    # back to element-at-a-time interpretation.
    assert par.batched_firings > 0, (app, cores)


@pytest.mark.parametrize("app", APPS)
def test_batched_firings_stable_across_core_counts(app):
    """Partitioning must not change *what* gets batched — every actor
    firing flows through a batch kernel regardless of placement."""
    graph = scalar_graph(app)
    counts = {cores: parallel_execute(graph, machine=CORE_I7, iterations=4,
                                      cores=cores,
                                      backend="vector").batched_firings
              for cores in CORES}
    assert len(set(counts.values())) == 1, counts


def test_vectorized_statuses_reported_from_parallel_run():
    par = parallel_execute(scalar_graph("FMRadio"), machine=CORE_I7,
                           iterations=2, cores=2, backend="vector")
    assert par.vectorized, "parallel vector run reported no statuses"
    assert all(isinstance(v, str) for v in par.vectorized.values())


def test_parallel_vector_deterministic():
    graph = scalar_graph("DCT")
    runs = [parallel_execute(graph, machine=CORE_I7, iterations=3,
                             cores=4, backend="vector") for _ in range(3)]
    assert all(canon(r.outputs) == canon(runs[0].outputs) for r in runs)
    assert all(r.batched_firings == runs[0].batched_firings for r in runs)


def test_outputs_are_plain_python_floats():
    """np scalars must never leak out of the nd data plane — sinks and
    drains hand back plain Python numbers."""
    par = parallel_execute(scalar_graph("FilterBank"), machine=CORE_I7,
                           iterations=2, cores=2, backend="vector")
    flat = [v for v in par.outputs if not isinstance(v, list)]
    assert flat and all(type(v) in (int, float) for v in flat)
    assert all(math.isfinite(v) for v in flat if type(v) is float)


def test_cut_edges_keep_machine_layout(monkeypatch):
    """Cut-edge channels wrap the backend's own storage, so the kernel on
    the consuming core of a numeric cut edge is handed an ndarray window
    (a copy), not a list."""
    import numpy as np

    from repro.multicore.channels import Channel
    from repro.runtime.tape import NdTape

    seen = []
    real_window = Channel.window

    def spying_window(self, count):
        window = real_window(self, count)
        seen.append((type(self._tape), type(window)))
        return window

    monkeypatch.setattr(Channel, "window", spying_window)
    par = parallel_execute(scalar_graph("FMRadio"), machine=CORE_I7,
                           iterations=4, cores=2, backend="vector")
    assert par.channel_stats and seen
    assert {storage for storage, _ in seen} == {NdTape}
    assert np.ndarray in {window for _, window in seen}


def test_cut_edge_degrade_is_reported(monkeypatch):
    """An actor next to a cut edge whose storage degraded says so, exactly
    like one next to a core-local tape — and the run still matches the
    interpreter.  Vector items no longer degrade a cut edge: they cross
    as ``(items, SW)`` float64 rows.  A bool payload still degrades."""
    import numpy as np

    from repro.apps.sources import ramp_source
    from repro.fuzz.harness import OPTION_SETS
    from repro.graph.actor import FilterSpec
    from repro.graph.flatten import flatten
    from repro.graph.structure import Program, pipeline
    from repro.ir import WorkBuilder
    from repro.multicore.channels import Channel
    from repro.simd.pipeline import compile_graph

    seen = []
    real_window = Channel.window

    def spying_window(self, count):
        window = real_window(self, count)
        seen.append((self.dtype_kind, window))
        return window

    monkeypatch.setattr(Channel, "window", spying_window)
    graph = compile_graph(scalar_graph("FMRadio"), CORE_I7,
                          OPTION_SETS["horizontal"]).graph
    par = execute(graph, machine=CORE_I7, iterations=2, backend="vector",
                  cores=2)
    core_of = par.partition.assignment
    beside_cut_vector_edge = {
        actor for edge in graph.tapes.values()
        if edge.is_vector and core_of[edge.src] != core_of[edge.dst]
        for actor in (edge.src, edge.dst)
        if par.vectorized[actor].startswith("vector")}
    assert beside_cut_vector_edge
    for actor in beside_cut_vector_edge:
        assert "tape fallback" not in par.vectorized[actor], \
            par.vectorized[actor]
    rows = [window for kind, window in seen if kind == "vector"]
    assert rows and all(isinstance(w, np.ndarray) and w.ndim == 2
                        and w.dtype == np.float64 for w in rows)
    seq = execute(graph, machine=CORE_I7, iterations=2, backend="interp")
    assert canon(par.outputs) == canon(seq.outputs)
    assert canon(par.init_outputs) == canon(seq.init_outputs)

    # src -> tobool | relay: the cut edge carries bools.
    b = WorkBuilder()
    b.push(b.let("x", b.pop()).gt(1.0))
    tobool = FilterSpec("tobool", pop=1, push=1, work_body=b.build())
    b = WorkBuilder()
    b.push(b.pop())
    relay = FilterSpec("relay", pop=1, push=1, work_body=b.build())
    graph = flatten(Program("boolcut", pipeline(
        ramp_source("src", push=4, step=0.5), tobool, relay)))
    ids = {actor.name: actor.id for actor in graph.actors.values()}
    par = parallel_execute(graph, machine=CORE_I7, iterations=2, cores=2,
                           backend="vector",
                           partition={ids["src"]: 0, ids["tobool"]: 0,
                                      ids["relay"]: 1})
    for name in ("tobool", "relay"):
        assert par.vectorized[ids[name]].endswith(
            " (tape fallback: non-numeric payload (bool))"), \
            par.vectorized[ids[name]]
    seq = execute(graph, machine=CORE_I7, iterations=2, backend="interp")
    assert canon(par.outputs) == canon(seq.outputs)
