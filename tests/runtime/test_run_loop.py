"""The one run loop (``repro.runtime.executor._run_slices``) behind both
front doors: a sequential ``execute`` is the one-slice case of the
partitioned ``parallel_execute``.

Pinned here: where firings happen (calling thread vs ``macross-core<N>``
threads), that both doors make the same decisions on a one-slice run,
the span inventory ``bench/`` reads, that the phase sequence exists
once, and how a worker failure surfaces.
"""

import ast
import inspect
import threading
from pathlib import Path

import pytest

import repro.multicore
import repro.multicore.parallel as parallel_mod
from repro.apps import BENCHMARKS
from repro.experiments.harness import scalar_graph
from repro.multicore import parallel_execute
from repro.obs.tracer import Tracer
from repro.perf.counters import counter_bags
from repro.runtime import execute
from repro.runtime.tape import HAVE_NUMPY
from repro.simd.machine import CORE_I7
from repro.simd.pipeline import compile_graph

from ..conftest import (
    HookedBackend,
    linear_program,
    make_accumulator,
    make_pair_sum,
    make_ramp_source,
    make_scaler,
)

SRC = Path(repro.multicore.__file__).resolve().parents[1]
BACKENDS = ("interp", "compiled") + (("vector",) if HAVE_NUMPY else ())


def _pipeline_graph():
    return linear_program(make_ramp_source(4), make_scaler(name="a"),
                          make_accumulator(), make_pair_sum())


def _halves(graph):
    """First half of the pipeline on core 0, the rest on core 1."""
    order = graph.ordered_actors()
    return {aid: int(i >= len(order) // 2) for i, aid in enumerate(order)}


def _core_threads():
    return [t for t in threading.enumerate()
            if t.name.startswith("macross-core")]


@pytest.fixture
def started_threads(monkeypatch):
    """Names of every thread started while the test runs."""
    names = []
    start = threading.Thread.start

    def recording_start(thread):
        names.append(thread.name)
        start(thread)
    monkeypatch.setattr(threading.Thread, "start", recording_start)
    return names


# ---------------------------------------------------------------------------
# (i) Thread affinity.


class TestThreadAffinity:
    def _record(self):
        seen = []

        def hook(actor_id, name):
            seen.append((actor_id, threading.get_ident(),
                         threading.current_thread().name,
                         threading.active_count()))
        return seen, HookedBackend(hook)

    @pytest.mark.parametrize("door", ["execute", "parallel"])
    def test_one_slice_fires_on_the_calling_thread(self, door,
                                                   started_threads,
                                                   monkeypatch):
        # A one-slice run is a plain call: no thread, no Partition, no
        # Channel — constructing either would raise here.
        def refuse(*args, **kwargs):
            raise AssertionError("constructed on a one-slice run")
        monkeypatch.setattr(parallel_mod, "Partition", refuse)
        monkeypatch.setattr(parallel_mod, "Channel", refuse)
        g = _pipeline_graph()
        seen, backend = self._record()
        before = threading.active_count()
        if door == "execute":
            result = execute(g, machine=CORE_I7, iterations=3,
                             backend=backend)
        else:
            result = parallel_execute(g, machine=CORE_I7, iterations=3,
                                      cores=1, backend=backend)
            # The slice's counter sets *are* the result's: no merged copy.
            assert result.per_core_steady == {0: result.steady_counters}
            assert result.per_core_steady[0] is result.steady_counters
            assert result.per_core_init[0] is result.init_counters
            assert result.partition is None and result.cores == 1
        assert result.outputs
        assert {aid for aid, *_ in seen} == set(g.actors)
        assert {ident for _, ident, _, _ in seen} == {threading.get_ident()}
        assert max(count for *_, count in seen) == before
        assert started_threads == []

    def test_empty_cores_leave_one_slice_on_the_calling_thread(
            self, started_threads):
        g = _pipeline_graph()
        seen, backend = self._record()
        par = parallel_execute(g, machine=CORE_I7, iterations=3, cores=4,
                               partition={aid: 2 for aid in g.actors},
                               backend=backend)
        assert {ident for _, ident, _, _ in seen} == {threading.get_ident()}
        assert started_threads == []
        assert set(par.per_core_steady) == {2}
        assert par.per_core_steady[2] is par.steady_counters
        assert par.cores == 4 and par.channel_stats == {}

    def test_two_slices_fire_on_their_core_threads(self, started_threads):
        g = _pipeline_graph()
        core_of = _halves(g)
        seen, backend = self._record()
        seq = execute(g, machine=CORE_I7, iterations=3)
        par = parallel_execute(g, machine=CORE_I7, iterations=3, cores=2,
                               partition=core_of, backend=backend)
        assert par.outputs == seq.outputs
        assert {aid for aid, *_ in seen} == set(g.actors)
        for actor_id, ident, name, _ in seen:
            assert name == f"macross-core{core_of[actor_id]}"
            assert ident != threading.get_ident()
        assert sorted(started_threads) == ["macross-core0", "macross-core1"]
        assert _core_threads() == []


# ---------------------------------------------------------------------------
# (ii) One decision, two doors.


def _steady_span(tracer):
    span, = [e for e in tracer.spans() if e.name == "runtime.steady"]
    return span


def _observed(result, tracer):
    return {
        "outputs": result.outputs,
        "init_outputs": result.init_outputs,
        "init_bags": counter_bags(result.init_counters),
        "steady_bags": counter_bags(result.steady_counters),
        "vectorized": result.vectorized,
        "batched_firings": result.batched_firings,
        "kernel_cache_keys": (None if result.kernel_cache is None
                              else sorted(result.kernel_cache)),
        "coalesced": _steady_span(tracer).args["coalesced"],
        "backend": result.backend,
    }


@pytest.mark.parametrize("app", sorted(BENCHMARKS))
def test_one_slice_doors_agree(app):
    """``execute(g)``, ``parallel_execute(g, cores=1)`` and a partition
    that puts every actor on core 0 of 2 are the same run."""
    scalar = scalar_graph(app)
    graphs = {"scalar": scalar,
              "full": compile_graph(scalar, CORE_I7, pipeline="full").graph}
    coalesced = set()
    for variant, g in graphs.items():
        everyone_on_0 = {aid: 0 for aid in g.actors}
        for backend in BACKENDS:
            doors = {
                "execute": lambda **kw: execute(g, **kw),
                "cores=1": lambda **kw: parallel_execute(g, cores=1, **kw),
                "all-on-0": lambda **kw: parallel_execute(
                    g, cores=2, partition=everyone_on_0, **kw),
            }
            seen = {}
            for door, run in doors.items():
                tracer = Tracer()
                seen[door] = _observed(
                    run(machine=CORE_I7, iterations=3, backend=backend,
                        tracer=tracer), tracer)
            for door in ("cores=1", "all-on-0"):
                assert seen[door] == seen["execute"], \
                    (variant, backend, door)
            if seen["execute"]["coalesced"]:
                coalesced.add(backend)
    # Only the vector backend hands out batches, so only it coalesces —
    # through either door.
    assert coalesced <= {"vector"}


@pytest.mark.skipif(not HAVE_NUMPY, reason="vector backend needs numpy")
def test_coalescing_is_decided_in_the_loop():
    """Both doors coalesce a one-slice vector run; a two-slice run goes
    one steady iteration at a time."""
    g = scalar_graph("DCT")
    for run in (lambda **kw: execute(g, **kw),
                lambda **kw: parallel_execute(g, cores=1, **kw)):
        tracer = Tracer()
        run(machine=CORE_I7, iterations=4, backend="vector", tracer=tracer)
        assert _steady_span(tracer).args["coalesced"] is True
    tracer = Tracer()
    parallel_execute(g, machine=CORE_I7, iterations=4, cores=2,
                     backend="vector", tracer=tracer)
    steady = [e for e in tracer.spans() if e.name.endswith(".steady")]
    assert sorted(e.name for e in steady) == ["core0.steady", "core1.steady"]
    assert all(e.args["coalesced"] is False for e in steady)


# ---------------------------------------------------------------------------
# (iii) Span inventory: the contract bench/layers.py and bench/workloads.py
# read (bench/ is frozen, so it is pinned here).

PHASE_ARGS = {"outputs", "modeled_cycles", "firings"}
CHANNEL_ARGS = {"pushes", "pops", "push_stalls", "pop_stalls",
                "max_occupancy", "capacity"}


def _inventory(tracer):
    """``name -> (category, phase, argument names)``; a name must always
    carry the same three."""
    inventory = {}
    for event in tracer.events:
        entry = (event.cat, event.ph, frozenset(event.args))
        assert inventory.setdefault(event.name, entry) == entry, event.name
    return inventory


class TestSpanInventory:
    def test_one_slice(self):
        g = _pipeline_graph()
        tracer = Tracer()
        execute(g, machine=CORE_I7, iterations=2, backend="compiled",
                tracer=tracer)
        expected = {
            "runtime.schedule": ("runtime", "X", {"graph"}),
            "execute": ("runtime", "X",
                        {"graph", "backend", "machine", "iterations",
                         "outputs", "modeled_cycles"}),
            "runtime.setup": ("runtime", "X",
                              {"kernel_cache", "actors", "tapes"}),
            "runtime.init": ("runtime", "X", PHASE_ARGS),
            "runtime.steady": ("runtime", "X",
                               PHASE_ARGS | {"iterations", "coalesced"}),
        }
        for actor in g.actors.values():
            expected[f"actor.{actor.name}"] = ("actor", "i",
                                               {"cycles", "firings"})
        assert _inventory(tracer) == {
            name: (cat, ph, frozenset(args))
            for name, (cat, ph, args) in expected.items()}

    def test_two_slices(self):
        g = _pipeline_graph()
        tracer = Tracer()
        par = parallel_execute(g, machine=CORE_I7, iterations=2, cores=2,
                               partition=_halves(g), backend="compiled",
                               tracer=tracer)
        expected = {
            "runtime.schedule": ("runtime", "X", {"graph"}),
            "parallel_execute": ("runtime", "X",
                                 {"graph", "backend", "machine",
                                  "iterations", "cores", "cut_tapes",
                                  "outputs", "wall_s", "stalls"}),
            "runtime.setup": ("runtime", "X",
                              {"kernel_cache", "actors", "tapes"}),
        }
        for core in (0, 1):
            expected[f"core{core}"] = ("core", "X", {"actors"})
            expected[f"core{core}.init"] = ("core", "X", PHASE_ARGS)
            expected[f"core{core}.steady"] = (
                "core", "X", PHASE_ARGS | {"iterations", "coalesced"})
        assert par.channel_stats
        for tid in par.channel_stats:
            expected[f"channel.tape{tid}"] = ("channel", "i", CHANNEL_ARGS)
        for actor in g.actors.values():
            expected[f"actor.{actor.name}"] = ("actor", "i",
                                               {"cycles", "firings"})
        inventory = _inventory(tracer)
        # Whether a side ever blocks is up to the OS scheduler.
        inventory.pop("channel.stall", None)
        assert inventory == {
            name: (cat, ph, frozenset(args))
            for name, (cat, ph, args) in expected.items()}
        # Phase spans are recorded by the thread that ran the slice (the
        # OS may hand a finished worker's ident to the next one).
        tids = {e.name: e.tid for e in tracer.spans()}
        for core in (0, 1):
            assert tids[f"core{core}"] == tids[f"core{core}.init"] \
                == tids[f"core{core}.steady"] != tids["parallel_execute"]


# ---------------------------------------------------------------------------
# (iv) Structure: the phase sequence exists once; the dead options are gone.


def _callers_of(name):
    """``path:function`` of every call ``name(...)`` or ``<x>.name(...)``
    under ``src/repro`` (paths relative to it)."""
    callers = set()
    for path in SRC.rglob("*.py"):
        for func in ast.walk(ast.parse(path.read_text())):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                if isinstance(node, ast.Call) and name == getattr(
                        node.func, "attr", getattr(node.func, "id", None)):
                    callers.add(f"{path.relative_to(SRC).as_posix()}:"
                                f"{func.name}")
    return callers


class TestStructure:
    def test_phase_sequence_has_one_home(self):
        assert _callers_of("reset_counters") == \
            {"runtime/executor.py:_run_phases"}
        assert _callers_of("_annotate_tape_fallbacks") == \
            {"runtime/executor.py:_run_slices"}
        # The fuzz oracle's checked run goes through the same sequence.
        assert _callers_of("_run_phases") == {
            "runtime/executor.py:_run_slices", "runtime/executor.py:worker",
            "fuzz/harness.py:_run_checked"}
        sources = [(SRC / rel).read_text() for rel in
                   ("runtime/executor.py", "multicore/parallel.py")]
        assert [text.count("cache.stats.snapshot()")
                for text in sources] == [1, 0]

    def test_dead_options_are_gone(self):
        assert "pace" not in inspect.signature(execute).parameters
        assert len(inspect.signature(execute).parameters) == 9
        params = inspect.signature(parallel_execute).parameters
        assert not {"pace", "channel_capacities", "channel_slack"} \
            & set(params)
        assert len(params) == 10
        assert "calibrated_pace" not in repro.multicore.__all__
        assert not hasattr(repro.multicore, "calibrated_pace")

    def test_graph_run_has_one_constructor_mode(self):
        from repro.runtime.executor import _GraphRun
        params = inspect.signature(_GraphRun.__init__).parameters
        assert all(p.default is inspect.Parameter.empty
                   for p in params.values())

    def test_executor_imports_multicore_only_lazily(self):
        import repro.runtime.executor as executor_mod
        tree = ast.parse(Path(executor_mod.__file__).read_text())
        for node in tree.body:      # module level only
            if isinstance(node, ast.ImportFrom):
                assert "multicore" not in (node.module or "")
            elif isinstance(node, ast.Import):
                assert all("multicore" not in a.name for a in node.names)


# ---------------------------------------------------------------------------
# (v) A worker failure is the caller's failure.


class _Boom(Exception):
    pass


class TestWorkerFailure:
    @pytest.mark.parametrize("failing_core", [0, 1])
    def test_worker_exception_surfaces_as_itself(self, failing_core):
        g = _pipeline_graph()
        core_of = _halves(g)
        victim = next(aid for aid in g.ordered_actors()
                      if core_of[aid] == failing_core)
        fired = []

        def hook(actor_id, name):
            if actor_id == victim:
                fired.append(actor_id)
                if len(fired) == 3:
                    raise _Boom(name)

        with pytest.raises(_Boom):
            parallel_execute(g, machine=CORE_I7, iterations=64, cores=2,
                             partition=core_of, stall_timeout=30.0,
                             backend=HookedBackend(hook))
        # The peer blocked on its channel was released, not left to time
        # out: every worker has been joined.
        assert _core_threads() == []

    def test_one_slice_failure_propagates_directly(self):
        def hook(actor_id, name):
            raise _Boom(name)

        with pytest.raises(_Boom):
            execute(_pipeline_graph(), machine=CORE_I7,
                    backend=HookedBackend(hook))
