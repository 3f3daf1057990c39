"""Pipeline routes are equivalent to the options-gated driver.

``compile_graph`` picks its configuration one of three ways — the
default (neither ``options`` nor ``pipeline``), a named ablation preset
(``pipeline="full"``, …), or an explicit :class:`MacroSSOptions`.  The
spellings of one configuration must produce the same report and the
same compiled graph, on every registered application and every
registered target, or a route silently changed the compiler.
"""

from __future__ import annotations

import pytest

from repro.apps import BENCHMARKS
from repro.experiments.harness import scalar_graph
from repro.runtime import execute
from repro.simd import (
    PIPELINES,
    MacroSSOptions,
    compile_graph,
    get_pipeline_options,
    get_target,
    list_pipelines,
    list_targets,
)

ALL_APPS = sorted(BENCHMARKS)
ALL_TARGETS = list_targets()

#: apps whose execution outputs we compare across routes (full app × target
#: compile equivalence is checked for everything; executing everything
#: would dominate suite runtime for no extra signal).
EXECUTED_APPS = ("RunningExample", "BitonicSort")


def report_fingerprint(compiled):
    """Everything the report records that a pipeline could perturb."""
    report = compiled.report
    return (
        report.machine,
        report.scaling_factor,
        dict(report.decisions),
        dict(report.tape_strategies),
        [list(seg) for seg in report.vertical_segments],
        [list(sj) for sj in report.horizontal_splitjoins],
        list(report.skipped_horizontal),
        compiled.graph.summary(),
    )


@pytest.mark.parametrize("target", ALL_TARGETS)
@pytest.mark.parametrize("app", ALL_APPS)
def test_explicit_default_pipeline_matches_options_route(app, target):
    machine = get_target(target)
    source = scalar_graph(app)
    via_default = compile_graph(source, machine)
    via_name = compile_graph(source, machine, pipeline="full")
    via_options = compile_graph(source, machine, options=MacroSSOptions())
    expected = report_fingerprint(via_default)
    assert report_fingerprint(via_name) == expected
    assert report_fingerprint(via_options) == expected


@pytest.mark.parametrize("name", sorted(PIPELINES))
def test_named_pipeline_matches_its_options_preset(name):
    source = scalar_graph("RunningExample")
    machine = get_target("core-i7-sse4+sagu")
    preset = get_pipeline_options(name)
    by_name = compile_graph(source, machine, pipeline=name)
    by_options = compile_graph(source, machine, options=preset)
    assert by_name.report.options == preset
    assert report_fingerprint(by_name) == report_fingerprint(by_options)


@pytest.mark.parametrize("target", ALL_TARGETS)
@pytest.mark.parametrize("app", EXECUTED_APPS)
def test_pipeline_routes_execute_identically(app, target):
    machine = get_target(target)
    source = scalar_graph(app)
    via_default = compile_graph(source, machine)
    via_name = compile_graph(source, machine, pipeline="full")
    ref = execute(via_default.graph, machine=machine, iterations=2)
    alt = execute(via_name.graph, machine=machine, iterations=2)
    assert alt.outputs == ref.outputs
    assert alt.init_outputs == ref.init_outputs


def test_named_pipelines_cover_the_figure_configurations():
    names = list_pipelines()
    for expected in ("full", "scalar", "single-only", "no-tape",
                     "single-only/no-tape"):
        assert expected in names
    assert get_pipeline_options("scalar") == MacroSSOptions(
        single_actor=False, vertical=False, horizontal=False,
        tape_optimization=False)
    assert get_pipeline_options("single-only") == MacroSSOptions(
        vertical=False)


def test_unknown_pipeline_name_did_you_mean():
    with pytest.raises(KeyError) as exc:
        get_pipeline_options("single-onyl")
    assert "did you mean 'single-only'" in str(exc.value)


def test_scalar_pipeline_leaves_graph_scalar():
    source = scalar_graph("RunningExample")
    compiled = compile_graph(source, get_target("core-i7-sse4"),
                             pipeline="scalar")
    assert all(d.startswith("scalar") for d in
               compiled.report.decisions.values())
    assert len(compiled.graph.actors) == len(source.actors)
