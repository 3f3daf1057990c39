"""Coverage for the report formatting paths: ``CompilationReport.summary``
and the ``perf/report.py`` table formatters (previously untested),
including empty-counter and single-actor edge cases."""

from __future__ import annotations

import pytest

from repro.experiments.harness import scalar_graph
from repro.obs import hottest_actors_table, kernel_cache_summary
from repro.perf import (
    PerActorCounters,
    PerfCounters,
    classify_cycles,
    event_class_table,
    profile_table,
)
from repro.runtime import execute
from repro.simd import CORE_I7, CompilationReport, MacroSSOptions, \
    compile_graph

from ..conftest import linear_program, make_ramp_source, make_scaler


# -- CompilationReport.summary ------------------------------------------------

class TestCompilationReportSummary:
    def test_empty_report_has_header_and_scaling_only(self):
        report = CompilationReport(machine="core-i7",
                                   options=MacroSSOptions())
        summary = report.summary()
        lines = summary.splitlines()
        assert lines[0] == "MacroSS report (core-i7):"
        assert lines[1] == "  Equation (1) scaling factor M = 1"
        assert len(lines) == 2

    def test_decisions_sorted_and_rendered(self):
        report = CompilationReport(machine="m", options=MacroSSOptions())
        report.decisions = {"b": "single", "a": "vertical:fused_a"}
        report.tape_strategies = {"x->y": "permute(stride 4)"}
        report.scaling_factor = 4
        summary = report.summary()
        assert "M = 4" in summary
        a_pos = summary.index("a: vertical:fused_a")
        b_pos = summary.index("b: single")
        assert a_pos < b_pos  # sorted by actor name
        assert "tape x->y: permute(stride 4)" in summary

    def test_real_compile_summary_covers_all_actors(self):
        compiled = compile_graph(scalar_graph("RunningExample"), CORE_I7)
        summary = compiled.report.summary()
        for name in compiled.report.decisions:
            assert name in summary
        assert "Equation (1) scaling factor" in summary


# -- classify_cycles ----------------------------------------------------------

class TestClassifyCycles:
    def test_empty_counters_all_zero(self):
        buckets = classify_cycles(PerfCounters(), CORE_I7)
        assert set(buckets) >= {"scalar-alu", "vector-alu", "memory",
                                "pack/unpack", "math", "overhead"}
        assert all(v == 0.0 for v in buckets.values())

    def test_math_events_bucketed(self):
        counters = PerfCounters({"m_sin": 2, "vm_cos": 1, "s_alu": 3})
        buckets = classify_cycles(counters, CORE_I7)
        assert buckets["math"] > 0
        assert buckets["scalar-alu"] == 3 * CORE_I7.price("s_alu")

    def test_unknown_event_lands_in_overhead(self):
        counters = PerfCounters({"fire": 5})
        buckets = classify_cycles(counters, CORE_I7)
        assert buckets["overhead"] == 5 * CORE_I7.price("fire")


# -- profile_table / event_class_table ---------------------------------------

class TestProfileTable:
    def test_empty_counters_renders_total_row_only(self):
        graph = linear_program(make_ramp_source(), make_scaler(pop=4))
        table = profile_table(graph, PerActorCounters(), CORE_I7)
        lines = table.splitlines()
        assert "actor" in lines[0] and "dominant class" in lines[0]
        assert lines[-1].startswith("TOTAL")
        assert len(lines) == 3  # header, rule, TOTAL

    def test_single_actor_row_is_100_percent(self):
        graph = linear_program(make_ramp_source(), make_scaler(pop=4))
        actor_id = next(iter(graph.actors))
        counters = PerActorCounters()
        counters.for_actor(actor_id).add("s_alu", 10)
        table = profile_table(graph, counters, CORE_I7)
        row = [l for l in table.splitlines()
               if l.startswith(graph.actors[actor_id].name)][0]
        assert "100.0%" in row
        assert "scalar-alu" in row

    def test_top_truncates_ranking(self):
        graph = scalar_graph("FMRadio")
        result = execute(graph, machine=CORE_I7, iterations=1)
        full = profile_table(graph, result.steady_counters, CORE_I7)
        top2 = profile_table(graph, result.steady_counters, CORE_I7, top=2)
        assert len(top2.splitlines()) == 2 + 2 + 1  # hdr+rule+2 rows+TOTAL
        assert len(full.splitlines()) > len(top2.splitlines())
        # TOTAL reflects the whole set even when truncated (column widths
        # differ between the two tables, so compare tokens).
        assert full.splitlines()[-1].split() == top2.splitlines()[-1].split()

    def test_heaviest_actor_first(self):
        graph = scalar_graph("DCT")
        result = execute(graph, machine=CORE_I7, iterations=1)
        table = profile_table(graph, result.steady_counters, CORE_I7)
        cycles = result.steady_counters.cycles_by_actor(CORE_I7)
        heaviest = graph.actors[
            max(cycles, key=lambda aid: cycles[aid])].name
        assert table.splitlines()[2].startswith(heaviest)


class TestEventClassTable:
    def test_empty_counters_renders_header_only(self):
        table = event_class_table(PerfCounters(), CORE_I7)
        lines = table.splitlines()
        assert lines[0].startswith("event class")
        assert len(lines) == 2  # header + rule, no rows

    def test_zero_buckets_suppressed(self):
        counters = PerfCounters({"s_alu": 4})
        table = event_class_table(counters, CORE_I7)
        assert "scalar-alu" in table
        assert "vector-alu" not in table
        assert "100.0%" in table


# -- obs report helpers -------------------------------------------------------

class TestHottestActorsTable:
    def test_firings_and_share_columns(self):
        graph = scalar_graph("DCT")
        result = execute(graph, machine=CORE_I7, iterations=2)
        table = hottest_actors_table(graph, result, CORE_I7, top=3)
        lines = table.splitlines()
        assert lines[0].split() == ["actor", "firings", "cycles", "share",
                                    "dominant", "class"]
        assert len(lines) == 2 + 3
        firings = result.firings_by_actor()
        assert any(str(max(firings.values())) in line for line in lines[2:])

    def test_single_actor_graph(self):
        graph = linear_program(make_ramp_source(), make_scaler(pop=4))
        result = execute(graph, machine=CORE_I7, iterations=1)
        table = hottest_actors_table(graph, result, CORE_I7, top=10)
        body = table.splitlines()[2:]
        assert len(body) == len(graph.actors)
        assert "100.0%" in table or "%" in table


class TestKernelCacheSummary:
    def test_none_for_interp(self):
        assert "n/a" in kernel_cache_summary(None)
        assert "n/a" in kernel_cache_summary({})

    def test_formats_all_counters(self):
        line = kernel_cache_summary({"lookups": 10, "hits": 7, "misses": 3,
                                     "compiled": 3, "size": 2})
        assert line == ("kernel cache: 10 lookups, 7 hits, 3 misses "
                        "(3 compiled), 2 resident")

    def test_execute_populates_kernel_cache_field(self):
        graph = linear_program(make_ramp_source(), make_scaler(pop=4))
        interp = execute(graph, machine=CORE_I7, iterations=1,
                         backend="interp")
        assert interp.kernel_cache is None
        from repro.runtime.compiled import CompiledBackend
        compiled = execute(graph, machine=CORE_I7, iterations=1,
                           backend=CompiledBackend())
        assert compiled.kernel_cache is not None
        assert compiled.kernel_cache["lookups"] > 0
        assert compiled.kernel_cache["size"] == \
            compiled.kernel_cache["compiled"]
