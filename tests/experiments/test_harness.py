"""Tests for the experiment harness utilities."""

import pytest

from repro.experiments.harness import (
    DEFAULT_BENCHMARKS,
    Variants,
    arithmetic_mean,
    resolve_benchmarks,
)
from repro.experiments.tables import format_table
from repro.simd.machine import CORE_I7
from repro.simd.pipeline import SINGLE_ACTOR_ONLY


class TestResolve:
    def test_default_list(self):
        assert resolve_benchmarks(None) == list(DEFAULT_BENCHMARKS)

    def test_explicit_subset(self):
        assert resolve_benchmarks(["FFT", "DCT"]) == ["FFT", "DCT"]

    def test_unknown_rejected(self):
        with pytest.raises(KeyError):
            resolve_benchmarks(["FFT", "Bogus"])

    def test_non_default_benchmarks_resolvable(self):
        assert resolve_benchmarks(["DES", "Radar"]) == ["DES", "Radar"]


class TestMeans:
    def test_arithmetic(self):
        assert arithmetic_mean([1.0, 2.0, 3.0]) == 2.0
        assert arithmetic_mean([]) == 0.0


class TestVariants:
    def test_measurements_cached(self):
        v = Variants("BitonicSort", CORE_I7)
        first = v.macro_cpo()
        second = v.macro_cpo()
        assert first == second
        assert "macro" in v._cpo

    def test_distinct_tags_distinct_measurements(self):
        v = Variants("BitonicSort", CORE_I7)
        full = v.macro_cpo()
        single = v.macro_cpo(SINGLE_ACTOR_ONLY, tag="single")
        assert single >= full  # single-actor only can't beat full MacroSS

    def test_baseline_positive(self):
        assert Variants("FFT", CORE_I7).baseline_cpo() > 0


class TestTables:
    def test_format_alignment(self):
        text = format_table(["name", "x"], [("a", 1.0), ("long-name", 22.5)])
        lines = text.splitlines()
        assert lines[0].startswith("name")
        assert "-" in lines[1]
        assert lines[3].startswith("long-name")
        assert lines[2].endswith("1.00")

    def test_non_numeric_cells(self):
        text = format_table(["k", "v"], [("a", "yes")])
        assert "yes" in text
