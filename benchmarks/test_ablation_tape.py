"""Ablation (beyond the paper): tape-access strategy comparison.

Columns: macro-SIMDized with scalar strided accesses (§3.1), with the
permutation optimization (§3.4, no SAGU), and with the SAGU.  This
decomposes Figure 12 into its two mechanisms.
"""

from repro.experiments.harness import (
    DEFAULT_BENCHMARKS,
    Variants,
    arithmetic_mean,
)
from repro.experiments.tables import format_table
from repro.simd.machine import CORE_I7, CORE_I7_SAGU
from repro.simd.pipeline import MacroSSOptions

from .conftest import record

_SCALAR_TAPES = MacroSSOptions(tape_optimization=False)


def run_ablation():
    rows = []
    for name in DEFAULT_BENCHMARKS:
        plain = Variants(name, CORE_I7)
        sagu = Variants(name, CORE_I7_SAGU)
        base = plain.baseline_cpo()
        rows.append((
            name,
            base / plain.macro_cpo(_SCALAR_TAPES),
            base / plain.macro_cpo(),
            base / sagu.macro_cpo(),
        ))
    means = [arithmetic_mean([r[i] for r in rows]) for i in (1, 2, 3)]
    rows.append(("AVERAGE", *means))
    return rows, means


def test_tape_strategy_ablation(benchmark):
    rows, means = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    record("ablation_tape",
           format_table(["benchmark", "scalar tapes", "permute", "SAGU"],
                        rows))
    scalar_tapes, permute, sagu = means
    assert permute >= scalar_tapes, "permutation optimization helps"
    assert sagu >= permute, "SAGU at least matches permutes"
