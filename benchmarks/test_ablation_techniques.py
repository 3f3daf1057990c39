"""Ablation (beyond the paper): cumulative contribution of each MacroSS
technique — single-actor only, + vertical, + horizontal, + tape
optimization — over the scalar baseline.
"""

from repro.experiments.harness import (
    DEFAULT_BENCHMARKS,
    Variants,
    arithmetic_mean,
)
from repro.experiments.tables import format_table
from repro.simd.machine import CORE_I7
from repro.simd.pipeline import MacroSSOptions

from .conftest import record

CONFIGS = [
    ("single", MacroSSOptions(vertical=False, horizontal=False,
                              tape_optimization=False)),
    ("+vertical", MacroSSOptions(horizontal=False, tape_optimization=False)),
    ("+horizontal", MacroSSOptions(tape_optimization=False)),
    ("+tape-opt", MacroSSOptions()),
]


def run_ablation():
    rows = []
    for name in DEFAULT_BENCHMARKS:
        variants = Variants(name, CORE_I7)
        base = variants.baseline_cpo()
        speedups = [base / variants.macro_cpo(options)
                    for _label, options in CONFIGS]
        rows.append((name, *speedups))
    means = [arithmetic_mean([row[i] for row in rows])
             for i in range(1, len(CONFIGS) + 1)]
    rows.append(("AVERAGE", *means))
    return rows, means


def test_ablation_techniques(benchmark):
    rows, means = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    record("ablation_techniques",
           format_table(["benchmark"] + [c[0] for c in CONFIGS], rows))
    # Each technique must help on average, cumulatively.
    assert means[0] > 1.0
    assert means[1] >= means[0]
    assert means[2] >= means[1]
    assert means[3] >= means[2]
    # Horizontal is the largest single contributor on this suite
    # (FilterBank/BeamFormer/AudioBeam/ChannelVocoder/FMRadio depend on it).
    assert means[2] - means[1] > 0.1
