"""Shared experiment harness.

Builds each benchmark's compilation variants once and measures modeled
steady-state cycles per output item.  All speedups in the figures are
ratios of that throughput metric (it is invariant under Equation (1)
repetition rescaling, which changes work-per-iteration but not
work-per-item).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Union

from ..apps import BENCHMARKS, get_benchmark
from ..autovec import CompilerProfile, auto_vectorize
from ..graph.flatten import flatten
from ..graph.stream_graph import StreamGraph
from ..obs.tracer import Tracer
from ..runtime.executor import execute
from ..simd.machine import CORE_I7, MachineDescription, get_target
from ..simd.pipeline import MacroSSOptions, compile_graph

#: Benchmarks reported in the figures (paper order: suite apps first).
DEFAULT_BENCHMARKS = (
    "AudioBeam",
    "BeamFormer",
    "BitonicSort",
    "ChannelVocoder",
    "DCT",
    "FFT",
    "FMRadio",
    "FilterBank",
    "MP3Decoder",
    "MatrixMult",
    "MatrixMultBlock",
    "Vocoder",
)

#: Steady-state iterations measured per variant (cost model is
#: deterministic, so a couple of iterations suffice).
MEASURE_ITERATIONS = 2


def scalar_graph(name: str) -> StreamGraph:
    return flatten(get_benchmark(name))


def cycles_per_output(graph: StreamGraph, machine: MachineDescription,
                      iterations: int = MEASURE_ITERATIONS,
                      backend: str = "interp",
                      tracer: Optional[Tracer] = None) -> float:
    result = execute(graph, machine=machine, iterations=iterations,
                     backend=backend, tracer=tracer)
    return result.cycles_per_output(machine)


@dataclass
class Variants:
    """All compiled/measured variants of one benchmark on one machine.

    ``backend`` selects the execution engine used for every measurement;
    modeled cycle counts are backend-independent (the differential suite
    enforces counter equality), so figures are reproducible either way —
    ``"compiled"`` just regenerates them faster.

    ``machine`` may be a registered target name (``"sve-like"``,
    ``"i7+sagu"``, …) resolved through the target registry, or a
    :class:`MachineDescription`.
    """

    name: str
    machine: Union[str, MachineDescription]
    backend: str = "interp"
    #: optional tracer threaded through every compile + measurement
    #: (span per variant; see ``repro.obs``).
    tracer: Optional[Tracer] = None
    scalar: StreamGraph = field(init=False)

    def __post_init__(self) -> None:
        self.machine = get_target(self.machine)
        self.scalar = scalar_graph(self.name)
        #: measured cycles per output, keyed by variant: a label for the
        #: scalar and auto-vectorized builds, the options for MacroSS ones.
        self._cpo: Dict[Union[str, MacroSSOptions], float] = {}

    def baseline_cpo(self) -> float:
        return self._measure("scalar", self.scalar)

    def autovec_cpo(self, profile: CompilerProfile) -> float:
        key = f"autovec:{profile.name}"
        if key not in self._cpo:
            graph = self.scalar.clone()
            auto_vectorize(graph, profile, self.machine)
            self._measure(key, graph)
        return self._cpo[key]

    def macro_graph(self, options: Optional[MacroSSOptions] = None
                    ) -> StreamGraph:
        if options is None:
            options = MacroSSOptions()
        return compile_graph(self.scalar, self.machine, options,
                             tracer=self.tracer).graph

    def macro_cpo(self, options: Optional[MacroSSOptions] = None) -> float:
        if options is None:
            options = MacroSSOptions()
        if options not in self._cpo:
            self._measure(options, self.macro_graph(options))
        return self._cpo[options]

    def macro_autovec_cpo(self, profile: CompilerProfile) -> float:
        key = f"macro+autovec:{profile.name}"
        if key not in self._cpo:
            graph = self.macro_graph()
            auto_vectorize(graph, profile, self.machine)
            self._measure(key, graph)
        return self._cpo[key]

    def _measure(self, key: Union[str, MacroSSOptions],
                 graph: StreamGraph) -> float:
        if key not in self._cpo:
            self._cpo[key] = cycles_per_output(graph, self.machine,
                                               backend=self.backend,
                                               tracer=self.tracer)
        return self._cpo[key]


def resolve_benchmarks(names: Optional[Sequence[str]] = None) -> List[str]:
    if names:
        unknown = sorted(set(names) - set(BENCHMARKS))
        if unknown:
            raise KeyError(f"unknown benchmarks: {unknown}")
        return list(names)
    return list(DEFAULT_BENCHMARKS)


def arithmetic_mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0
