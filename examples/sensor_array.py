#!/usr/bin/env python3
"""Sensor-array beamforming: horizontal SIMDization of *stateful* actors.

Single-actor and vertical SIMDization cannot touch stateful actors — but a
sensor array is full of them: every channel runs the same calibration
filter with its own delay-line state.  Horizontal SIMDization (§3.3) keeps
each channel's state in a vector lane and runs all four in lockstep.

The example also demonstrates the multicore scheduler of Figure 13 on this
graph: partition-first scheduling, then macro-SIMDization per core.

Run:  python examples/sensor_array.py
"""

from repro import CORE_I7, Program, compile_graph, execute, flatten, pipeline
from repro.apps.beamformer import make_beam, make_channel_fir
from repro.apps.dspkit import adder
from repro.apps.sources import lcg_source
from repro.graph import duplicate_splitter, roundrobin_joiner, splitjoin
from repro.experiments.fig13 import multicore_speedups

CHANNELS = 4
BEAMS = 4


def build() -> Program:
    return Program("sensor_array", pipeline(
        lcg_source("sensors", push=8),
        splitjoin(duplicate_splitter(CHANNELS),
                  [make_channel_fir(i) for i in range(CHANNELS)],
                  roundrobin_joiner([1] * CHANNELS)),
        splitjoin(duplicate_splitter(BEAMS),
                  [make_beam(i) for i in range(BEAMS)],
                  roundrobin_joiner([1] * BEAMS)),
        adder("detector", BEAMS),
    ))


def main() -> None:
    graph = flatten(build())
    scalar = execute(graph, machine=CORE_I7, iterations=4)
    compiled = compile_graph(graph, CORE_I7)

    print("sensor array: 4 stateful channel FIRs + 4 steered beams")
    print("-" * 60)
    for name, decision in sorted(compiled.report.decisions.items()):
        print(f"  {name:14s} {decision}")

    simd = execute(compiled.graph, machine=CORE_I7, iterations=4)
    n = min(len(scalar.outputs), len(simd.outputs))
    assert simd.outputs[:n] == scalar.outputs[:n]
    print(f"\nstateful lanes verified: {n} outputs identical")
    speedup = (scalar.cycles_per_output(CORE_I7)
               / simd.cycles_per_output(CORE_I7))
    print(f"macro-SIMDization speedup: {speedup:.2f}x "
          "(all from horizontal SIMDization)")

    print("\nmulticore scheduling (Figure 13 style):")
    row = multicore_speedups(graph, CORE_I7, [2, 4])
    print(f"  2 cores scalar : {row['2c']:.2f}x    "
          f"2 cores + SIMD: {row['2c+simd']:.2f}x")
    print(f"  4 cores scalar : {row['4c']:.2f}x    "
          f"4 cores + SIMD: {row['4c+simd']:.2f}x")


if __name__ == "__main__":
    main()
