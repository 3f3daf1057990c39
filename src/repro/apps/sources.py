"""Reusable source and sink filters for the benchmark programs.

Sources are stateful (a counter or PRNG seed) so they are — correctly —
excluded from *MacroSS SIMDization*, exactly like StreamIt's file/radio
sources on the paper's platform: the compile passes leave them scalar and
their counter bags (so every modeled figure) say so.  That is the paper's
rule about the *modeled* machine, not about how the host runs them: the
vector runtime still batches a source's firings when its state update is
a map ``s ← (a·s + c) % m`` of constants — the ramp's ``t ← t + step`` in
closed form, the LCG below as an exact int64 jump-ahead scan
(:mod:`repro.runtime.vector.kernel`) — charging the same per-firing
events.  All sources are deterministic, so scalar and SIMDized executions
of a program are comparable element-for-element.
"""

from __future__ import annotations

from ..graph.actor import FilterSpec, StateVar
from ..ir import FLOAT, INT, WorkBuilder, call


def lcg_source(name: str = "source", push: int = 8,
               seed: int = 12345) -> FilterSpec:
    """Pseudo-random floats in [-1, 1) from a 31-bit linear congruential
    generator (the classic glibc constants)."""
    b = WorkBuilder()
    state = b.var("seed")
    with b.loop("i", 0, push):
        b.set(state, (state * 1103515245 + 12345) % 2147483648)
        b.push(call("float", state % 2000) / 1000.0 - 1.0)
    return FilterSpec(
        name, pop=0, push=push,
        state=(StateVar("seed", INT, 0, seed),),
        work_body=b.build(),
    )


def ramp_source(name: str = "ramp", push: int = 8,
                step: float = 1.0) -> FilterSpec:
    """Monotone ramp source: 0, step, 2*step, ... (easy to reason about in
    tests)."""
    b = WorkBuilder()
    t = b.var("t")
    with b.loop("i", 0, push):
        b.push(t)
        b.set(t, t + step)
    return FilterSpec(
        name, pop=0, push=push,
        state=(StateVar("t", FLOAT, 0, 0.0),),
        work_body=b.build(),
    )


def sine_source(name: str = "sine", push: int = 8,
                omega: float = 0.1) -> FilterSpec:
    """Sampled sinusoid — a stand-in for the audio/RF front-ends of the
    StreamIt benchmarks."""
    b = WorkBuilder()
    t = b.var("t")
    with b.loop("i", 0, push):
        b.push(call("sin", t * omega))
        b.set(t, t + 1.0)
    return FilterSpec(
        name, pop=0, push=push,
        state=(StateVar("t", FLOAT, 0, 0.0),),
        work_body=b.build(),
    )


def checksum_sink(name: str = "sink", pop: int = 8) -> FilterSpec:
    """Stateful folding sink: pushes a running checksum once per firing.

    Keeping ``push == 1`` gives every program a scalar output stream to
    collect and compare across compilations.
    """
    b = WorkBuilder()
    acc = b.var("acc")
    with b.loop("i", 0, pop):
        b.set(acc, acc + b.pop())
    b.push(acc)
    return FilterSpec(
        name, pop=pop, push=1,
        state=(StateVar("acc", FLOAT, 0, 0.0),),
        work_body=b.build(),
    )


def passthrough_sink(name: str = "out", pop: int = 1) -> FilterSpec:
    """Stateless identity tail; keeps every computed sample in the output
    stream (strict element-wise comparisons in tests)."""
    b = WorkBuilder()
    with b.loop("i", 0, pop):
        b.push(b.pop())
    return FilterSpec(name, pop=pop, push=pop, work_body=b.build())
