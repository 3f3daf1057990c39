"""Pass-invariant tests built on ``compile_graph(..., verify_each_pass=True)``
and the driver's per-pass trace spans.

After *every* Algorithm-1 pass — not just at the end of compilation —
the work graph must

* validate structurally (ports, rates, body/rate consistency);
* admit a balanced repetition vector with positive repetitions;
* keep every actor reachable from the actor table (no dangling tapes).

``verify_each_pass`` runs exactly that check
(:func:`repro.graph.validate.invariant_problems`) at every pass boundary
and raises naming the pass, so a future pass reordering or a new pass
inserted mid-driver cannot silently rely on a later pass repairing its
breakage.

Parametrized over every registered application × {Core-i7, Core-i7+SAGU,
NEON}.
"""

from __future__ import annotations

import pytest

from repro.apps import BENCHMARKS
from repro.experiments.harness import scalar_graph
from repro.obs import Tracer
from repro.simd import (
    CORE_I7,
    CORE_I7_SAGU,
    NEON_LIKE,
    PASS_NAMES,
    compile_graph,
)

MACHINES = {
    "i7": CORE_I7,
    "sagu": CORE_I7_SAGU,
    "neon": NEON_LIKE,
}

ALL_APPS = sorted(BENCHMARKS)


def _verified_compile(app, machine):
    """Compile with per-pass verification; return the result and the
    ``cat="pass"`` spans, in driver order."""
    tracer = Tracer()
    compiled = compile_graph(scalar_graph(app), machine, tracer=tracer,
                             verify_each_pass=True)
    return compiled, tracer.spans(cat="pass")


@pytest.mark.parametrize("mach_label", sorted(MACHINES))
@pytest.mark.parametrize("app", ALL_APPS)
def test_every_pass_preserves_invariants(app, mach_label):
    _, spans = _verified_compile(app, MACHINES[mach_label])
    # One verified pass boundary per Algorithm-1 pass, in driver order;
    # the last one (tape.optimize) checks the graph compile_graph returns.
    assert tuple(span.name for span in spans) == PASS_NAMES


@pytest.mark.parametrize("app", ["FMRadio", "DCT"])
def test_hook_sees_intermediate_not_final_graph(app):
    """Pass spans record the *work* graph mid-flight: the first pass sees
    the pre-SIMDization actor set even when later passes shrink it."""
    compiled, spans = _verified_compile(app, CORE_I7)
    by_name = {span.name: span.args for span in spans}
    assert by_name["prepass.analysis"]["actors_before"] == \
        len(scalar_graph(app).actors)
    assert by_name["tape.optimize"]["actors_after"] == \
        len(compiled.graph.actors)


def test_rate_consistency_survives_equation1_rescaling():
    """Apps whose SIMDization rescales the repetition vector (M > 1)
    still balance at every boundary."""
    hit = []
    for app in ALL_APPS:
        reports = compile_graph(scalar_graph(app), CORE_I7).report
        if reports.scaling_factor > 1:
            hit.append(app)
            _verified_compile(app, CORE_I7)
    assert hit, "expected at least one app with Equation (1) scaling > 1"
