"""Mutation testing of the single mover definition.

:mod:`repro.runtime.movers` carries one injectable defect —
``_MUT_MOVER_SHIFT`` — which rotates every mover's lane map.  The
compiled per-firing closure and the vector batch closure are both derived
from that map, so an armed seam corrupts both at once while the
interpreter backend's ``executor._fire_*`` reference stays correct: the
interp-vs-{compiled, vector} fuzz oracle must catch it on both axes and
shrink it, and the identical campaign must be clean with the seam at rest.
(The unit-level kill lives in ``tests/runtime/test_native_movers.py``.)
"""

from __future__ import annotations

import pytest

import repro.runtime.movers as movers_mod
from repro.apps.sources import passthrough_sink, ramp_source
from repro.fuzz import check_program, run_fuzz
from repro.fuzz.harness import check_graph, default_backends
from repro.graph.builtins import roundrobin_joiner, roundrobin_splitter
from repro.graph.flatten import flatten
from repro.graph.structure import Program, pipeline, splitjoin

from ..conftest import make_scaler

MUTATION_BUDGET = 8


def _splitjoin_graph():
    """source(3) -> rr(2,1) split -> {scale, scale} -> rr(2,1) join -> out:
    uneven weights, so a rotated map misroutes distinct ramp values."""
    return flatten(Program("movermut", pipeline(
        ramp_source("src", push=3, step=0.5),
        splitjoin(roundrobin_splitter([2, 1]),
                  [make_scaler(2.0, name="a"), make_scaler(3.0, name="b")],
                  roundrobin_joiner([2, 1])),
        passthrough_sink("out", pop=3))))


@pytest.mark.fuzz
@pytest.mark.parametrize("backend", default_backends())
def test_backend_axis_catches_mover_shift(backend, monkeypatch):
    graph = _splitjoin_graph()
    assert check_graph(graph, backends=(backend,)).ok  # control arm
    monkeypatch.setattr(movers_mod, "_MUT_MOVER_SHIFT", 1)
    report = check_graph(graph, backends=(backend,))
    assert not report.ok, "oracle missed the armed mover shift"
    div = report.divergences[0]
    assert div.kind == "backend"
    assert div.config.endswith("/" + backend)


@pytest.mark.fuzz
def test_fuzz_campaign_catches_mover_shift_and_shrinks(monkeypatch, tmp_path):
    monkeypatch.setattr(movers_mod, "_MUT_MOVER_SHIFT", 1)
    report = run_fuzz(0, MUTATION_BUDGET, corpus_dir=tmp_path,
                      max_findings=1)
    assert report.findings, "campaign missed the armed mover defect"
    finding = report.findings[0]
    assert finding.divergence.kind == "backend"
    assert finding.minimized.filter_count() <= 4, finding.minimized
    # The minimized repro still provokes the divergence while armed…
    assert not check_program(finding.minimized).ok
    # …and replays clean once the seam is disarmed.
    monkeypatch.setattr(movers_mod, "_MUT_MOVER_SHIFT", 0)
    assert check_program(finding.minimized).ok


@pytest.mark.fuzz
def test_clean_campaign_with_seam_disarmed():
    assert movers_mod._MUT_MOVER_SHIFT == 0
    report = run_fuzz(0, MUTATION_BUDGET)
    assert report.ok, "\n".join(str(f.divergence) for f in report.findings)
