"""Mutation testing of the vector-backend oracle axis.

The fuzz matrix gained a third backend (``…/vector``); these tests prove
that axis is not vacuous.  :mod:`repro.runtime.vector.kernel` carries
four deliberately injectable defects — ``_MUT_READ_SHIFT`` (off-by-one on
every batched slab read), ``_MUT_SWAP_SUB`` (swapped subtraction
operands), ``_MUT_SCAN_SHIFT`` (off-by-one in the jump-ahead index of a
scanned state recurrence) and ``_MUT_RING_SHIFT`` (off-by-one in a state
ring's last-writer index) — representing the classic ways a batch kernel
miscompiles: wrong *addressing*, wrong *arithmetic* and wrong *state*.
With any seam armed, the interp-vs-vector oracle must diverge; with all
disarmed, the identical campaign must be clean.  The scan seam is only
reachable through the generator's LCG source kind: with that kind
switched off the armed mutant survives the same campaign.

Batch kernels only execute for actors firing more than once per checked
iteration, so the direct oracle tests use a rate-mismatched pipeline
(source pushes 8, worker pops 2 → 4 firings) rather than a 1:1 graph.
"""

from __future__ import annotations

import pytest

np = pytest.importorskip("numpy")

import repro.fuzz.generator as fuzz_generator
import repro.runtime.vector.kernel as vector_kernel
from repro.apps.sources import checksum_sink, lcg_source, ramp_source
from repro.fuzz import check_program, run_fuzz
from repro.fuzz.corpus import DEFAULT_CORPUS, desc_hash
from repro.fuzz.harness import OPTION_SETS, check_graph, default_backends
from repro.simd import list_targets
from repro.graph.actor import FilterSpec, StateVar
from repro.graph.flatten import flatten
from repro.graph.structure import Program, pipeline
from repro.ir import FLOAT, INT, ArrayHandle, WorkBuilder

MUTATION_BUDGET = 8


def _multi_firing_graph(op: str):
    """source(8) -> worker(pop 2, push 2; fires 4x) -> sink(8); ``"lcg"``
    swaps in an LCG source(2) that itself fires 4x, ``"ring"`` a worker
    that is a 3-slot delay line."""
    b = WorkBuilder()
    state = ()
    if op == "ring":
        buf, ph = ArrayHandle("buf"), b.var("ph")
        for _ in range(2):
            b.push(buf[ph] + 0.5)
            b.set(buf[ph], b.pop())
            b.set(ph, (ph + 1) % 3)
        state = (StateVar("buf", FLOAT, 3, 0.0), StateVar("ph", INT, 0, 0))
    else:
        x = b.let("x", b.pop())
        y = b.let("y", b.pop())
        b.push((x - y) if op == "sub" else (x + y))
        b.push(x * 2.0)
    worker = FilterSpec("worker", pop=2, push=2, state=state,
                        work_body=b.build())
    source = lcg_source("src", push=2) if op == "lcg" \
        else ramp_source("src", push=8, step=0.5)
    return flatten(Program("mut", pipeline(
        source, worker, checksum_sink("sink", pop=8))))


def test_default_backends_includes_vector():
    assert default_backends() == ("compiled", "vector")


def test_three_backend_axis_is_clean_when_unmutated():
    report = check_graph(_multi_firing_graph("sub"),
                         backends=("compiled", "vector"))
    assert report.ok, "\n".join(str(d) for d in report.divergences)
    # scalar runs on core-i7 only; every other option set runs on every
    # registered target (targets registered later join automatically).
    expected = 1 + (len(OPTION_SETS) - 1) * len(list_targets())
    assert report.configs_checked == expected


@pytest.mark.fuzz
@pytest.mark.parametrize("seam,value,op", [
    ("_MUT_READ_SHIFT", 1, "add"),
    ("_MUT_SWAP_SUB", True, "sub"),
    ("_MUT_SCAN_SHIFT", 1, "lcg"),
    ("_MUT_RING_SHIFT", 1, "ring"),
])
def test_injected_kernel_defect_is_caught(monkeypatch, seam, value, op):
    graph = _multi_firing_graph(op)
    # Control arm first: the graph is clean before the seam is armed.
    assert check_graph(graph, backends=("vector",)).ok
    monkeypatch.setattr(vector_kernel, seam, value)
    report = check_graph(graph, backends=("vector",))
    assert not report.ok, f"oracle missed armed {seam}"
    div = report.divergences[0]
    assert div.kind == "backend"
    assert div.config.endswith("/vector")


@pytest.mark.fuzz
def test_fuzz_campaign_catches_read_shift_and_shrinks(monkeypatch, tmp_path):
    monkeypatch.setattr(vector_kernel, "_MUT_READ_SHIFT", 1)
    report = run_fuzz(0, MUTATION_BUDGET, corpus_dir=tmp_path,
                      max_findings=1, backends=("vector",))
    assert report.findings, "campaign missed the armed read-shift defect"
    finding = report.findings[0]
    assert finding.divergence.kind == "backend"
    assert finding.divergence.config.endswith("/vector")
    assert finding.minimized.filter_count() <= 3, finding.minimized
    # The minimized repro still provokes the divergence while armed…
    assert not check_program(finding.minimized, backends=("vector",)).ok
    # …and replays clean once the seam is disarmed.
    monkeypatch.setattr(vector_kernel, "_MUT_READ_SHIFT", 0)
    assert check_program(finding.minimized, backends=("vector",)).ok
    assert finding.repro_path is not None and finding.repro_path.is_file()


@pytest.mark.fuzz
def test_fuzz_campaign_catches_scan_shift_and_shrinks(monkeypatch):
    monkeypatch.setattr(vector_kernel, "_MUT_SCAN_SHIFT", 1)
    report = run_fuzz(0, MUTATION_BUDGET, max_findings=1,
                      backends=("vector",))
    assert report.findings, "campaign missed the armed scan-shift defect"
    finding = report.findings[0]
    assert finding.divergence.kind == "backend"
    assert finding.divergence.config.endswith("/vector")
    # Shrunk to the scanned source itself: the lcg → ramp step would have
    # hidden the defect, so the minimized program keeps its LCG.
    assert finding.minimized.filter_count() <= 3, finding.minimized
    assert finding.minimized.source_lcg is not None
    assert not check_program(finding.minimized, backends=("vector",)).ok
    monkeypatch.setattr(vector_kernel, "_MUT_SCAN_SHIFT", 0)
    assert check_program(finding.minimized, backends=("vector",)).ok
    # The minimized repro is committed to the in-tree corpus
    # (content-addressed), where every later PR replays it.
    expected = DEFAULT_CORPUS / f"repro_{desc_hash(finding.minimized)}.json"
    assert expected.is_file(), f"regenerate with save_repro -> {expected}"


@pytest.mark.fuzz
def test_fuzz_campaign_catches_ring_shift_and_shrinks(monkeypatch):
    monkeypatch.setattr(vector_kernel, "_MUT_RING_SHIFT", 1)
    report = run_fuzz(0, MUTATION_BUDGET, max_findings=1,
                      backends=("vector",))
    assert report.findings, "campaign missed the armed ring-shift defect"
    finding = report.findings[0]
    assert finding.divergence.kind == "backend"
    assert finding.divergence.config.endswith("/vector")
    assert finding.minimized.filter_count() <= 3, finding.minimized
    kinds = {stage.kind for stage in finding.minimized.stages}
    assert "delay" in kinds, finding.minimized
    assert not check_program(finding.minimized, backends=("vector",)).ok
    monkeypatch.setattr(vector_kernel, "_MUT_RING_SHIFT", 0)
    assert check_program(finding.minimized, backends=("vector",)).ok


@pytest.mark.fuzz
def test_scan_shift_survives_without_the_lcg_source_kind(monkeypatch):
    """The evidence the LCG fuzz axis is needed: ramp-only programs (the
    generator before sources had kinds) never run a scanned recurrence,
    so the same campaign passes the armed mutant."""
    monkeypatch.setattr(vector_kernel, "_MUT_SCAN_SHIFT", 1)
    monkeypatch.setattr(fuzz_generator, "SOURCE_KINDS", ("ramp",))
    report = run_fuzz(0, MUTATION_BUDGET, backends=("vector",))
    assert report.programs == MUTATION_BUDGET and report.ok


@pytest.mark.fuzz
def test_clean_campaign_over_vector_axis():
    """Control arm: same seed and budget, seams disarmed, vector-only
    axis — zero findings, so the detections above are signal."""
    assert vector_kernel._MUT_READ_SHIFT == 0
    assert not vector_kernel._MUT_SWAP_SUB
    assert vector_kernel._MUT_SCAN_SHIFT == 0
    assert vector_kernel._MUT_RING_SHIFT == 0
    report = run_fuzz(0, MUTATION_BUDGET, backends=("vector",))
    assert report.ok, "\n".join(str(f.divergence) for f in report.findings)
