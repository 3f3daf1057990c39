"""Mutation testing of the tape layer of the vector data plane.

:mod:`repro.runtime.tape` carries one deliberately injectable defect —
``_MUT_ND_WINDOW_SHIFT`` — which rotates every ndarray window read by
that many slots: the classic off-by-one ring-wrap bug in a buffer that
hands out zero-copy views.  Armed, it corrupts both the list reads
(``peek_block``) and the array windows (``peek_block_array``) of
:class:`~repro.runtime.tape.NdTape`, while the plain list :class:`Tape`
stays correct.

These tests prove the two oracles that guard the tape layer are not
vacuous: the unit-level differential replay (list tape vs nd tape) and
the end-to-end interp-vs-vector fuzz axis must both catch the armed
defect — and the campaign must shrink it to a small repro — while the
identical runs are clean with the seam disarmed.

On a horizontally SIMDized graph the vector tapes hold ``(items, SW)``
rows, which the seam rotates by whole items.  There the oracle must kill
it, and :mod:`repro.runtime.movers`' ``_MUT_MOVER_SHIFT`` too, through
the row windows of the HSplitter/HJoiner and the vector actors, and the
shrinker must keep the repro horizontal.
"""

from __future__ import annotations

import random

import pytest

np = pytest.importorskip("numpy")

import repro.runtime.movers as movers_mod
import repro.runtime.tape as tape_mod
from repro.apps.registry import get_benchmark
from repro.apps.sources import checksum_sink, ramp_source
from repro.fuzz import check_program, run_fuzz
from repro.fuzz.descriptions import (FilterDesc, ProgramDesc, SplitJoinDesc,
                                     materialize)
from repro.fuzz.harness import OPTION_SETS, check_graph
from repro.fuzz.shrink import shrink
from repro.graph.actor import FilterSpec
from repro.graph.flatten import flatten
from repro.graph.structure import Program, pipeline
from repro.ir import WorkBuilder
from repro.simd.machine import CORE_I7
from repro.simd.pipeline import compile_graph

from ..runtime.test_tape_properties import random_op, replay_differential

MUTATION_BUDGET = 8


def _windowed_graph():
    """source(8) -> worker(pop 2, push 2; fires 4x) -> sink(8).

    Rate-mismatched so batched reads pull multi-element windows — a
    window shift is invisible on length-1 reads (``np.roll`` of a single
    element is the identity)."""
    b = WorkBuilder()
    x = b.let("x", b.pop())
    y = b.let("y", b.pop())
    b.push(x - y)
    b.push(x * 2.0)
    worker = FilterSpec("worker", pop=2, push=2, work_body=b.build())
    return flatten(Program("tapemut", pipeline(
        ramp_source("src", push=8, step=0.5), worker,
        checksum_sink("sink", pop=8))))


# -- the unit-level differential oracle catches the armed seam ----------------

@pytest.mark.fuzz
def test_differential_replay_catches_window_shift(monkeypatch):
    """The property suite's replay (Tape vs NdTape) must fail fast once
    the ring-wrap defect is armed — multi-element windows come back
    rotated on the nd side only."""
    ops = [("push", 1.0), ("push", 2.0), ("push", 3.0), ("peek_block", 3)]
    replay_differential(ops)  # control arm: clean while disarmed
    monkeypatch.setattr(tape_mod, "_MUT_ND_WINDOW_SHIFT", 1)
    with pytest.raises(AssertionError):
        replay_differential(ops)


def _numeric_op(rng: random.Random, kind: type):
    """Like :func:`random_op` but drawing only nd-representable values of
    one scalar ``kind``, so the tape never takes the (sticky) degrade exit
    where the armed seam would be invisible."""
    while True:
        op = random_op(rng)
        values = op[1:2] if op[0] in ("push", "rpush") else \
            op[3] if op[0] == "write_strided" else ()
        if all(type(v) is kind and abs(v) < 2 ** 40 for v in values):
            return op


@pytest.mark.fuzz
def test_random_sequences_catch_window_shift(monkeypatch):
    """Most seeded random sequences must trip over the defect — the op
    mix reads multi-element windows often enough that the armed seam
    cannot hide (as long as the tape stays on the nd path: one scalar
    kind per sequence, ints and floats by turns)."""
    monkeypatch.setattr(tape_mod, "_MUT_ND_WINDOW_SHIFT", 1)
    caught = 0
    for seed in range(10):
        rng = random.Random(seed)
        kind = (int, float)[seed % 2]
        try:
            replay_differential([_numeric_op(rng, kind)
                                 for _ in range(250)])
        except AssertionError:
            caught += 1
    assert caught >= 5, \
        f"only {caught}/10 sequences noticed the armed window shift"


# -- the end-to-end interp-vs-vector oracle catches it too --------------------

@pytest.mark.fuzz
def test_vector_axis_catches_window_shift(monkeypatch):
    graph = _windowed_graph()
    assert check_graph(graph, backends=("vector",)).ok  # control arm
    monkeypatch.setattr(tape_mod, "_MUT_ND_WINDOW_SHIFT", 1)
    report = check_graph(graph, backends=("vector",))
    assert not report.ok, "oracle missed the armed tape window shift"
    div = report.divergences[0]
    assert div.kind == "backend"
    assert div.config.endswith("/vector")


@pytest.mark.fuzz
def test_fuzz_campaign_catches_window_shift_and_shrinks(monkeypatch,
                                                        tmp_path):
    monkeypatch.setattr(tape_mod, "_MUT_ND_WINDOW_SHIFT", 1)
    report = run_fuzz(0, MUTATION_BUDGET, corpus_dir=tmp_path,
                      max_findings=1, backends=("vector",))
    assert report.findings, "campaign missed the armed tape defect"
    finding = report.findings[0]
    assert finding.divergence.kind == "backend"
    assert finding.divergence.config.endswith("/vector")
    assert finding.minimized.filter_count() <= 3, finding.minimized
    # The minimized repro still provokes the divergence while armed…
    assert not check_program(finding.minimized, backends=("vector",)).ok
    # …and replays clean once the seam is disarmed.
    monkeypatch.setattr(tape_mod, "_MUT_ND_WINDOW_SHIFT", 0)
    assert check_program(finding.minimized, backends=("vector",)).ok
    assert finding.repro_path is not None and finding.repro_path.is_file()


@pytest.mark.fuzz
def test_clean_campaign_with_seam_disarmed():
    """Control arm: same seed and budget, seam at rest — zero findings,
    so the detections above are signal, not flakiness."""
    assert tape_mod._MUT_ND_WINDOW_SHIFT == 0
    report = run_fuzz(0, MUTATION_BUDGET, backends=("vector",))
    assert report.ok, "\n".join(str(f.divergence) for f in report.findings)


# -- vector rows: the seam and the mover shift on a horizontal graph ----------

#: Only the horizontal path: every vector tape it makes holds rows.
HORIZONTAL = {"horizontal": OPTION_SETS["horizontal"]}

SEAMS = [(tape_mod, "_MUT_ND_WINDOW_SHIFT"), (movers_mod, "_MUT_MOVER_SHIFT")]


def _seam_id(seam):
    return seam[1]


@pytest.mark.fuzz
def test_differential_replay_catches_window_shift_on_rows(monkeypatch):
    """Armed, a rows window rotates by whole items — never by a lane."""
    ops = [("push", [1.0, 2.0]), ("push", [3.0, 4.0]), ("push", [5.0, 6.0]),
           ("peek_block", 3)]
    tapes = replay_differential(ops)  # control arm
    assert tapes["nd"].dtype_kind == "vector"
    monkeypatch.setattr(tape_mod, "_MUT_ND_WINDOW_SHIFT", 1)
    with pytest.raises(AssertionError):
        replay_differential(ops)
    nd = tape_mod.NdTape("t")
    for op in ops[:3]:
        nd.push(op[1])
    assert nd.peek_block_array(3).tolist() == \
        [[3.0, 4.0], [5.0, 6.0], [1.0, 2.0]]


@pytest.mark.fuzz
@pytest.mark.parametrize("seam", SEAMS, ids=_seam_id)
def test_vector_axis_catches_seam_on_rows(seam, monkeypatch):
    """BeamFormer's horizontal graph: the armed seam is caught while the
    vector actors and the movers read ``(count, SW)`` row windows."""
    module, name = seam
    graph = flatten(get_benchmark("BeamFormer"))
    assert check_graph(graph, option_sets=HORIZONTAL,
                       backends=("vector",)).ok  # control arm
    rows = []
    real_view = tape_mod.NdTape._view

    def spying_view(self, count):
        view = real_view(self, count)
        rows.append(view.ndim == 2)
        return view

    monkeypatch.setattr(tape_mod.NdTape, "_view", spying_view)
    monkeypatch.setattr(module, name, 1)
    report = check_graph(graph, option_sets=HORIZONTAL, backends=("vector",))
    assert not report.ok, f"oracle missed the armed {name} on rows"
    div = report.divergences[0]
    assert div.kind == "backend"
    assert div.config.startswith("horizontal/")
    assert div.config.endswith("/vector")
    assert any(rows), "no row window was read"


def _horizontal_desc() -> ProgramDesc:
    """src(8) -> rr(2)^4 split of isomorphic stateful arms -> join -> tail.
    Horizontal SIMDization merges the arms into one vector actor between
    an HSplitter and an HJoiner; every tape between them holds rows."""
    arms = tuple((FilterDesc(name=f"h{k}", kind="stateful", pop=2, push=2,
                             scale=0.5 * (k + 1)),) for k in range(4))
    return ProgramDesc(source_push=8, name="tapemut_rows", stages=(
        SplitJoinDesc("roundrobin", (2,) * 4, arms),))


def _has_rows(desc: ProgramDesc) -> bool:
    graph = compile_graph(flatten(materialize(desc)), CORE_I7,
                          HORIZONTAL["horizontal"]).graph
    return any(edge.is_vector for edge in graph.tapes.values())


def _fails_on_rows(desc: ProgramDesc) -> bool:
    return _has_rows(desc) and not check_program(
        desc, option_sets=HORIZONTAL, backends=("vector",)).ok


@pytest.mark.fuzz
@pytest.mark.parametrize("seam", SEAMS, ids=_seam_id)
def test_seam_on_rows_is_caught_and_shrunk(seam, monkeypatch):
    module, name = seam
    desc = _horizontal_desc()
    assert _has_rows(desc)
    assert check_program(desc, option_sets=HORIZONTAL,
                         backends=("vector",)).ok  # control arm
    monkeypatch.setattr(module, name, 1)
    assert _fails_on_rows(desc), f"oracle missed the armed {name} on rows"
    minimized = shrink(desc, _fails_on_rows, max_evals=60)
    # Simpler, still a horizontal split-join, still failing while armed…
    assert minimized != desc
    assert minimized.filter_count() <= desc.filter_count()
    assert _fails_on_rows(minimized)
    # …and clean once the seam is disarmed.
    monkeypatch.setattr(module, name, 0)
    assert check_program(minimized, option_sets=HORIZONTAL,
                         backends=("vector",)).ok
