"""Algorithm-1 driver mechanics: pass order, preset errors, verification.

The equivalence of the configuration spellings is covered in
``test_pipeline_equivalence.py``; this file pins the driver itself —
the eight passes run in :data:`PASS_NAMES` order, an unknown preset name
fails loudly, and ``verify_each_pass`` catches a pass that leaves the
work graph invalid, naming the culprit.
"""

from __future__ import annotations

import pytest

from repro.experiments.harness import scalar_graph
from repro.graph.stream_graph import GraphError
from repro.obs import Tracer
from repro.simd import CORE_I7, PASS_NAMES, compile_graph


def _drop_an_actor(work, machine):
    """Stands in for the tape phase: deliberately corrupts the work graph
    by dropping an actor and leaving its tapes dangling."""
    victim = next(aid for aid in work.actors
                  if work.in_tapes(aid) or work.out_tapes(aid))
    del work.actors[victim]
    return {}


class TestConstruction:
    def test_default_matches_pass_names(self):
        tracer = Tracer()
        compile_graph(scalar_graph("RunningExample"), CORE_I7, tracer=tracer)
        spans = tracer.spans(cat="pass")
        assert tuple(span.name for span in spans) == PASS_NAMES
        assert len(PASS_NAMES) == 8


class TestCustomPipelines:
    def test_unknown_name_in_compile_graph_pipeline(self):
        """A pass name is not a pipeline: only presets are accepted."""
        with pytest.raises(KeyError) as exc:
            compile_graph(scalar_graph("RunningExample"), CORE_I7,
                          pipeline="prepass.analyze")
        message = str(exc.value)
        assert "unknown pipeline 'prepass.analyze'" in message
        assert "single-only" in message  # preset listing


class TestVerification:
    def test_default_pipeline_verifies_clean(self):
        compiled = compile_graph(scalar_graph("RunningExample"), CORE_I7,
                                 verify_each_pass=True)
        assert compiled.report.decisions

    def test_broken_pass_is_named(self, monkeypatch):
        monkeypatch.setattr("repro.simd.pipeline.optimize_tapes",
                            _drop_an_actor)
        with pytest.raises(GraphError,
                           match="after pass 'tape.optimize'") as exc:
            compile_graph(scalar_graph("RunningExample"), CORE_I7,
                          verify_each_pass=True)
        assert "removed actor" in str(exc.value)

    def test_without_verification_breakage_goes_unnoticed_here(
            self, monkeypatch):
        """Same broken pass, no verify flag: compile_graph itself does not
        re-validate (that is exactly what the flag buys)."""
        monkeypatch.setattr("repro.simd.pipeline.optimize_tapes",
                            _drop_an_actor)
        compile_graph(scalar_graph("RunningExample"), CORE_I7)
