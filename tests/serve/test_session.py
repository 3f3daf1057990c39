"""Session layer: spec validation, content-addressed graph keys, and the
explicit wire-format seam (``encode_result`` / ``decode_result``)."""

from __future__ import annotations

import pytest

from repro.serve import (
    ServeError,
    ServeOverload,
    SessionResult,
    SessionSpec,
    decode_result,
    encode_result,
)
from repro.serve.session import WIRE_VERSION


class TestSessionSpec:
    def test_needs_exactly_one_program_source(self):
        with pytest.raises(ServeError):
            SessionSpec()
        with pytest.raises(ServeError):
            SessionSpec(benchmark="DCT", program={"filters": []})

    def test_rejects_bad_iterations_and_cores(self):
        with pytest.raises(ServeError):
            SessionSpec(benchmark="DCT", iterations=0)
        with pytest.raises(ServeError):
            SessionSpec(benchmark="DCT", cores=0)

    def test_wire_round_trip(self):
        spec = SessionSpec(benchmark="FFT", pipeline="scalar",
                           iterations=3, tag="t7")
        assert SessionSpec.from_wire(spec.to_wire()) == spec

    def test_graph_key_shares_compiled_shape(self):
        a = SessionSpec(benchmark="DCT", iterations=2)
        b = SessionSpec(benchmark="DCT", iterations=9, tag="other")
        # iterations/tag are per-session, not per-graph.
        assert a.graph_key() == b.graph_key()

    def test_graph_key_separates_pipeline_machine_program(self):
        base = SessionSpec(benchmark="DCT")
        keys = {
            base.graph_key(),
            SessionSpec(benchmark="FFT").graph_key(),
            SessionSpec(benchmark="DCT", pipeline="scalar").graph_key(),
            SessionSpec(benchmark="DCT", pipeline=None).graph_key(),
            SessionSpec(benchmark="DCT",
                        machine="other-target").graph_key(),
        }
        assert len(keys) == 5

    def test_graph_key_ignores_program_dict_ordering(self):
        p1 = {"name": "p", "filters": [1, 2]}
        p2 = {"filters": [1, 2], "name": "p"}
        k1 = SessionSpec(program=p1).graph_key()
        k2 = SessionSpec(program=p2).graph_key()
        assert k1 == k2


class TestWireFormat:
    def _result(self) -> SessionResult:
        return SessionResult(
            seq=5, worker=1, tag="x", graph_name="g", backend="compiled",
            iterations=2, outputs=[1.0, 2.0], init_outputs=[0.5],
            steady_bags={3: {"fire": 4, "push": 8}},
            init_bags={3: {"fire": 1}},
            kernel_cache={"lookups": 2, "hits": 1},
            graph_cache_hit=True, busy_s=0.01)

    def test_encode_decode_round_trip(self):
        result = self._result()
        decoded = decode_result(encode_result(result))
        assert decoded == result
        # int actor ids survive the str-keyed wire form.
        assert all(isinstance(k, int) for k in decoded.steady_bags)

    def test_wire_uses_only_builtins(self):
        import json
        # The wire dict must be JSON-serializable: plain builtins only.
        json.dumps(encode_result(self._result()))

    def test_version_mismatch_fails_loudly(self):
        wire = encode_result(self._result())
        wire["v"] = WIRE_VERSION + 1
        with pytest.raises(ServeError):
            decode_result(wire)
        wire.pop("v")
        with pytest.raises(ServeError):
            decode_result(wire)

    def test_error_result_is_not_ok(self):
        result = SessionResult(seq=1, error="KeyError: nope")
        assert not result.ok
        assert not decode_result(encode_result(result)).ok


def test_encode_does_not_copy_outputs():
    """The wire dict carries the output lists by reference (the worker
    drops the result right after encoding; pickling copies the bytes):
    a per-item deep copy cost 3x the execution of a 32 768-item result."""
    result = SessionResult(seq=1, outputs=[1.0] * 8, init_outputs=[2.0],
                           steady_bags={3: {"fire": 4}})
    wire = encode_result(result)
    assert wire["outputs"] is result.outputs
    assert wire["init_outputs"] is result.init_outputs
    # The str-keyed bag rewrite still builds fresh dicts.
    assert wire["steady_bags"] == {"3": {"fire": 4}}
    assert result.steady_bags == {3: {"fire": 4}}


def test_overload_is_data_not_exception():
    overload = ServeOverload(worker=-1, queue_depth=8, limit=8)
    assert not isinstance(overload, Exception)
    assert "8/8" in str(overload)
    assert "all workers" in str(overload)
    assert "worker 2" in str(ServeOverload(worker=2, queue_depth=3,
                                           limit=4))
