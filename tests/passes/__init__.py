"""Tests for the Algorithm-1 driver (repro.simd.pipeline.compile_graph)."""
