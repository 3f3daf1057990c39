"""STREAM-idiom microbenchmarks (copy / scale / add / triad).

McCalpin's STREAM kernels re-expressed as stream graphs: a deterministic
ramp source, one data-parallel work filter doing the idiom arithmetic
over ``BLOCK`` elements per firing, and a passthrough tail that keeps
every computed element in the collected output stream.  Every actor is
stateless or affine-stateful, so the whole pipeline rides the vector
backend's array fast path — these graphs are the ``steady_stream``
workload of ``bench/``, whose roof fractions measure the vector backend
against a bare-numpy bandwidth ceiling.

``add`` and ``triad`` read two logical streams interleaved on one tape
(x0 y0 x1 y1 ...), which is the stream-graph shape of STREAM's two-array
reads.
"""

from __future__ import annotations

from ..graph.actor import FilterSpec
from ..graph.structure import Program, pipeline
from ..ir import WorkBuilder
from .registry import register
from .sources import passthrough_sink, ramp_source

#: Elements processed per work-filter firing.
BLOCK = 32

#: STREAM's scalar constant (q in ``a[i] = b[i] + q * c[i]``).
SCALE_Q = 3.0


def copy_filter(name: str = "Copy", block: int = BLOCK) -> FilterSpec:
    b = WorkBuilder()
    with b.loop("i", 0, block):
        b.push(b.pop())
    return FilterSpec(name, pop=block, push=block, work_body=b.build())


def scale_filter(name: str = "Scale", block: int = BLOCK,
                 q: float = SCALE_Q) -> FilterSpec:
    b = WorkBuilder()
    with b.loop("i", 0, block):
        b.push(b.pop() * q)
    return FilterSpec(name, pop=block, push=block, work_body=b.build())


def add_filter(name: str = "Add", block: int = BLOCK) -> FilterSpec:
    """``c[i] = a[i] + b[i]`` over an interleaved pair stream."""
    b = WorkBuilder()
    with b.loop("i", 0, block):
        x = b.let("x", b.pop())
        y = b.let("y", b.pop())
        b.push(x + y)
    return FilterSpec(name, pop=2 * block, push=block, work_body=b.build())


def triad_filter(name: str = "Triad", block: int = BLOCK,
                 q: float = SCALE_Q) -> FilterSpec:
    """``a[i] = b[i] + q * c[i]`` over an interleaved pair stream."""
    b = WorkBuilder()
    with b.loop("i", 0, block):
        x = b.let("x", b.pop())
        y = b.let("y", b.pop())
        b.push(x + q * y)
    return FilterSpec(name, pop=2 * block, push=block, work_body=b.build())


def _stream_program(name: str, work: FilterSpec, pairs: bool) -> Program:
    push = 2 * BLOCK if pairs else BLOCK
    top = pipeline(
        ramp_source("ramp", push=push, step=0.5),
        work,
        passthrough_sink("out", pop=BLOCK),
    )
    return Program(name, top)


@register("StreamCopy")
def build_copy() -> Program:
    return _stream_program("stream_copy", copy_filter(), pairs=False)


@register("StreamScale")
def build_scale() -> Program:
    return _stream_program("stream_scale", scale_filter(), pairs=False)


@register("StreamAdd")
def build_add() -> Program:
    return _stream_program("stream_add", add_filter(), pairs=True)


@register("StreamTriad")
def build_triad() -> Program:
    return _stream_program("stream_triad", triad_filter(), pairs=True)


#: The idiom family, in roofline order.
STREAM_APPS = ("StreamCopy", "StreamScale", "StreamAdd", "StreamTriad")
