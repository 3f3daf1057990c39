"""Serializable stream-program descriptions for the differential fuzzer.

The fuzzer never manipulates :class:`~repro.graph.structure.Program` trees
directly.  It works on a tiny declarative AST (``FilterDesc`` /
``SplitJoinDesc`` / ``ProgramDesc``) that is

* **deterministically materializable** into a real program
  (:func:`materialize`), so the same description always produces the same
  stream graph and the same outputs;
* **JSON-serializable** (:func:`desc_to_dict` / :func:`desc_from_dict`), so
  minimized repros can be persisted into ``tests/fuzz_corpus/`` and replayed
  as regression tests;
* **structurally shrinkable** (:mod:`repro.fuzz.shrink`): deleting a stage,
  reducing a weight, or simplifying a body is a pure function from one
  description to a smaller one.

The description language intentionally covers the paper's interesting
axes: stateless maps, deep-peeking FIR-style filters, stateful
accumulators and delay lines (horizontal SIMDization's selling point),
prework-built coefficient tables, bitwise integer mixing, duplicate and round-robin split-joins with unequal
weights, isomorphic arms (horizontal candidates), int/float mixes, and
rates that force Equation (1) repetition scaling — fed by a ramp or by a
linear congruential source ``s ← (a·s + c) % m`` (the recurrence the
vector backend scans; the benchmark apps' ``*_src`` actors).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from math import lcm
from typing import Any, Dict, List, Optional, Tuple, Union

from ..graph.actor import FilterSpec, StateVar
from ..graph.builtins import duplicate_splitter, roundrobin_joiner, \
    roundrobin_splitter
from ..graph.structure import Program, StreamNode, pipeline, splitjoin
from ..ir import expr as E
from ..ir.builder import ArrayHandle, WorkBuilder, call
from ..ir.types import FLOAT, INT, Scalar

#: Filter body shapes the generator can emit.
FILTER_KINDS = ("map", "peeking", "stateful", "prework", "delay")

#: Post-transform functions, keyed by element type.
#: ``pow43`` and ``atan2h`` are intrinsics numpy does not reproduce
#: bit-exactly, so the vector backend evaluates them per element.
FLOAT_FUNCS = ("abs", "sqrt_abs", "sin", "cos", "floor", "neg", "halve",
               "pow43", "atan2h")
#: ``bitmix`` shifts, xors and multiplies under masks: the int64 lane.
INT_FUNCS = ("abs", "neg", "bitmix")


@dataclass(frozen=True)
class FilterDesc:
    """One filter stage.

    ``kind`` selects the body shape:

    * ``map`` — stateless: ``acc = sum(pop() * scale)``, transform, push;
    * ``peeking`` — FIR-style: ``acc = sum(peek(i) * scale)`` over
      ``pop + peek_extra`` offsets, then ``pop`` destructive reads;
    * ``stateful`` — running accumulator in persistent state (scalar
      paths must keep it scalar; horizontal arms may vectorize it);
    * ``prework`` — ``init`` fills a read-only coefficient table that the
      work body multiplies against (FIR-table idiom; stays SIMDizable);
    * ``delay`` — a delay line: a state array of ``peek_extra + 1`` slots
      behind a ring cursor, read (scaled) before each pop overwrites the
      slot — the vector backend's ring lane.
    """

    name: str
    kind: str = "map"
    pop: int = 1
    push: int = 1
    peek_extra: int = 0
    dtype: str = "float"
    out_dtype: str = "float"
    scale: float = 1.0
    offset: float = 0.0
    decay: float = 0.5
    funcs: Tuple[str, ...] = ()

    def ratio(self) -> Fraction:
        return Fraction(self.push, self.pop)


@dataclass(frozen=True)
class SplitJoinDesc:
    """A split-join stage; ``branches`` are pipelines of stages (filters,
    or — one nesting level deep — further split-joins).

    Joiner weights are *derived* at materialization time from the branch
    rate ratios, so any weight/branch edit the shrinker makes yields a
    rate-consistent graph by construction.
    """

    kind: str  # "duplicate" | "roundrobin"
    weights: Tuple[int, ...]
    branches: Tuple[Tuple["StageDesc", ...], ...]

    def __post_init__(self) -> None:
        if len(self.branches) < 2:
            raise ValueError("split-join needs at least two branches")
        if len(self.weights) != len(self.branches):
            raise ValueError("one weight per branch required")

    def in_weight(self, index: int) -> int:
        return 1 if self.kind == "duplicate" else self.weights[index]

    @property
    def pop_per_exec(self) -> int:
        return 1 if self.kind == "duplicate" else sum(self.weights)

    def joiner_weights(self) -> Tuple[int, ...]:
        """Smallest integer joiner weights balancing every branch."""
        per_exec = [self.in_weight(i) * chain_ratio(branch)
                    for i, branch in enumerate(self.branches)]
        scale = lcm(*(q.denominator for q in per_exec))
        return tuple(int(q * scale) for q in per_exec)

    def ratio(self) -> Fraction:
        produced = sum((self.in_weight(i) * chain_ratio(branch)
                        for i, branch in enumerate(self.branches)),
                       Fraction(0))
        return produced / self.pop_per_exec


StageDesc = Union[FilterDesc, SplitJoinDesc]


def chain_ratio(stages: Tuple[StageDesc, ...]) -> Fraction:
    out = Fraction(1)
    for stage in stages:
        out *= stage.ratio()
    return out


@dataclass(frozen=True)
class ProgramDesc:
    """A whole generated program: a source plus a stage chain."""

    source_push: int = 4
    source_dtype: str = "float"
    stages: Tuple[StageDesc, ...] = ()
    name: str = "fuzz"
    #: ``(a, c, m, seed)`` of an LCG source ``s ← (a·s + c) % m``; ``None``
    #: is the ramp ``t ← t + 1``.
    source_lcg: Optional[Tuple[int, int, int, int]] = None

    @property
    def source_kind(self) -> str:
        return "ramp" if self.source_lcg is None else "lcg"

    def final_dtype(self) -> str:
        dtype = self.source_dtype
        for stage in self.stages:
            if isinstance(stage, FilterDesc):
                dtype = stage.out_dtype
            else:
                branch = stage.branches[0]
                for inner in branch:
                    if isinstance(inner, FilterDesc):
                        dtype = inner.out_dtype
        return dtype

    def filter_count(self) -> int:
        """Number of *filter* actors the materialized flat graph will have
        (splitters/joiners excluded) — the size metric shrinking minimizes."""
        count = 1  # source

        def count_stage(stage: StageDesc) -> int:
            if isinstance(stage, FilterDesc):
                return 1
            return sum(count_stage(s) for b in stage.branches for s in b)

        count += sum(count_stage(s) for s in self.stages)
        if self.stages and isinstance(self.stages[-1], SplitJoinDesc):
            count += 1  # implicit tail collector filter
        return count


# --------------------------------------------------------------------------
# materialization
# --------------------------------------------------------------------------

def _scalar_type(dtype: str) -> Scalar:
    return INT if dtype == "int" else FLOAT


def _const(value: float, dtype: str):
    return int(value) if dtype == "int" else float(value)


def _apply_funcs(expr: E.Expr, funcs: Tuple[str, ...], dtype: str) -> E.Expr:
    for func in funcs:
        if func == "sqrt_abs":
            expr = call("sqrt", call("abs", expr))
        elif func == "neg":
            expr = -expr
        elif func == "halve":
            expr = expr * (0.5 if dtype == "float" else 1)
        elif func == "pow43":
            expr = call("pow", call("abs", expr) + 1e-9, 4.0 / 3.0)
        elif func == "atan2h":
            expr = call("atan2", expr, 1.5)
        elif func == "bitmix":
            mixed = (expr ^ (expr << 5)) & 0xFFFF
            expr = ((mixed * 40503) & 0xFFFFF) ^ (mixed >> 3)
        else:
            expr = call(func, expr)
    return expr


def _convert(expr: E.Expr, src: str, dst: str) -> E.Expr:
    if src == dst:
        return expr
    return call("float" if dst == "float" else "int", expr)


def materialize_filter(d: FilterDesc) -> FilterSpec:
    """Build the concrete :class:`FilterSpec` for one description."""
    dtype = d.dtype
    ty = _scalar_type(dtype)
    zero = _const(0, dtype)
    scale = _const(d.scale, dtype)
    b = WorkBuilder()
    state: Tuple[StateVar, ...] = ()
    init_body: Tuple = ()
    peek = 0

    if d.kind == "peeking":
        peek = d.pop + max(1, d.peek_extra)
        acc = b.let("acc", zero, ty)
        with b.loop("i", 0, peek) as i:
            term = b.peek(i) if scale == 1 else b.peek(i) * scale
            b.set(acc, acc + term)
        with b.loop("j", 0, d.pop):
            b.stmt(b.pop())
        result: E.Expr = acc
    elif d.kind == "stateful":
        state = (StateVar("s", ty, 0, zero),)
        s = b.var("s")
        for _ in range(d.pop):
            if dtype == "int":
                b.set(s, b.pop() - s)
            else:
                b.set(s, s * float(d.decay) + b.pop())
        result = s
    elif d.kind == "delay":
        # An int line keeps float slots (state arrays start as floats).
        size = d.peek_extra + 1
        state = (StateVar("buf", FLOAT, size, 0.0), StateVar("t", INT, 0, 0))
        buf, t = ArrayHandle("buf"), b.var("t")
        acc = b.let("acc", zero, ty)
        for _ in range(d.pop):
            slot = t % size
            held = buf[slot] if dtype == "float" else call("int", buf[slot])
            b.set(acc, acc + (held if scale == 1 else held * scale))
            b.set(buf[slot], b.pop() if dtype == "float"
                  else call("float", b.pop()))
            b.set(t, t + 1)
        result = acc
    elif d.kind == "prework":
        # init fills a read-only table; work convolves against it.
        state = (StateVar("w", FLOAT, d.pop, 0.0),)
        init = WorkBuilder()
        with init.loop("i", 0, d.pop) as i:
            init.set(E.ArrayRead("w", E.as_expr(i)),
                     float(d.scale) + 0.25 * i)
        init_body = init.build()
        acc = b.let("acc", 0.0)
        with b.loop("i", 0, d.pop) as i:
            b.set(acc, acc + b.pop() * E.ArrayRead("w", E.as_expr(i)))
        result = acc
    else:  # map
        acc = b.let("acc", zero, ty)
        with b.loop("i", 0, d.pop):
            term = b.pop() if scale == 1 else b.pop() * scale
            b.set(acc, acc + term)
        result = acc

    # prework accumulates in float regardless of declared input dtype.
    acc_dtype = "float" if d.kind == "prework" else dtype
    result = _apply_funcs(result, tuple(d.funcs), acc_dtype)
    out_dtype = d.out_dtype
    offset = _const(d.offset, out_dtype)
    converted = _convert(result, acc_dtype, out_dtype)
    for j in range(d.push):
        delta = offset * j if isinstance(offset, int) else round(offset * j, 6)
        b.push(converted if delta == 0 else converted + delta)
    return FilterSpec(
        d.name, pop=d.pop, push=d.push, peek=peek,
        data_type=_scalar_type("float" if d.kind == "prework" else dtype),
        output_type=_scalar_type(out_dtype),
        state=state, init_body=init_body, work_body=b.build())


def materialize_stage(stage: StageDesc) -> StreamNode:
    if isinstance(stage, FilterDesc):
        from ..graph.structure import FilterNode
        return FilterNode(materialize_filter(stage))
    splitter = (duplicate_splitter(len(stage.weights))
                if stage.kind == "duplicate"
                else roundrobin_splitter(list(stage.weights)))
    branches = [pipeline(*[materialize_stage(s) for s in branch])
                for branch in stage.branches]
    joiner = roundrobin_joiner(list(stage.joiner_weights()))
    return splitjoin(splitter, branches, joiner)


def make_lcg_source(push: int, dtype: str, lcg: Tuple[int, int, int, int],
                    name: str = "src") -> FilterSpec:
    """``s ← (a·s + c) % m`` pushed raw (int) or mapped into [-1, 1) like
    :func:`repro.apps.sources.lcg_source` (float)."""
    a, c, m, seed = lcg
    b = WorkBuilder()
    s = b.var("s")
    with b.loop("i", 0, push):
        b.set(s, (s * a + c) % m)
        b.push(s if dtype == "int"
               else call("float", s % 2000) / 1000.0 - 1.0)
    ty = _scalar_type(dtype)
    return FilterSpec(name, pop=0, push=push, data_type=ty, output_type=ty,
                      state=(StateVar("s", INT, 0, seed),),
                      work_body=b.build())


def make_source(push: int, dtype: str, name: str = "src") -> FilterSpec:
    """Deterministic ramp source of the requested element type."""
    ty = _scalar_type(dtype)
    one = _const(1, dtype)
    b = WorkBuilder()
    t = b.var("t")
    with b.loop("i", 0, push):
        b.push(t)
        b.set(t, t + one)
    return FilterSpec(name, pop=0, push=push, data_type=ty, output_type=ty,
                      state=(StateVar("t", ty, 0, _const(0, dtype)),),
                      work_body=b.build())


def make_tail(dtype: str, name: str = "tail") -> FilterSpec:
    ty = _scalar_type(dtype)
    b = WorkBuilder()
    b.push(b.pop())
    return FilterSpec(name, pop=1, push=1, data_type=ty, output_type=ty,
                      work_body=b.build())


def materialize(desc: ProgramDesc) -> Program:
    """Deterministically build the hierarchical program for ``desc``.

    A tail identity filter is appended when the last stage is a split-join
    (the executor collects the terminal *filter*'s pushes)."""
    nodes: List[StreamNode] = [materialize_stage(s) for s in desc.stages]
    from ..graph.structure import FilterNode
    if desc.source_lcg is not None:
        source = make_lcg_source(desc.source_push, desc.source_dtype,
                                 desc.source_lcg)
    else:
        source = make_source(desc.source_push, desc.source_dtype)
    head = FilterNode(source)
    if desc.stages and isinstance(desc.stages[-1], SplitJoinDesc):
        nodes.append(FilterNode(make_tail(desc.final_dtype())))
    return Program(desc.name, pipeline(head, *nodes))


# --------------------------------------------------------------------------
# (de)serialization
# --------------------------------------------------------------------------

def desc_to_dict(desc: ProgramDesc) -> Dict[str, Any]:
    def stage_dict(stage: StageDesc) -> Dict[str, Any]:
        if isinstance(stage, FilterDesc):
            return {
                "node": "filter", "name": stage.name, "kind": stage.kind,
                "pop": stage.pop, "push": stage.push,
                "peek_extra": stage.peek_extra,
                "dtype": stage.dtype, "out_dtype": stage.out_dtype,
                "scale": stage.scale, "offset": stage.offset,
                "decay": stage.decay, "funcs": list(stage.funcs),
            }
        return {
            "node": "splitjoin", "kind": stage.kind,
            "weights": list(stage.weights),
            "branches": [[stage_dict(s) for s in branch]
                         for branch in stage.branches],
        }

    out = {
        "version": 1,
        "name": desc.name,
        "source_push": desc.source_push,
        "source_dtype": desc.source_dtype,
        "stages": [stage_dict(s) for s in desc.stages],
    }
    if desc.source_lcg is not None:
        # Ramp programs keep the serialized form (and therefore the
        # content hash) they had before sources had kinds.
        out["source_kind"] = desc.source_kind
        out["source_lcg"] = list(desc.source_lcg)
    return out


def desc_from_dict(data: Dict[str, Any]) -> ProgramDesc:
    def stage_from(d: Dict[str, Any]) -> StageDesc:
        if d["node"] == "filter":
            return FilterDesc(
                name=d["name"], kind=d["kind"], pop=d["pop"], push=d["push"],
                peek_extra=d.get("peek_extra", 0),
                dtype=d.get("dtype", "float"),
                out_dtype=d.get("out_dtype", "float"),
                scale=d.get("scale", 1.0), offset=d.get("offset", 0.0),
                decay=d.get("decay", 0.5),
                funcs=tuple(d.get("funcs", ())))
        return SplitJoinDesc(
            kind=d["kind"], weights=tuple(d["weights"]),
            branches=tuple(tuple(stage_from(s) for s in branch)
                           for branch in d["branches"]))

    return ProgramDesc(
        source_push=data["source_push"],
        source_dtype=data.get("source_dtype", "float"),
        stages=tuple(stage_from(s) for s in data.get("stages", [])),
        name=data.get("name", "fuzz"),
        source_lcg=(tuple(data["source_lcg"])
                    if data.get("source_kind", "ramp") == "lcg" else None))
