"""Seeded random generation of stream-program descriptions.

Everything is driven by one ``random.Random`` instance, so a (seed, index)
pair uniquely identifies a program — the property the corpus and the CLI's
``--seed`` flag rely on.  The generator goes deliberately beyond the
hand-rolled hypothesis strategies in ``tests/properties/``:

* stateful, delay-line and deep-peeking filters, prework-built
  coefficient tables, bitwise integer mixing;
* nested pipelines and split-joins (one nesting level);
* duplicate and round-robin splitters with *unequal* weights;
* isomorphic split-join arms sized to the SIMD width, to trigger
  horizontal SIMDization;
* int/float element types with explicit conversions at stage boundaries;
* pops/pushes that are non-multiples of the SIMD width, stressing the
  Equation (1) repetition rescaling;
* linear congruential sources ``s ← (a·s + c) % m`` beside the ramp — the
  state class the vector backend runs as an int64 jump-ahead scan — with
  moduli that are not powers of two, ``a = 1``, ``c = 0``, a seed outside
  ``[0, m)`` (run-time guard → replay) and ``m = 2**31 + 1`` (build
  refusal).
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import List, Tuple

from .descriptions import (
    FLOAT_FUNCS,
    INT_FUNCS,
    FilterDesc,
    ProgramDesc,
    SplitJoinDesc,
    StageDesc,
)

#: Branch counts that make a split-join a horizontal candidate (the
#: default machines share SIMD width 4).
_HORIZONTAL_WIDTHS = (4, 8)

_FLOAT_SCALES = (0.5, 1.0, 1.5, 2.0, -1.5, 0.25)
_INT_SCALES = (1, 2, 3, -2)
_DECAYS = (0.25, 0.5, 0.75, 0.9)

#: Source kinds a program is drawn from (the mutation tests switch the
#: LCG kind off here to show which defects only it can reach).
SOURCE_KINDS = ("ramp", "lcg")

#: LCG source draws: glibc / Park–Miller (``m = 2**31 - 1``, ``c = 0``)
#: multipliers, the modular-counter case ``a = 1``, small and non-power-of-
#: two moduli, and one modulus past the int64-exact limit.
_LCG_A = (1103515245, 16807, 1, 5)
_LCG_C = (12345, 0, 1, 7)
_LCG_M = (2 ** 31, 2 ** 31 - 1, 1000, 8, 2 ** 31 + 1)


class _NameGen:
    def __init__(self) -> None:
        self._n = 0

    def __call__(self, prefix: str = "f") -> str:
        self._n += 1
        return f"{prefix}{self._n}"


def _random_funcs(rng: random.Random, dtype: str) -> Tuple[str, ...]:
    pool = INT_FUNCS if dtype == "int" else FLOAT_FUNCS
    count = rng.choice((0, 0, 1, 1, 2))
    return tuple(rng.choice(pool) for _ in range(count))


def random_filter(rng: random.Random, names: _NameGen, dtype: str,
                  *, allow_dtype_flip: bool = True,
                  max_rate: int = 5) -> FilterDesc:
    kind = rng.choices(
        ("map", "peeking", "stateful", "prework", "delay"),
        weights=(5, 2, 2, 1 if dtype == "float" else 0, 2))[0]
    out_dtype = dtype
    if allow_dtype_flip and rng.random() < 0.2:
        out_dtype = "int" if dtype == "float" else "float"
    scale = rng.choice(_INT_SCALES if dtype == "int" else _FLOAT_SCALES)
    offset = (rng.choice((0, 0, 1, 2)) if out_dtype == "int"
              else rng.choice((0.0, 0.0, 0.5, 1.0)))
    return FilterDesc(
        name=names(),
        kind=kind,
        pop=rng.randint(1, max_rate),
        push=rng.randint(1, max_rate),
        peek_extra=rng.randint(1, 3),
        dtype=dtype,
        out_dtype=out_dtype,
        scale=scale,
        offset=offset,
        decay=rng.choice(_DECAYS),
        funcs=_random_funcs(rng, dtype),
    )


def _isomorphic_splitjoin(rng: random.Random, names: _NameGen,
                          dtype: str) -> SplitJoinDesc:
    """Equal-weight split-join with isomorphic arms — a horizontal
    SIMDization candidate by construction (constants differ per arm)."""
    width = rng.choice(_HORIZONTAL_WIDTHS)
    duplicate = rng.random() < 0.5
    weight = 1 if duplicate else rng.randint(1, 3)
    depth = rng.randint(1, 2)
    scales = _INT_SCALES if dtype == "int" else _FLOAT_SCALES
    # One template per level; arms share everything except constants.
    templates = []
    for _ in range(depth):
        kind = rng.choices(("map", "stateful", "delay"),
                           weights=(3, 2, 2))[0]
        rate = rng.randint(1, 3)
        funcs = _random_funcs(rng, dtype)
        templates.append((kind, rate, funcs))
    branches: List[Tuple[StageDesc, ...]] = []
    for _arm in range(width):
        chain = []
        for kind, rate, funcs in templates:
            chain.append(FilterDesc(
                name=names("h"),
                kind=kind,
                pop=rate, push=rate,
                peek_extra=2 if kind == "delay" else 0,
                dtype=dtype, out_dtype=dtype,
                scale=rng.choice(scales),
                decay=rng.choice(_DECAYS),
                funcs=funcs,
            ))
        branches.append(tuple(chain))
    return SplitJoinDesc(
        kind="duplicate" if duplicate else "roundrobin",
        weights=(weight,) * width,
        branches=tuple(branches))


def _weights_reasonable(sj: SplitJoinDesc, cap: int = 24) -> bool:
    """Reject split-joins whose derived joiner weights (at any nesting
    level) would explode the repetition vector."""
    if max(sj.joiner_weights()) > cap:
        return False
    for branch in sj.branches:
        for stage in branch:
            if isinstance(stage, SplitJoinDesc) and \
                    not _weights_reasonable(stage, cap):
                return False
    return True


def _free_splitjoin(rng: random.Random, names: _NameGen, dtype: str,
                    *, depth: int) -> SplitJoinDesc:
    """General split-join: unequal weights, heterogeneous branches, and —
    while ``depth`` allows — nested split-joins inside branches."""
    for attempt in range(6):
        fanout = rng.randint(2, 4)
        duplicate = rng.random() < 0.4
        weights = tuple(1 if duplicate else rng.randint(1, 3)
                        for _ in range(fanout))
        # Later attempts force rate-balanced branches (ratio 1) so the
        # derived joiner weights stay small.
        balanced = attempt >= 3
        branches: List[Tuple[StageDesc, ...]] = []
        for _ in range(fanout):
            chain: List[StageDesc] = []
            for _ in range(rng.randint(1, 2)):
                if not balanced and depth > 0 and rng.random() < 0.15:
                    chain.append(_free_splitjoin(rng, names, dtype, depth=0))
                else:
                    f = random_filter(rng, names, dtype,
                                      allow_dtype_flip=False, max_rate=3)
                    if balanced:
                        f = FilterDesc(**{**f.__dict__, "push": f.pop,
                                          "peek_extra": min(f.peek_extra, 2)})
                    chain.append(f)
            branches.append(tuple(chain))
        candidate = SplitJoinDesc(
            kind="duplicate" if duplicate else "roundrobin",
            weights=weights, branches=tuple(branches))
        if _weights_reasonable(candidate):
            return candidate
    # Deterministic last resort: two identity branches.
    a = random_filter(rng, names, dtype, allow_dtype_flip=False, max_rate=2)
    a = FilterDesc(**{**a.__dict__, "push": a.pop})
    b = random_filter(rng, names, dtype, allow_dtype_flip=False, max_rate=2)
    b = FilterDesc(**{**b.__dict__, "push": b.pop})
    return SplitJoinDesc(kind="roundrobin", weights=(1, 2),
                         branches=((a,), (b,)))


def random_stage(rng: random.Random, names: _NameGen,
                 dtype: str) -> StageDesc:
    roll = rng.random()
    if roll < 0.15:
        return _isomorphic_splitjoin(rng, names, dtype)
    if roll < 0.30:
        return _free_splitjoin(rng, names, dtype, depth=1)
    return random_filter(rng, names, dtype)


def generate_program(rng: random.Random, *, index: int = 0,
                     max_stages: int = 4) -> ProgramDesc:
    """Draw one random-but-valid program description."""
    names = _NameGen()
    source_dtype = "int" if rng.random() < 0.25 else "float"
    dtype = source_dtype
    stages: List[StageDesc] = []
    for _ in range(rng.randint(1, max_stages)):
        stage = random_stage(rng, names, dtype)
        stages.append(stage)
        if isinstance(stage, FilterDesc):
            dtype = stage.out_dtype
    desc = ProgramDesc(
        source_push=rng.randint(2, 6),
        source_dtype=source_dtype,
        stages=tuple(stages),
        name=f"fuzz{index}")
    # Drawn last, and always in full, so the stage chain of every program
    # is the same with the LCG kind switched on or off.
    a, c, m = rng.choice(_LCG_A), rng.choice(_LCG_C), rng.choice(_LCG_M)
    seed = rng.choice((1, 12345, 88172645, m + 3))
    if rng.random() < 0.5 and "lcg" in SOURCE_KINDS:
        desc = replace(desc, source_lcg=(a, c, m, seed))
    return desc
