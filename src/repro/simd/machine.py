"""Target machine descriptions (architecture description ``A`` of
Algorithm 1).

A machine fixes the SIMD width, which vector operations exist (math
intrinsics, extract_even/extract_odd permutations, SAGU), and a price table
mapping performance events to cycles.  Prices approximate reciprocal
throughputs of a Core-i7-class core with SSE 4.2; absolute values matter far
less than ratios (scalar vs vector, compute vs pack/unpack), which is what
the paper's evaluation shapes depend on.

The module also hosts the **target registry**: every machine the toolchain
knows about is registered by name (with aliases) via
:func:`register_target`, and every layer that needs a name→machine mapping
(CLI ``--machine`` flags, the fuzz harness's machine axis, the experiment
harness, the cost model) resolves through :func:`get_target` instead of
keeping its own table.  Registering a new target here carries it through
compilation, both execution backends, code generation, fuzzing, and the
CLI with zero driver edits.
"""

from __future__ import annotations

import difflib
import re
from dataclasses import dataclass, field, replace
from typing import Dict, FrozenSet, List, Mapping, Sequence, Tuple, Union


from ..perf import events as ev


class UnsupportedOperation(Exception):
    """Raised when pricing an event the machine cannot execute."""


class UnknownTargetError(KeyError):
    """Raised by :func:`get_target` for unregistered target names.

    The message carries a did-you-mean suggestion and the full list of
    registered names, so callers can surface it verbatim.
    """

    def __str__(self) -> str:  # KeyError would repr() the message
        return self.args[0] if self.args else ""


#: Baseline per-event prices (cycles).  Vector events cover SW lanes.
_CORE_I7_PRICES: Mapping[str, float] = {
    ev.SCALAR_ALU: 1.0,
    ev.SCALAR_MUL: 2.0,
    ev.SCALAR_DIV: 14.0,
    ev.VECTOR_ALU: 1.0,
    ev.VECTOR_MUL: 2.0,
    ev.VECTOR_DIV: 16.0,
    ev.SCALAR_LOAD: 1.5,
    ev.SCALAR_STORE: 1.5,
    ev.VECTOR_LOAD: 2.0,
    ev.VECTOR_STORE: 2.0,
    ev.VECTOR_LOAD_U: 3.0,
    ev.VECTOR_STORE_U: 3.0,
    # Insert/extract of one lane: movss/insertps (or pextrd) plus the
    # address arithmetic of the strided access it implements.
    ev.PACK: 3.0,
    ev.UNPACK: 3.0,
    ev.PERMUTE: 1.0,
    ev.SPLAT: 1.0,
    ev.LOOP: 1.5,
    ev.FIRE: 6.0,
    ev.ADDR: 6.0,   # Figure 8: software lane-order address translation
    ev.SAGU: 0.5,   # Figure 9: one extra increment instruction at most
    ev.COMM: 24.0,  # inter-core transfer per element (cache-line ping-pong)
    # scalar math (libm-style)
    "m_sin": 22.0, "m_cos": 22.0, "m_tan": 28.0,
    "m_asin": 26.0, "m_acos": 26.0, "m_atan": 26.0, "m_atan2": 32.0,
    "m_sqrt": 12.0, "m_exp": 18.0, "m_log": 18.0, "m_pow": 36.0,
    "m_abs": 1.0, "m_min": 1.0, "m_max": 1.0,
    "m_floor": 1.5, "m_ceil": 1.5, "m_round": 1.5, "m_rint": 1.5,
    "m_float": 1.0, "m_int": 1.0,
    # vector math (SVML-style, one event covers SW lanes)
    "vm_sin": 28.0, "vm_cos": 28.0,
    "vm_asin": 34.0, "vm_acos": 34.0, "vm_atan": 34.0,
    "vm_sqrt": 14.0, "vm_exp": 24.0, "vm_log": 24.0, "vm_pow": 44.0,
    "vm_abs": 1.0, "vm_min": 1.0, "vm_max": 1.0,
    "vm_floor": 2.0, "vm_ceil": 2.0, "vm_round": 2.0, "vm_rint": 2.0,
    "vm_float": 1.0, "vm_int": 1.0,
}

#: Math intrinsics with a vector implementation on SSE-class hardware
#: (everything priced above with a ``vm_`` entry).
_SSE_VECTOR_FUNCS: FrozenSet[str] = frozenset(
    name[3:] for name in _CORE_I7_PRICES if name.startswith("vm_"))


@dataclass(frozen=True)
class MachineDescription:
    """Everything MacroSS needs to know about the SIMD target."""

    name: str
    simd_width: int
    prices: Mapping[str, float]
    vector_math_funcs: FrozenSet[str] = _SSE_VECTOR_FUNCS
    has_extract_even_odd: bool = True
    has_sagu: bool = False

    def price(self, event: str) -> float:
        try:
            return self.prices[event]
        except KeyError:
            raise UnsupportedOperation(
                f"{self.name}: no price for event {event!r}") from None

    def supports_vector_call(self, func: str) -> bool:
        return func in self.vector_math_funcs

    def with_sagu(self, enabled: bool = True) -> "MachineDescription":
        suffix = "+sagu" if enabled else ""
        base = self.name.removesuffix("+sagu")
        return replace(self, name=base + suffix, has_sagu=enabled)

    def with_simd_width(self, sw: int) -> "MachineDescription":
        """A copy of this machine widened (or narrowed) to ``sw`` lanes.

        The name carries a single ``@sw<N>`` suffix on the *base* name:
        repeated widening re-derives from the base instead of stacking
        suffixes (``core-i7-sse4@sw8`` widened to 16 lanes is
        ``core-i7-sse4@sw16``, never ``core-i7-sse4@sw8@sw16``).
        """
        base = re.sub(r"@sw\d+", "", self.name)
        return replace(self, name=f"{base}@sw{sw}", simd_width=sw)


#: 3.26 GHz Core i7 with SSE 4.2 — the paper's evaluation platform.
CORE_I7 = MachineDescription(
    name="core-i7-sse4",
    simd_width=4,
    prices=dict(_CORE_I7_PRICES),
)

#: Core i7 augmented with the streaming address generation unit (§3.4).
CORE_I7_SAGU = CORE_I7.with_sagu()

#: A Neon-like embedded target: same width, no vector transcendentals,
#: costlier unaligned access.  Used by the ablation benches.
NEON_LIKE = MachineDescription(
    name="neon-like",
    simd_width=4,
    prices={**_CORE_I7_PRICES,
            ev.VECTOR_LOAD_U: 4.0, ev.VECTOR_STORE_U: 4.0},
    vector_math_funcs=frozenset(
        {"abs", "min", "max", "sqrt", "floor", "ceil", "round", "rint",
         "float", "int"}),
)


#: An SVE-like scalable-vector target.  Vector-length agnostic: the base
#: registration models a 128-bit vector length (4 × f32 lanes); widening to
#: a 256/512-bit implementation is ``SVE_LIKE.with_simd_width(8 | 16)`` —
#: same description, wider vectors (the "scalable" in Scalable Vector
#: Extension).  Predicated ld1/st1 make unaligned access free relative to
#: aligned access, uzp1/uzp2 provide extract-even/odd, and insert/extract
#: (INSR/LASTB-style) is cheaper than SSE's memory-round-trip lane moves.
SVE_LIKE = MachineDescription(
    name="sve-like",
    simd_width=4,
    prices={**_CORE_I7_PRICES,
            # predication absorbs alignment: unaligned == aligned
            ev.VECTOR_LOAD_U: 2.0, ev.VECTOR_STORE_U: 2.0,
            # INSR/LASTB lane insert/extract vs SSE insertps round-trips
            ev.PACK: 2.0, ev.UNPACK: 2.0},
)


#: A GPU-like throughput target for the planning subsystem: very wide
#: vectors (16 f32 lanes per "warp-slice"), cheap coalesced vector
#: memory, but *expensive* cross-core traffic and lane shuffling.  The
#: point of this target is the planner, not codegen fidelity: COMM is
#: priced an order of magnitude above the Core i7's cache-line
#: ping-pong (PCIe-ish per-element cost), so the branch-and-bound
#: optimizer visibly changes partition shape (fewer, coarser cuts) and
#: the vectorization planner changes technique mix versus ``i7``.
GPU_LIKE = MachineDescription(
    name="gpu-like",
    simd_width=16,
    prices={**_CORE_I7_PRICES,
            # coalesced wide loads/stores are the native access mode
            ev.VECTOR_LOAD: 1.0, ev.VECTOR_STORE: 1.0,
            ev.VECTOR_LOAD_U: 1.5, ev.VECTOR_STORE_U: 1.5,
            # wide ALU throughput is the whole point of the machine
            ev.VECTOR_ALU: 0.5, ev.VECTOR_MUL: 1.0, ev.VECTOR_DIV: 12.0,
            # per-lane insert/extract serialises a 16-wide unit
            ev.PACK: 8.0, ev.UNPACK: 8.0,
            # host<->device-ish per-element transfer cost
            ev.COMM: 160.0},
)


def wide_machine(sw: int) -> MachineDescription:
    """An AVX/Larrabee-style widening of the Core i7 model (SW ∈ {8, 16}).

    Wider vectors keep per-event prices but each vector event covers more
    lanes; pack/unpack chains get proportionally longer, which is the
    under-utilisation effect the paper's introduction warns about.
    """
    if sw < 4 or sw & (sw - 1):
        raise ValueError("wide_machine expects a power-of-two width >= 4")
    return CORE_I7.with_simd_width(sw)


# --- target registry -----------------------------------------------------

#: canonical lowercase name -> machine.
_TARGETS: Dict[str, MachineDescription] = {}
#: lowercase alias -> canonical lowercase name.
_TARGET_ALIASES: Dict[str, str] = {}


def register_target(machine: MachineDescription,
                    *,
                    aliases: Sequence[str] = ()) -> MachineDescription:
    """Register ``machine`` under its (case-insensitive) name + aliases.

    Returns the machine so registration can wrap the constructor::

        MY_TARGET = register_target(MachineDescription(...), aliases=("mt",))

    Raises :class:`ValueError` on name/alias collisions.
    """
    key = machine.name.lower()
    if key in _TARGETS:
        raise ValueError(f"target {machine.name!r} is already registered")
    if key in _TARGET_ALIASES:
        raise ValueError(
            f"target name {machine.name!r} collides with an alias of "
            f"{_TARGET_ALIASES[key]!r}")
    _TARGETS[key] = machine
    for alias in aliases:
        akey = alias.lower()
        if _TARGET_ALIASES.get(akey, key) != key:
            raise ValueError(
                f"alias {alias!r} is already bound to "
                f"{_TARGET_ALIASES[akey]!r}")
        if akey in _TARGETS and akey != key:
            raise ValueError(
                f"alias {alias!r} collides with registered target "
                f"{_TARGETS[akey].name!r}")
        _TARGET_ALIASES[akey] = key
    return machine


def get_target(name: Union[str, MachineDescription]) -> MachineDescription:
    """Resolve a target name (case-insensitive, aliases allowed).

    Passing a :class:`MachineDescription` returns it unchanged, so APIs can
    accept either form.  Unknown names raise :class:`UnknownTargetError`
    with a did-you-mean suggestion and the registered-name listing.
    """
    if isinstance(name, MachineDescription):
        return name
    key = name.lower()
    key = _TARGET_ALIASES.get(key, key)
    try:
        return _TARGETS[key]
    except KeyError:
        known = list_targets()
        candidates = known + sorted(_TARGET_ALIASES)
        close = difflib.get_close_matches(name.lower(), candidates, n=1)
        hint = f" — did you mean {close[0]!r}?" if close else ""
        raise UnknownTargetError(
            f"unknown target {name!r}{hint} (registered targets: "
            f"{', '.join(known)})") from None


def list_targets() -> List[str]:
    """Sorted canonical names of every registered target."""
    return sorted(_TARGETS)


def target_aliases(name: Union[str, MachineDescription]) -> Tuple[str, ...]:
    """Sorted aliases registered for one target (canonical name excluded)."""
    canonical = get_target(name).name.lower()
    return tuple(sorted(alias for alias, key in _TARGET_ALIASES.items()
                        if key == canonical and alias != canonical))


register_target(CORE_I7, aliases=("core-i7", "i7", "sse4"))
register_target(CORE_I7_SAGU, aliases=("core-i7+sagu", "i7+sagu", "sagu"))
register_target(NEON_LIKE, aliases=("neon",))
register_target(SVE_LIKE, aliases=("sve",))
register_target(GPU_LIKE, aliases=("gpu",))
