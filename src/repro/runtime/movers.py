"""Data movers as data: one lane map per shape, three derivations.

A splitter, joiner, HSplitter or HJoiner firing is a fixed permutation of
element indices (§3.1, §3.3, §3.4).  :func:`mover_map` writes that
permutation down once per shape as a :class:`MoverMap`: per-port item
rates, the lane op that relates the scalar side to the vector side, and
``perm`` — for every output lane, the input lane that feeds it.  Lanes
are numbered port by port, item by item in FIFO order, lane by lane::

    shape            pops      pushes    op     perm[output lane]
    splitter dup F   (1,)      (1,)*F    copy   0
    splitter rr w    (Σw,)     w         copy   identity
    joiner w         w         (Σw,)     copy   identity
    HSplitter dup    (W,)      (W,)      splat  [j*SW + k]  = j
    HSplitter rr     (W*SW,)   (W,)      pack   [j*SW + k]  = k*W + j
    HJoiner          (W,)      (W*SW,)   lane   [k*W + j]   = j*SW + k

(round-robin routing is all in the rates; HSplitter rr and HJoiner are
each other's transpose).  Everything the backends need is derived from the
map at set-up time, never per firing:

* :func:`static_charge` — the event ``Counter`` of one firing;
* :func:`make_mover` — the per-firing closure of the compiled backend;
* :func:`make_batch_mover` — the ``n``-firing closure of the vector
  backend, over the strided runs of :func:`strided_runs`.

``executor._fire_*`` is deliberately *not* derived from the map: it is the
independent reference both derived forms are tested against.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Callable, List, NamedTuple, Optional, Sequence, Tuple

from ..graph.builtins import (
    HJoinerSpec,
    HSplitterSpec,
    JoinerSpec,
    SplitKind,
    SplitterSpec,
)
from ..perf import events as ev
from .tape import np

FireFn = Callable[[], None]
#: A batch closure fires ``n`` times and reports whether the batched fast
#: path actually ran (``False`` means it replayed per-firing fallback).
BatchFn = Callable[[int], bool]

COPY, SPLAT, PACK, LANE = "copy", "splat", "pack", "lane"

#: Injectable defect (mutation tests only): rotates every map's ``perm`` —
#: hence every run's destination offset — by this many lanes.  Both derived
#: forms inherit it; the reference does not, so the oracles must catch it.
_MUT_MOVER_SHIFT = 0


class MoverMap(NamedTuple):
    """One firing of a mover (see the module table)."""

    pops: Tuple[int, ...]     #: items popped per firing, per input port
    pushes: Tuple[int, ...]   #: items pushed per firing, per output port
    op: str                   #: COPY | SPLAT | PACK (scalar→vector) | LANE
    width: int                #: lanes per vector item (1 for COPY)
    perm: Tuple[int, ...]     #: input lane feeding each output lane

    @property
    def in_width(self) -> int:
        return self.width if self.op == LANE else 1

    @property
    def out_width(self) -> int:
        return self.width if self.op in (SPLAT, PACK) else 1


def mover_map(spec: Any) -> Optional[MoverMap]:
    """The lane map of a mover spec, or ``None`` for any other spec."""
    if isinstance(spec, SplitterSpec):
        weights = tuple(spec.weights)
        if spec.kind is SplitKind.DUPLICATE:
            m = MoverMap((1,), (1,) * len(weights), COPY, 1,
                         (0,) * len(weights))
        else:
            m = MoverMap((sum(weights),), weights, COPY, 1,
                         tuple(range(sum(weights))))
    elif isinstance(spec, JoinerSpec):
        weights = tuple(spec.weights)
        m = MoverMap(weights, (sum(weights),), COPY, 1,
                     tuple(range(sum(weights))))
    elif isinstance(spec, HSplitterSpec):
        w, sw = spec.weight, spec.width
        if spec.kind is SplitKind.DUPLICATE:
            m = MoverMap((w,), (w,), SPLAT, sw,
                         tuple(j for j in range(w) for _ in range(sw)))
        else:
            m = MoverMap((w * sw,), (w,), PACK, sw,
                         tuple(k * w + j for j in range(w) for k in range(sw)))
    elif isinstance(spec, HJoinerSpec):
        w, sw = spec.weight, spec.width
        m = MoverMap((w,), (w * sw,), LANE, sw,
                     tuple(j * sw + k for k in range(sw) for j in range(w)))
    else:
        return None
    if _MUT_MOVER_SHIFT and m.perm:
        shift = _MUT_MOVER_SHIFT % len(m.perm)
        m = m._replace(perm=m.perm[shift:] + m.perm[:shift])
    return m


class Run(NamedTuple):
    """One destination item per firing: firing ``f`` writes item
    ``dst_off + f * dst_period`` of output ``dst_port`` from, per
    destination lane, lane ``src_lane`` of item ``src_off + f * src_period``
    of input ``src_port``."""

    dst_port: int
    dst_off: int
    dst_period: int
    #: ``(src_port, src_off, src_period, src_lane)`` per destination lane.
    srcs: Tuple[Tuple[int, int, int, int], ...]


def _locate(rates: Sequence[int], item: int) -> Tuple[int, int]:
    for port, rate in enumerate(rates):
        if item < rate:
            return port, item
        item -= rate
    raise IndexError(item)


def strided_runs(m: MoverMap) -> Tuple[Run, ...]:
    """The map as strided runs, in destination order — what ``n`` firings
    turn into ``n``-long strided slice copies."""
    in_w, out_w = m.in_width, m.out_width
    runs = []
    for item in range(sum(m.pushes)):
        dst_port, dst_off = _locate(m.pushes, item)
        srcs = []
        for lane in m.perm[item * out_w:(item + 1) * out_w]:
            src_port, src_off = _locate(m.pops, lane // in_w)
            srcs.append((src_port, src_off, m.pops[src_port], lane % in_w))
        runs.append(Run(dst_port, dst_off, m.pushes[dst_port], tuple(srcs)))
    return tuple(runs)


def static_charge(m: MoverMap, in_lane_ordered: Sequence[bool],
                  out_lane_ordered: Sequence[bool],
                  has_sagu: bool) -> Counter:
    """Events of one firing.  ``*_lane_ordered`` are the adjacent tapes'
    flags by port; an empty ``out_lane_ordered`` is a dangling output
    (loads and lane ops are still charged, stores are not)."""
    lane = ev.lane_event(has_sagu)
    static = Counter({ev.FIRE: 1})
    for rate, ordered in zip(m.pops, in_lane_ordered):
        if m.op == LANE:
            static[ev.VECTOR_LOAD] += rate
        else:
            static[ev.SCALAR_LOAD] += rate
            if ordered:
                static[lane] += rate
    if m.op == SPLAT:
        static[ev.SPLAT] += sum(m.pushes)
    elif m.op == PACK:
        static[ev.PACK] += len(m.perm)
    elif m.op == LANE:
        static[ev.UNPACK] += len(m.perm)
    for rate, ordered in zip(m.pushes, out_lane_ordered):
        if m.out_width > 1:
            static[ev.VECTOR_STORE] += rate
        else:
            static[ev.SCALAR_STORE] += rate
            if ordered:
                static[lane] += rate
    return static


class _Bound(NamedTuple):
    """A map bound to one actor's runtime tapes."""

    m: MoverMap
    in_tapes: List[Any]    #: runtime tape per input port
    out_tapes: List[Any]   #: per output port; ``[]`` = lone output dangling
    charge: Callable[[int], None]


def _bind(run: Any, actor: Any) -> Optional[_Bound]:
    """Bind ``actor``'s map to its tapes; ``None`` when it is not a mover
    or its ports are not wired the way the map assumes (every input, and
    every output unless a lone output dangles) — the executor then keeps
    its generic path."""
    m = mover_map(actor.spec)
    if m is None:
        return None
    ins = run.graph.in_tapes(actor.id)
    outs = run.graph.out_tapes(actor.id)
    if [e.dst_port for e in ins] != list(range(len(m.pops))):
        return None
    if [e.src_port for e in outs] != list(range(len(m.pushes))) \
            and (outs or len(m.pushes) > 1):
        return None
    static = static_charge(m, [e.lane_ordered for e in ins],
                           [e.lane_ordered for e in outs],
                           run.machine.has_sagu)
    items = tuple((event, count) for event, count in static.items() if count)
    actor_id = actor.id

    def charge(n: int) -> None:
        # ``run.counters`` is swapped between the init and steady phases,
        # so the bag is re-fetched on every call.
        events = run.counters.for_actor(actor_id).events
        for event, count in items:
            events[event] += count * n
    return _Bound(m, [run.tapes[e.id] for e in ins],
                  [run.tapes[e.id] for e in outs], charge)


def make_mover(run: Any, actor: Any) -> Optional[FireFn]:
    """Per-firing closure: one charge, pop every input in port order, push
    every output in port order from a pre-computed pick plan — the same
    element order on every tape as ``executor._fire_*``."""
    bound = _bind(run, actor)
    if bound is None:
        return None
    m, charge = bound.m, bound.charge
    unpack, pack, out_w = m.in_width > 1, m.out_width > 1, m.out_width
    pops = tuple(tape.pop for tape, rate in zip(bound.in_tapes, m.pops)
                 for _ in range(rate))
    # One (push, pick) per output item: pick is the input lane, or for a
    # vector item the tuple of input lanes it packs.
    pushes = [tape.push for tape, rate in zip(bound.out_tapes, m.pushes)
              for _ in range(rate)]
    plan = tuple((push, m.perm[at * out_w:(at + 1) * out_w] if pack
                  else m.perm[at]) for at, push in enumerate(pushes))

    def fire() -> None:
        charge(1)
        lanes = [pop() for pop in pops]
        if unpack:
            lanes = [x for vector in lanes for x in vector]
        if pack:
            for push, pick in plan:
                push([lanes[i] for i in pick])
        else:
            for push, i in plan:
                push(lanes[i])
    return fire


def make_batch_mover(run: Any, actor: Any, fire: FireFn) -> Optional[BatchFn]:
    """``n``-firing closure: input windows → one strided commit per run →
    one ``charge(n)``, in the exact element order of ``n`` ``fire()``
    calls.  Every guard re-validates at runtime and hands the batch back
    to ``fire`` (reporting ``False``) before anything was consumed."""
    bound = _bind(run, actor)
    if bound is None:
        return None
    m, in_tapes, out_tapes, charge = bound
    unpack, pack = m.in_width > 1, m.out_width > 1
    runs = strided_runs(m)
    inputs = list(zip(in_tapes, m.pops))
    out_plan = [(tape, rate, [r for r in runs if r.dst_port == port])
                for port, (tape, rate) in enumerate(zip(out_tapes, m.pushes))]

    def refire(n: int) -> bool:
        for _ in range(n):
            fire()
        return False

    def batch(n: int) -> bool:
        if not all(tape.batchable for tape in out_tapes):
            return refire(n)
        windows = []
        for tape, rate in inputs:
            # A 0-rate port reads nothing (an empty tape with no kind yet
            # has no window).  A channel window *blocks* until the
            # producing core has committed it — the batched analogue of
            # its blocking pops.
            window = tape.window(n * rate) if rate else None
            if rate and (window is None
                         or pack and window.dtype.kind != "f"):
                # List storage, a short window, or int lanes to pack (a
                # vector lane must be a float).  Nothing consumed yet
                # (peeks only): per-firing is safe.
                return refire(n)
            windows.append(window)
        # A copied window's slots are released before any (possibly
        # blocking) downstream commit, so cores never wedge on each other;
        # a window that may alias tape storage is released after.
        for tape, rate in inputs:
            if tape.window_is_copy:
                tape.advance_reader(n * rate)
        for tape, rate, port_runs in out_plan:
            for r in port_runs:
                # Strided slices of the windows; a vector's lanes are
                # columns of a 2-d window, stacked in ``perm`` order.
                columns = [windows[port][off::period, lane] if unpack
                           else windows[port][off::period]
                           for port, off, period, lane in r.srcs]
                column = np.stack(columns, axis=1) if pack else columns[0]
                tape.write_strided(r.dst_off, r.dst_period, column)
            tape.advance_writer(n * rate)
        for tape, rate in inputs:
            if not tape.window_is_copy:
                tape.advance_reader(n * rate)
        charge(n)
        return True
    return batch
