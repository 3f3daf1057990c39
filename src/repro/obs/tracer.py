"""Zero-dependency span/event tracer for the MacroSS pipeline.

The tracer records two kinds of entries:

* **spans** — timed regions opened with :meth:`Tracer.span` (a context
  manager).  Spans carry a start timestamp, a duration, and an ``args``
  dict the body can enrich while the span is open (pass decisions, graph
  stats, counters).  Spans close LIFO per thread, so on any one thread
  two spans are either disjoint or properly nested — exactly the
  containment the Chrome ``trace_event`` viewer expects of complete
  (``"X"``) events.
* **instants** — point-in-time events recorded with :meth:`Tracer.event`
  (divergences, channel stalls, findings).

Design constraints (this module is on the hot path of every compile and
every execution):

* **no dependencies** — stdlib only (``time``, ``threading``);
* **thread-safe** — appends are guarded by a lock; timestamps come from
  one shared monotonic epoch so spans from different threads interleave
  correctly;
* **free when disabled** — a disabled tracer (or the shared
  :data:`NULL_TRACER`) returns a singleton no-op span and records
  nothing; instrumented code can call it unconditionally.

Exporters (Chrome ``trace_event`` JSON and JSON-lines) live in
:mod:`repro.obs.export`.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["TraceEvent", "Span", "Tracer", "NULL_TRACER", "ensure_tracer"]

#: Chrome trace_event phase codes used by this tracer.
PHASE_SPAN = "X"      # complete event (ts + dur)
PHASE_INSTANT = "i"   # instant event


@dataclass(frozen=True)
class TraceEvent:
    """One finished trace record (immutable once recorded)."""

    name: str
    cat: str
    ph: str                    # PHASE_SPAN or PHASE_INSTANT
    ts: float                  # microseconds since the tracer's epoch
    dur: float                 # microseconds (0.0 for instants)
    tid: int                   # OS thread ident that recorded the event
    args: Dict[str, Any] = field(default_factory=dict)

    @property
    def end(self) -> float:
        return self.ts + self.dur


class Span:
    """An open span; closes (and records itself) on ``__exit__``.

    The body may attach arguments while the span is open::

        with tracer.span("tape.optimize", cat="pass") as sp:
            strategies = optimize_tapes(work, machine)
            sp.add(strategies=len(strategies))
    """

    __slots__ = ("_tracer", "name", "cat", "args", "_start")

    def __init__(self, tracer: "Tracer", name: str, cat: str,
                 args: Dict[str, Any]) -> None:
        self._tracer = tracer
        self.name = name
        self.cat = cat
        self.args = args
        self._start = 0.0

    def add(self, **kwargs: Any) -> "Span":
        """Attach (or overwrite) argument values on the open span."""
        self.args.update(kwargs)
        return self

    def __setitem__(self, key: str, value: Any) -> None:
        self.args[key] = value

    def __enter__(self) -> "Span":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc: Any) -> bool:
        self._tracer._record_span(self, self._start, time.perf_counter())
        return False


class _NullSpan:
    """Shared no-op span: accepts the full :class:`Span` API, keeps nothing.

    Stateless, hence safe to share across threads and reenter."""

    __slots__ = ()

    #: args sink shared by every user; intentionally never read.
    args: Dict[str, Any] = {}

    def add(self, **kwargs: Any) -> "_NullSpan":
        return self

    def __setitem__(self, key: str, value: Any) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: Any) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class Tracer:
    """Collects :class:`TraceEvent` records; thread-safe; no-op when
    ``enabled=False``."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._events: List[TraceEvent] = []
        self._lock = threading.Lock()
        self._epoch = time.perf_counter()

    # -- recording ----------------------------------------------------------
    def span(self, name: str, cat: str = "", **args: Any):
        """Open a timed span (use as a context manager)."""
        if not self.enabled:
            return _NULL_SPAN
        return Span(self, name, cat, dict(args))

    def event(self, name: str, cat: str = "", **args: Any) -> None:
        """Record an instant event."""
        if not self.enabled:
            return
        now = (time.perf_counter() - self._epoch) * 1e6
        record = TraceEvent(name=name, cat=cat, ph=PHASE_INSTANT, ts=now,
                            dur=0.0, tid=threading.get_ident(), args=dict(args))
        with self._lock:
            self._events.append(record)

    def _record_span(self, span: Span, start: float, end: float) -> None:
        record = TraceEvent(
            name=span.name, cat=span.cat, ph=PHASE_SPAN,
            ts=(start - self._epoch) * 1e6,
            dur=(end - start) * 1e6,
            tid=threading.get_ident(), args=span.args)
        with self._lock:
            self._events.append(record)

    # -- inspection ---------------------------------------------------------
    @property
    def events(self) -> Tuple[TraceEvent, ...]:
        """Snapshot of everything recorded so far (record order)."""
        with self._lock:
            return tuple(self._events)

    def spans(self, cat: Optional[str] = None) -> List[TraceEvent]:
        """Completed spans, optionally filtered by category.

        Spans are returned in *start-time* order (they are recorded at
        close time, so parents land after their children in record
        order)."""
        found = [e for e in self.events
                 if e.ph == PHASE_SPAN and (cat is None or e.cat == cat)]
        return sorted(found, key=lambda e: e.ts)

    def clear(self) -> None:
        with self._lock:
            self._events.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)


#: Shared disabled tracer: instrument unconditionally, pay (almost) nothing.
NULL_TRACER = Tracer(enabled=False)


def ensure_tracer(tracer: Optional[Tracer]) -> Tracer:
    """Map ``None`` to the shared disabled tracer (instrumentation helper)."""
    return tracer if tracer is not None else NULL_TRACER
