"""Kernel cache: the one content-keyed memo of the execution backends.

A kernel — a closure kernel of the compiled backend, or a batch kernel
(or its refusal) of the vector backend — bakes its body's constants into
itself, so it is keyed by the body itself crossed with everything else
its builder read (the compiled backend's
:class:`~repro.runtime.compiled.compiler.Specialization`; the vector
backend's tape kinds, lane ordering, SIMD width and state types).
Actors built from one factory with the same arguments share a kernel;
an entry built from an equal but different body object serves only
under :func:`repro.ir.structhash.same_constants`.

``CacheStats`` exposes lookup/hit/miss counts so tests can assert what
was shared, and so ``macross run/profile/trace`` can surface cache
behaviour per execution (see
:attr:`repro.runtime.executor.ExecutionResult.kernel_cache`).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Callable, Dict, Hashable, Mapping, Tuple

from ..ir import stmt as S
from ..ir.structhash import same_constants


@dataclass
class CacheStats:
    """Observable cache behaviour (mutated in place by the cache)."""

    lookups: int = 0
    hits: int = 0

    @property
    def compiled(self) -> int:
        """Number of distinct kernels actually built."""
        return self.lookups - self.hits

    @property
    def misses(self) -> int:
        """Alias of :attr:`compiled` (every miss builds exactly once)."""
        return self.compiled

    def snapshot(self) -> Dict[str, int]:
        """Immutable copy of the counters (for before/after deltas)."""
        return {"lookups": self.lookups, "hits": self.hits,
                "misses": self.misses, "compiled": self.compiled}

    def delta(self, before: Mapping[str, int]) -> Dict[str, int]:
        """Counter changes since a previous :meth:`snapshot`."""
        now = self.snapshot()
        return {key: now[key] - before.get(key, 0) for key in now}


class KernelCache:
    """Maps ``(body, key)`` to whatever ``build()`` made for it.

    Unbounded: an entry is keyed by content, so residency grows with the
    number of distinct actor bodies a process has seen, never per run.
    """

    def __init__(self) -> None:
        # (body, key) -> (body built from, kernel)
        self._kernels: Dict[Tuple[S.Body, Hashable], Tuple[S.Body, Any]] = {}
        self.stats = CacheStats()
        # Per-core set-up runs sequentially, but ``resolve_backend`` hands
        # every thread of the process the same backend (and so the same
        # cache), so lookup/build/insert must be atomic.  Set-up time
        # only (kernels are looked up once per actor, never per firing),
        # so the lock is off every hot path.
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._kernels)

    def get(self, body: S.Body, key: Hashable,
            build: Callable[[], Any]) -> Any:
        """Return the kernel for ``body`` under ``key``, calling
        ``build()`` on first request.  A kernel must keep no per-actor
        data, so sharing it across actors and executions is always sound.
        Thread-safe: concurrent per-core setup threads serialise here."""
        with self._lock:
            self.stats.lookups += 1
            entry = self._kernels.get((body, key))
            if entry is None or not same_constants(entry[0], body):
                entry = (body, build())
                self._kernels[body, key] = entry
            else:
                self.stats.hits += 1
            return entry[1]
