"""``repro.serve`` — process-sharded stream-serving runtime.

PR 5's thread runtime executes one graph across cores; this package
serves *many independent stream-graph sessions* across long-lived worker
processes (escaping the GIL), with:

* a **session layer** (:mod:`.session`) — picklable specs/results and
  the explicit wire-format seam the fuzz serve oracle mutation-tests;
* a **worker environment** (:mod:`.worker`) — per-process persistent
  compiled backend + content-addressed kernel cache + graph cache, so
  repeated sessions for the same (app, target, pipeline) recompile
  nothing;
* a **shared-memory transport** (:mod:`.transport`) — large result
  arrays travel as named shm segments (threshold-gated, refcounted by a
  parent-side registry, unlinked on drain/crash/shutdown) instead of
  pickling through the lane's result pipe;
* an **on-disk kernel store** (:mod:`.store`) — structhash-keyed
  per-machine artifact cache (atomic writes, version stamps, corrupt
  entries quarantined) that warms new or restarted workers instantly;
* a **pool** (:mod:`.pool`) — placement policies, admission control
  (queue-depth high-water → typed :class:`ServeOverload`), per-lane
  blame statistics, graceful drain/shutdown, and **supervision**, all
  served by one parent-side thread blocked in a single wait over one
  result pipe per lane and every worker's sentinel: a dead lane's
  sessions are requeued (at-most-once, ``retried`` flag; typed
  :class:`WorkerDied` when the retry is spent) and the lane restarts
  with bounded exponential backoff;
* a **scheduler registry** (:mod:`.scheduler`) — ``round-robin`` and
  ``least-loaded`` placement, extensible;
* a **load generator** (:mod:`.loadgen`) — open-loop (fixed arrival
  rate) and closed-loop (fixed concurrency) request streams with
  p50/p99 latency reporting, plus ``kill_worker_after`` fault
  injection.

CLI surface: ``macross serve`` and ``macross loadgen``.
"""

from .loadgen import (LoadReport, RequestRecord, kill_worker_after,
                      percentile, run_closed_loop, run_open_loop)
from .pool import ServePool, ServeTimeout, SessionTicket, WorkerStats
from .scheduler import (LeastLoaded, PlacementPolicy, RoundRobin,
                        UnknownPolicyError, get_policy, list_policies,
                        register_policy)
from .session import (ERROR_KIND_WORKER_DIED, ServeError, ServeOverload,
                      SessionResult, SessionSpec, WorkerDied, decode_result,
                      encode_result, worker_died_result)
from .store import (STORE_ENV_VAR, STORE_VERSION, KernelStore, StoreStats,
                    default_store_dir)
from .transport import (SHM_THRESHOLD_DEFAULT, WIRE_TRANSPORTS,
                        SegmentRegistry, load_result_shm, segment_names,
                        shm_threshold_default, stage_result_shm)
from .worker import WorkerEnv, worker_main

__all__ = [
    "ERROR_KIND_WORKER_DIED", "KernelStore", "LeastLoaded", "LoadReport",
    "PlacementPolicy", "RequestRecord", "RoundRobin", "STORE_ENV_VAR",
    "STORE_VERSION", "SHM_THRESHOLD_DEFAULT", "SegmentRegistry",
    "ServeError", "ServeOverload", "ServePool", "ServeTimeout",
    "SessionResult", "SessionSpec", "SessionTicket", "StoreStats",
    "UnknownPolicyError", "WIRE_TRANSPORTS", "WorkerDied", "WorkerEnv",
    "WorkerStats", "decode_result", "default_store_dir",
    "encode_result", "get_policy", "kill_worker_after", "list_policies",
    "load_result_shm", "percentile", "register_policy", "run_closed_loop",
    "run_open_loop", "segment_names", "shm_threshold_default",
    "stage_result_shm", "worker_died_result", "worker_main",
]
