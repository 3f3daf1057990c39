"""In-process layer probes: numbers an end-to-end run cannot show.

Each probe drives one layer through its public API for well under two
seconds and checks what came back -- a round trip must compare equal.  A
probe returns ``(metrics, failures)``; the harness adds the failures to the
run's ``failed`` count, so a probe whose layer corrupts data fails the run.
"""

from __future__ import annotations

import copy
import pickle
import shutil
import threading
import time
import uuid
from pathlib import Path
from statistics import median
from typing import Any, Callable, Dict, List, Sequence, Tuple

from repro.multicore.channels import Channel
from repro.runtime import NdTape, Tape
from repro.serve import (KernelStore, SessionSpec, WorkerEnv, decode_result,
                         encode_result, load_result_shm, stage_result_shm,
                         shm_threshold_default)

Metrics = Dict[str, float]

#: Items moved by the tape and channel probes.
TAPE_ITEMS = 65536
TAPE_BLOCK = 1024
TRIES = 5


def _timed(run: Callable[[], Any]) -> Tuple[List[float], Any]:
    """Wall times of ``TRIES`` runs and the last run's value."""
    times, value = [], None
    for _ in range(TRIES):
        start = time.perf_counter()
        value = run()
        times.append(time.perf_counter() - start)
    return times, value


def _best(run: Callable[[], Any]) -> Tuple[float, Any]:
    times, value = _timed(run)
    return min(times), value


def _median_ms(run: Callable[[], Any]) -> Tuple[float, Any]:
    times, value = _timed(run)
    return median(times) * 1e3, value


# --------------------------------------------------------------- runtime.tape
def _through_tape(tape: Tape, blocks: List[List[float]]) -> List[float]:
    """Block push / peek / pop through the batched repertoire."""
    out: List[float] = []
    for block in blocks:
        tape.write_strided(0, 1, block)
        tape.advance_writer(len(block))
        out.extend(tape.peek_block(len(block)))
        tape.advance_reader(len(block))
    return out


def tape_probe() -> Tuple[Metrics, int]:
    values = [i * 0.5 for i in range(TAPE_ITEMS)]
    blocks = [values[i:i + TAPE_BLOCK]
              for i in range(0, TAPE_ITEMS, TAPE_BLOCK)]
    failures = 0
    metrics: Metrics = {}
    degrades = 0
    for key, cls in (("list", Tape), ("nd", NdTape)):
        tapes: List[Tape] = []

        def run() -> List[float]:
            tapes.append(cls("probe"))
            return _through_tape(tapes[-1], blocks)

        run()                                            # warm-up
        seconds, got = _best(run)
        failures += got != values
        metrics[f"runtime.tape.{key}_items_per_s"] = TAPE_ITEMS / seconds
        degrades += sum(1 for t in tapes
                        if getattr(t, "degrade_reason", None) is not None)
    metrics["runtime.tape.nd_degrades"] = float(degrades)
    return metrics, failures


# ------------------------------------------------------------------ multicore
def channel_probe() -> Tuple[Metrics, int]:
    """Two threads, one bounded ``Channel``: the measured price of moving
    an item across cores (what the planner's COMM constant stands for)."""
    values = [i * 0.5 for i in range(TAPE_ITEMS)]
    blocks = [values[i:i + TAPE_BLOCK]
              for i in range(0, TAPE_ITEMS, TAPE_BLOCK)]

    def run() -> List[float]:
        channel = Channel("probe", capacity=4 * TAPE_BLOCK, stall_timeout=30.0)
        received: List[float] = []

        def consume() -> None:
            for block in blocks:
                received.extend(channel.peek_block(len(block)))
                channel.advance_reader(len(block))

        consumer = threading.Thread(target=consume, name="bench-consumer")
        consumer.start()
        for block in blocks:
            channel.write_strided(0, 1, block)
            channel.advance_writer(len(block))
        consumer.join()
        return received

    run()
    seconds, got = _best(run)
    return ({"multicore.channel_items_per_s": TAPE_ITEMS / seconds},
            int(got != values))


# ------------------------------------------------- serve.session / transport
def wire_probe(results: Sequence[Any]) -> Tuple[Metrics, int]:
    """Encode / decode / pickle / shm round trips on each session class's
    real ``SessionResult``; every value is the mean over classes of the
    per-class median."""
    failures = 0
    sums: Metrics = {key: 0.0 for key in (
        "serve.session.encode_ms", "serve.session.decode_ms",
        "serve.session.wire_bytes", "serve.transport.queue_pickle_ms",
        "serve.transport.shm_stage_ms", "serve.transport.shm_load_ms")}
    uid = uuid.uuid4().hex[:8]
    threshold = shm_threshold_default()
    for seq, result in enumerate(results, start=1):
        encode_ms, wire = _median_ms(lambda: encode_result(result))
        decode_ms, back = _median_ms(lambda: decode_result(dict(wire)))
        failures += back != result
        blob = pickle.dumps(wire)
        pickle_ms, unpickled = _median_ms(
            lambda: pickle.loads(pickle.dumps(wire)))
        failures += unpickled != wire
        stage_times, load_times = [], []
        for _ in range(TRIES):
            staged = copy.copy(wire)
            start = time.perf_counter()
            staged = stage_result_shm(staged, uid=uid, worker=0, seq=seq,
                                      threshold=threshold)
            mid = time.perf_counter()
            loaded = load_result_shm(staged)
            load_times.append(time.perf_counter() - mid)
            stage_times.append(mid - start)
            failures += loaded != wire
        sums["serve.session.encode_ms"] += encode_ms
        sums["serve.session.decode_ms"] += decode_ms
        sums["serve.session.wire_bytes"] += len(blob)
        sums["serve.transport.queue_pickle_ms"] += pickle_ms
        sums["serve.transport.shm_stage_ms"] += median(stage_times) * 1e3
        sums["serve.transport.shm_load_ms"] += median(load_times) * 1e3
    return {key: total / len(results) for key, total in sums.items()}, failures


# ----------------------------------------------------------------- serve.store
def store_probe(specs: Sequence[SessionSpec], backend: str, root: Path,
                check: Callable[[SessionSpec, Any], bool]
                ) -> Tuple[Metrics, int]:
    """A cold ``WorkerEnv`` publishes into a fresh ``KernelStore``; a second
    fresh ``WorkerEnv`` warms from it.  ``root`` is a scratch directory
    inside the checkout, removed afterwards."""
    failures = 0
    directory = root / f"store-{uuid.uuid4().hex[:8]}"
    try:
        cold_env = WorkerEnv(backend, store=KernelStore(directory))
        cold = [cold_env.run_session(spec) for spec in specs]
        warm_store = KernelStore(directory)
        warm_env = WorkerEnv(backend, store=warm_store)
        warm = [warm_env.run_session(spec) for spec in specs]
        for spec, a, b in zip(specs, cold, warm):
            failures += not (a.ok and b.ok and check(spec, a)
                             and check(spec, b))
        probe_store = KernelStore(directory)
        load_times, publish_times = [], []
        for spec in specs:
            key = spec.graph_key()
            load_ms, artifact = _median_ms(lambda: probe_store.load(key))
            if artifact is None:
                failures += 1
                continue
            load_times.append(load_ms)
            publish_ms, stored = _median_ms(
                lambda: probe_store.store(key + "#probe", *artifact))
            failures += not stored
            publish_times.append(publish_ms)
        lookups = warm_store.stats.hits + warm_store.stats.misses
        metrics = {
            "serve.store.publish_ms":
                median(publish_times) if publish_times else 0.0,
            "serve.store.load_ms": median(load_times) if load_times else 0.0,
            "serve.store.hit_ratio":
                warm_store.stats.hits / lookups if lookups else 0.0,
            "serve.store.warm_vs_cold":
                sum(r.busy_s for r in cold) / sum(r.busy_s for r in warm),
        }
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    return metrics, failures
