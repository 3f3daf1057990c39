"""Smoke test of the benchmark itself: ``pytest bench/`` (not tier-1).

Runs the real entry point in ``--quick`` mode, so it takes about two
minutes: two full quick ledgers (the second shows that the exact counts
repeat) and one run against a corrupted reference (the oracle is not
vacuous).
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from bench import compare
from bench.metrics import (END_TO_END, EXACT_COUNTS, PER_LAYER, WORKLOADS,
                           manifest)

ROOT = Path(__file__).resolve().parent.parent
RUN = [sys.executable, str(ROOT / "bench" / "run.py")]
QUICK_LIMIT_S = 60.0


def quick_ledger(path: Path) -> dict:
    start = time.perf_counter()
    done = subprocess.run([*RUN, "--workload", "all", "--quick", "--json",
                           str(path)], cwd=ROOT, capture_output=True,
                          text=True, timeout=600, check=False)
    wall = time.perf_counter() - start
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    ledger = json.loads(path.read_text())
    ledger["measured_wall_s"] = wall
    return ledger


@pytest.fixture(scope="module")
def ledgers(tmp_path_factory):
    directory = tmp_path_factory.mktemp("bench")
    return [quick_ledger(directory / f"quick{i}.json") for i in range(2)]


def test_manifest_matches_benchmark_json():
    assert json.loads((ROOT / "BENCHMARK.json").read_text()) == manifest()


def test_quick_mode_runs_every_workload(ledgers):
    for ledger in ledgers:
        assert set(ledger["workloads"]) == {name for name, _ in WORKLOADS}


def test_quick_mode_fits_a_minute(ledgers):
    for ledger in ledgers:
        if ledger["env"]["noisy"]:
            pytest.skip(f"host withheld {ledger['env']['steal_share']:.1%} "
                        f"of the CPU time: a wall-clock limit says nothing")
        assert ledger["measured_wall_s"] < QUICK_LIMIT_S


def test_every_metric_is_emitted_with_its_unit(ledgers):
    name_ok = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    for entry in ledgers[0]["workloads"].values():
        for name, unit, _better, _bound in END_TO_END:
            assert name_ok.match(name)
            assert entry["end_to_end"][name]["unit"] == unit
            assert entry["end_to_end"][name]["value"] > 0
        for name, unit, _better in PER_LAYER:
            assert name_ok.match(name)
            assert entry["per_layer"][name]["unit"] == unit


def test_no_op_fails(ledgers):
    for ledger in ledgers:
        for workload, entry in ledger["workloads"].items():
            assert entry["correct"], workload
            assert entry["end_to_end"]["failed_frac"]["value"] == 0, workload
            assert entry["attempted"] > 0


def test_exact_counts_repeat(ledgers):
    first, second = ledgers
    for workload in first["workloads"]:
        for name in EXACT_COUNTS:
            a = first["workloads"][workload]["per_layer"][name]["value"]
            b = second["workloads"][workload]["per_layer"][name]["value"]
            assert a == b, (workload, name, a, b)


def test_environment_block(ledgers):
    env = ledgers[0]["env"]
    for key in ("git_sha", "git_dirty", "python", "numpy", "nproc",
                "cpu_model", "load_1m_start", "load_1m_end", "steal_share",
                "noisy"):
        assert key in env
    assert ledgers[0]["total_wall_s"] > 0


def test_corrupted_reference_fails_ops():
    done = subprocess.run([*RUN, "--workload", "cold_run", "--quick",
                           "--corrupt-reference"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300,
                          check=False)
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["failed"] > 0
    assert not result["correct"]


def _session_of(stat: str) -> int:
    # /proc/<pid>/stat: "pid (comm) state ppid pgrp session ..."
    return int(stat.rsplit(")", 1)[1].split()[3])


@pytest.mark.parametrize("trace", [0, 1])
def test_no_process_outlives_a_serve_run(trace):
    """Workers and multiprocessing's resource tracker are gone (reaped, not
    just signalled) by the time the run's process has exited."""
    done = subprocess.Popen([*RUN, "--workload", "serve_small", "--quick",
                             "--trace", str(trace)], cwd=ROOT,
                            stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL,
                            start_new_session=True)
    assert done.wait(timeout=300) == 0
    left = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            text = stat.read_text()
        except OSError:             # ended while we were looking
            continue
        if _session_of(text) == done.pid:
            left.append(text)
    assert not left, left


def test_exits_nonzero_without_the_program(tmp_path):
    """The benchmark's files alone are not a benchmark."""
    import shutil
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "bench/run.py", "--workload",
                           "cold_run", "--seed", "0", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=180,
                          check=False)
    assert done.returncode != 0
    assert not done.stdout.strip()


# ------------------------------------------------------------ compare.py
def _metric(value, samples):
    from bench.stats import spread
    return {"value": value, "samples": samples, "spread": spread(samples)}


@pytest.mark.parametrize("a, b, better, bound, expected", [
    ((100, [99, 100, 101]), (102, [101, 102, 103]), "higher", 0.1, "same"),
    ((100, [99, 100, 101]), (80, [79, 80, 81]), "higher", 0.1, "worse"),
    ((100, [99, 100, 101]), (120, [119, 120, 121]), "higher", 0.1, "better"),
    # Spread beyond the bound: medians settle nothing ...
    ((100, [80, 100, 120]), (95, [75, 95, 115]), "higher", 0.1, "unresolved"),
    # ... unless one side wins every comparison.
    ((100, [80, 100, 120]), (60, [50, 60, 70]), "higher", 0.1, "worse"),
    ((10, [9.5, 10, 10.5]), (12, [11.5, 12, 12.5]), "lower", 0.1, "worse"),
    # failed_frac: no tolerance.
    ((0.0, [0.0]), (0.01, [0.01]), "lower", 0.0, "worse"),
    ((0.0, [0.0]), (0.0, [0.0]), "lower", 0.0, "same"),
])
def test_compare_verdicts(a, b, better, bound, expected):
    assert compare.verdict(_metric(*a), _metric(*b), better,
                           bound) == expected
