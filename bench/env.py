"""Environment block recorded in every ledger."""

from __future__ import annotations

import os
import platform
import subprocess
from pathlib import Path
from typing import Any, Dict, Tuple


def _git(root: Path, *args: str) -> str:
    try:
        done = subprocess.run(["git", *args], cwd=root, capture_output=True,
                              text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return ""
    return done.stdout.strip() if done.returncode == 0 else ""


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:          # not Linux
        return os.cpu_count() or 1


def load_average() -> float:
    try:
        return os.getloadavg()[0]
    except OSError:
        return 0.0


def cpu_times() -> Tuple[float, float]:
    """``(steal, total)`` jiffies of all CPUs since boot.  Steal is time a
    vCPU was runnable and the host ran something else: on a shared VM it is
    the one direct sign that a slow run was the machine's doing."""
    try:
        fields = Path("/proc/stat").read_text().splitlines()[0].split()[1:]
    except (OSError, IndexError):
        return 0.0, 0.0
    values = [float(v) for v in fields]
    return (values[7] if len(values) > 7 else 0.0), sum(values[:8])


def steal_share(before: Tuple[float, float]) -> float:
    """Share of CPU time stolen by the host since ``before``."""
    steal, total = cpu_times()
    return (steal - before[0]) / (total - before[1]) \
        if total > before[1] else 0.0


#: A ledger is flagged noisy above this share of stolen CPU time.
STEAL_LIMIT = 0.02


def describe(root: Path) -> Dict[str, Any]:
    """Who measured, on what; ``load_1m_end``, ``steal_share`` and the
    final ``noisy`` are filled in by :func:`finish`."""
    import numpy
    load = load_average()
    # A checkout without .git (the driver's) has no sha: say so.
    in_git = (root / ".git").exists()
    return {
        "git_sha": _git(root, "rev-parse", "HEAD") if in_git else "unknown",
        "git_dirty": bool(_git(root, "status", "--porcelain"))
        if in_git else False,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": nproc(),
        "cpu_model": _cpu_model(),
        "load_1m_start": load,
        "load_1m_end": load,
        "steal_share": 0.0,
        # More runnable tasks than cores before we start: numbers are suspect.
        "noisy": load > nproc(),
    }


def finish(block: Dict[str, Any], started: Tuple[float, float]) -> None:
    """Close the environment block at the end of a ledger."""
    block["load_1m_end"] = load_average()
    block["steal_share"] = steal_share(started)
    block["noisy"] = block["noisy"] or block["steal_share"] > STEAL_LIMIT
