"""Compare two ledgers: ``python3 bench/compare.py A.json B.json``.

One row per (workload x end-to-end metric) with both medians, both spreads,
the metric's fixed bound and a verdict for B against A:

``worse``       B's median is worse than A's by more than the bound
``better``      B's median is better than A's by more than the bound
``same``        the medians differ by no more than the bound
``unresolved``  a side's run-to-run spread exceeds the bound, so the medians
                settle nothing -- unless every sample of one side beats
                every sample of the other, which settles it

``failed_frac`` has no tolerance: any increase is ``worse``.  Exit code 1
when any row is ``worse``, 0 otherwise.  Used for the A/A check (two sets of
runs of one commit must show no ``worse`` row) and by later changes for
parent-against-change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

if __package__ in (None, ""):           # run as a script from a checkout
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from bench.metrics import END_TO_END, FAILED_FRAC  # noqa: E402

#: metric -> (better, bound): the benchmark's table decides, not whatever
#: bounds a ledger from another commit was written with.
RULES = {name: (better, bound)
         for name, _unit, better, bound in [*END_TO_END, FAILED_FRAC]}


def worsening(a: float, b: float, better: str) -> float:
    """How much worse B's value is than A's, as a share of A's (negative
    when B is better)."""
    if not a:
        return 0.0 if b == a else float("inf") * (1 if b > a else -1)
    change = (b - a) / abs(a)
    return change if better == "lower" else -change


def dominates(xs: Sequence[float], ys: Sequence[float], better: str) -> bool:
    """Every sample of ``xs`` is better than every sample of ``ys``."""
    if better == "lower":
        return max(xs) < min(ys)
    return min(xs) > max(ys)


def verdict(a: Dict[str, Any], b: Dict[str, Any], better: str,
            bound: float) -> str:
    worse_by = worsening(a["value"], b["value"], better)
    if bound == 0.0:                    # failed_frac: any increase counts
        return "worse" if worse_by > 0 else \
            "better" if worse_by < 0 else "same"
    if max(a["spread"], b["spread"]) > bound:
        if dominates(b["samples"], a["samples"], better):
            return "better"
        if dominates(a["samples"], b["samples"], better):
            return "worse"
        return "unresolved"
    if worse_by > bound:
        return "worse"
    return "better" if worse_by < -bound else "same"


def compare(a: Dict[str, Any], b: Dict[str, Any]) -> List[Dict[str, Any]]:
    rows = []
    for workload, entry in a["workloads"].items():
        other = b["workloads"].get(workload)
        if other is None:
            continue
        for name, metric in entry["end_to_end"].items():
            theirs = other["end_to_end"].get(name)
            if theirs is None or name not in RULES:
                continue
            better, bound = RULES[name]
            rows.append({
                "workload": workload, "metric": name, "unit": metric["unit"],
                "a": metric["value"], "a_spread": metric["spread"],
                "b": theirs["value"], "b_spread": theirs["spread"],
                "bound": bound,
                "worse_by": worsening(metric["value"], theirs["value"],
                                      better),
                "verdict": verdict(metric, theirs, better, bound)})
    return rows


def render(rows: List[Dict[str, Any]]) -> str:
    lines = [f"{'workload':14s} {'metric':20s} {'A':>14s} {'spread':>7s} "
             f"{'B':>14s} {'spread':>7s} {'unit':8s} {'bound':>6s} "
             f"{'worse by':>9s}  verdict"]
    for row in rows:
        lines.append(
            f"{row['workload']:14s} {row['metric']:20s} {row['a']:14.4f} "
            f"{row['a_spread']:7.3f} {row['b']:14.4f} {row['b_spread']:7.3f} "
            f"{row['unit']:8s} {row['bound']:6.2f} {row['worse_by']:+9.3f}  "
            f"{row['verdict']}")
    counts = {v: sum(1 for r in rows if r["verdict"] == v)
              for v in ("better", "same", "worse", "unresolved")}
    lines.append(", ".join(f"{n} {v}" for v, n in counts.items()))
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    ledgers = []
    for path in argv:
        with open(path) as handle:
            ledgers.append(json.load(handle))
    rows = compare(*ledgers)
    for ledger, path in zip(ledgers, argv):
        if ledger["env"].get("noisy"):
            print(f"note: {path} was measured on a loaded machine (load "
                  f"{ledger['env']['load_1m_start']:.2f}, steal "
                  f"{ledger['env'].get('steal_share', 0.0):.1%})")
    print(render(rows))
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
