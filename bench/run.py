"""Entry point of the benchmark.

One workload, the contract ``BENCHMARK.json`` is written to::

    python3 bench/run.py --workload cold_run --seed 0 --seconds 8 --trace 0

prints every metric by name with its unit and ends with one JSON object
(``correct``, ``attempted``, ``failed``, ``metrics``): the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

All workloads, each run in a fresh subprocess, collected into a ledger::

    python3 bench/run.py --workload all --seed 0 --json OUT [--runs N]
    PYTHONPATH=src python -m bench.run --workload all --seed 0 --json OUT

``--seed`` only shuffles op order and session interleaving; the programs
under test receive generated inputs, never the seed.
"""

from __future__ import annotations

import sys
import time

_STARTED = time.perf_counter()      # set-up time counts from here

import argparse                                             # noqa: E402
import json                                                 # noqa: E402
import subprocess                                           # noqa: E402
from pathlib import Path                                    # noqa: E402
from typing import Any, Dict, List, Optional                # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
#: the line before the result object carries per-repeat samples for the
#: ledger; the contract only looks at the last line.
DETAIL_PREFIX = "detail: "
#: ``--quick``: a smoke run, not a measurement.
QUICK_SECONDS = 1.0


def _import_path() -> None:
    """Make ``bench`` and ``repro`` importable when run as a script from a
    checkout; fail (exit 2, no result line) where the program is absent."""
    if not (ROOT / "src" / "repro").is_dir():
        print(f"bench: {ROOT / 'src' / 'repro'} not found: the benchmark "
              f"measures the repository it sits in", file=sys.stderr)
        raise SystemExit(2)
    for path in (str(ROOT / "src"), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="bench/run.py", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all",
                        help="a workload name, or 'all' (needs --json)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds of one run (default: "
                             "BENCHMARK.json's run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics; 1: per-layer metrics")
    parser.add_argument("--json", metavar="OUT",
                        help="ledger file for --workload all")
    parser.add_argument("--runs", type=int, default=1,
                        help="untraced runs per workload in the ledger, "
                             "seeds --seed .. --seed+runs-1")
    parser.add_argument("--quick", action="store_true",
                        help="smoke mode: one set-up, short repeats")
    parser.add_argument("--print-manifest", action="store_true",
                        help="print BENCHMARK.json's content and exit")
    # Test hook of the smoke test: a corrupted reference must fail ops.
    parser.add_argument("--corrupt-reference", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ------------------------------------------------------------- one workload
def run_one(args: argparse.Namespace) -> int:
    from bench.harness import Run
    run = Run(args.workload, seed=args.seed, seconds=args.seconds,
              trace=args.trace, root=ROOT, started=_STARTED,
              corrupt=args.corrupt_reference, quick=args.quick)
    result, detail = run.execute()
    for line in run.lines:
        print(line)
    print(DETAIL_PREFIX + json.dumps(detail))
    print(json.dumps(result))
    return 0


# ------------------------------------------------------------------- ledger
def _spawn(workload: str, seed: int, trace: int, args: argparse.Namespace
           ) -> Dict[str, Any]:
    """One fresh subprocess, exactly the command the driver runs."""
    command = [sys.executable, str(ROOT / "bench" / "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", str(trace)]
    if args.quick:
        command.append("--quick")
    start = time.perf_counter()
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=900, check=False)
    wall = time.perf_counter() - start
    sys.stdout.write(done.stdout)
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"bench: {workload} (seed {seed}, trace {trace}) "
                         f"exited with {done.returncode}")
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    result["seed"] = seed
    result["samples"] = json.loads(
        lines[-2][len(DETAIL_PREFIX):])["samples"]
    return result


def run_ledger(args: argparse.Namespace) -> int:
    from bench import env
    from bench.metrics import END_TO_END, FAILED_FRAC, WORKLOADS
    from bench.stats import spread
    from statistics import median

    if not args.json:
        raise SystemExit("bench: --workload all needs --json OUT")
    start = time.perf_counter()
    cpu_before = env.cpu_times()
    ledger: Dict[str, Any] = {
        "schema": 1,
        "env": env.describe(ROOT),
        "seed": args.seed, "runs": args.runs, "seconds": args.seconds,
        "quick": args.quick, "workloads": {},
    }
    for workload, _why in WORKLOADS:
        began = time.perf_counter()
        runs = [_spawn(workload, args.seed + i, 0, args)
                for i in range(args.runs)]
        traced = _spawn(workload, args.seed, 1, args)
        end_to_end: Dict[str, Any] = {}
        for name, unit, _better, _bound in END_TO_END:
            values = [run["metrics"][name]["value"] for run in runs]
            # Repeats inside a run are the samples of a single-run ledger;
            # with several runs, the runs are.
            samples = values if len(runs) > 1 else runs[0]["samples"][name]
            end_to_end[name] = {
                "unit": unit, "value": median(values), "run_values": values,
                "samples": samples, "spread": spread(samples)}
        attempted = sum(r["attempted"] for r in [*runs, traced])
        failed = sum(r["failed"] for r in [*runs, traced])
        end_to_end[FAILED_FRAC[0]] = {
            "unit": FAILED_FRAC[1], "value": failed / attempted,
            "run_values": [failed / attempted],
            "samples": [failed / attempted], "spread": 0.0}
        ledger["workloads"][workload] = {
            "wall_s": time.perf_counter() - began,
            "correct": all(r["correct"] for r in [*runs, traced]),
            "attempted": attempted, "failed": failed,
            "end_to_end": end_to_end,
            "per_layer": traced["metrics"],
        }
    env.finish(ledger["env"], cpu_before)
    ledger["total_wall_s"] = time.perf_counter() - start
    Path(args.json).write_text(json.dumps(ledger, indent=1) + "\n")
    _print_ledger(ledger)
    return 0 if all(w["correct"] for w in ledger["workloads"].values()) else 1


def _print_ledger(ledger: Dict[str, Any]) -> None:
    env = ledger["env"]
    print(f"\n== ledger: {env['git_sha'][:12]}"
          f"{' (dirty)' if env['git_dirty'] else ''}, python "
          f"{env['python']}, numpy {env['numpy']}, {env['nproc']} x "
          f"{env['cpu_model']}, load {env['load_1m_start']:.2f} -> "
          f"{env['load_1m_end']:.2f}, steal {env['steal_share']:.1%}"
          f"{', NOISY' if env['noisy'] else ''}; "
          f"seed {ledger['seed']}, {ledger['runs']} run(s) of "
          f"{ledger['seconds']} s, total {ledger['total_wall_s']:.0f} s")
    print(f"{'workload':14s} {'metric':22s} {'median':>14s} {'unit':8s} "
          f"{'spread':>8s}")
    for workload, entry in ledger["workloads"].items():
        for name, metric in entry["end_to_end"].items():
            print(f"{workload:14s} {name:22s} {metric['value']:14.4f} "
                  f"{metric['unit']:8s} {metric['spread']:8.3f}")


def stop_processes() -> None:
    """Leave no process behind, on every path out of the benchmark.

    ``ServePool.shutdown`` joins its workers, but ``multiprocessing`` starts
    a resource-tracker process beside them that only ends once this process
    has exited, i.e. after the caller sees the run as over.  Any worker still
    alive is killed and joined, the exit finalizers run while the tracker
    can still hear them (a later ``unregister`` would start a new tracker),
    then the tracker is stopped and waited for.
    """
    if "multiprocessing" not in sys.modules:
        return
    import multiprocessing
    from multiprocessing import resource_tracker, util
    for child in multiprocessing.active_children():
        child.kill()
        child.join()
    util._exit_function()
    resource_tracker._resource_tracker._stop()


def main(argv: Optional[List[str]] = None) -> int:
    try:
        return _main(argv)
    finally:
        stop_processes()


def _main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    _import_path()
    from bench.metrics import RUN_SECONDS, WORKLOADS, manifest
    if args.print_manifest:
        print(json.dumps(manifest(), indent=2))
        return 0
    if args.seconds is None:
        args.seconds = QUICK_SECONDS if args.quick else float(RUN_SECONDS)
    if args.workload == "all":
        return run_ledger(args)
    if args.workload not in dict(WORKLOADS):
        raise SystemExit(f"bench: unknown workload {args.workload!r} "
                         f"(known: {', '.join(n for n, _ in WORKLOADS)})")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
