"""Steadiness check: every workload, many fresh processes, medians and quartiles.

    python3 perfbench/steady.py --runs 10 [--traced]

Iteration ``i`` (from 1) runs every workload of ``BENCHMARK.json`` once
with seed ``i`` for its ``run_seconds``, rotating the workload order so
no workload always runs first.  For each end-to-end metric it prints
the median, the quartiles and their distance as a share of the median
(the spread), beside the metric's bound from ``BENCHMARK.json``.  ``--traced`` adds one traced run per
workload and prints each end-to-end metric's tracing overhead against
the untraced median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One fresh-process run; returns its result plus the ``e2e:`` line, if any."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(command)} exited {done.returncode}:\n"
                           f"{done.stdout[-2000:]}\n{done.stderr[-4000:]}")
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith("e2e: "):
            result["e2e"] = json.loads(line[len("e2e: "):])
    return result


def summarize(values: list[float]) -> tuple[float, float, float, float]:
    """Median, first and third quartile, and their distance over the median."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)
    workloads = [workload["name"] for workload in spec["workloads"]]
    seconds = spec["run_seconds"]
    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}

    results: dict[str, list[dict]] = {workload: [] for workload in workloads}
    for i in range(args.runs):
        shift = i % len(workloads)
        for workload in workloads[shift:] + workloads[:shift]:
            result = run_once(workload, i + 1, seconds, 0)
            results[workload].append(result)
            print(f"run {i + 1}/{args.runs} {workload}: " + " ".join(
                f"{name}={value['value']:.4g}" for name, value in result["metrics"].items()),
                file=sys.stderr, flush=True)

    steady = True
    print(f"{'workload':11} {'metric':12} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'bound':>6}")
    for workload in workloads:
        runs = results[workload]
        shares = {run["failed"] / run["attempted"] for run in runs}
        for name in bounds:
            values = [run["metrics"][name]["value"] for run in runs if name in run["metrics"]]
            if not values:
                continue
            median, q1, q3, spread = summarize(values)
            flag = "" if name == "setup_s" or spread < bounds[name] / 3 else "  <- above bound/3"
            steady &= not flag
            print(f"{workload:11} {name:12} {median:12.5g} {q1:12.5g} {q3:12.5g} "
                  f"{spread:7.3f} {bounds[name]:6.2f}{flag}")
        print(f"{workload:11} failed share {sorted(shares)} over {len(runs)} runs")

    if args.traced:
        for workload in workloads:
            traced = run_once(workload, 1, seconds, 1)
            for name, value in traced.get("e2e", {}).items():
                base = statistics.median(run["metrics"][name]["value"]
                                         for run in results[workload])
                print(f"{workload:11} traced {name:12} {value['value']:12.5g} "
                      f"untraced median {base:12.5g} overhead {value['value'] / base - 1:+.3f}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
