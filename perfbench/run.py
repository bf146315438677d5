"""Run one benchmark workload; the last line of output is its result.

    python3 perfbench/run.py --workload grid-cold --seed 1 --seconds 27 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the
same workload with spans around each layer and prints the per-layer
metrics instead, plus its own end-to-end figures on an ``e2e:`` line
(their difference from an untraced run is the tracing overhead) and an
``overhead:`` line estimating the spans' own cost from a timed no-op span.
Work counts, which repeat exactly for a seed, go on a ``counts:`` line.
The exit code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from common import WORK_ROOT, ProgramMissing, drop, import_program, make_workdir
from serve import run_serve
from sweeps import run_sweep
from tracing import Tracer, span_cost_s, span_counts

#: Workload name -> the function that runs it.
WORKLOADS = {"grid-cold": run_sweep, "som-cold": run_sweep, "serve-warm": run_serve}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=27.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # The run and every process it starts share one CPU.  The serve loop
    # is sequential (one request in flight), so it could use only one, and
    # on a shared VM host pinning lowered the serve-warm spreads.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        import_program()
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    tracer = Tracer() if args.trace else None
    workdir = make_workdir(args.workload)
    try:
        outcome = WORKLOADS[args.workload](args.workload, args.seed, args.seconds, workdir,
                                           tracer)
    finally:
        if tracer is not None:
            tracer.restore()
        drop(workdir)

    counts = outcome["counts"]
    if tracer is not None:
        spans = WORK_ROOT / "spans" / f"{args.workload}-seed{args.seed}.jsonl"
        tracer.dump(spans)
        counts = {**counts, "spans": span_counts(tracer), "spans_file": str(spans)}
        print("e2e: " + json.dumps(outcome["e2e"], sort_keys=True))
        cost = span_cost_s()
        print("overhead: " + json.dumps({
            "spans": len(tracer.spans),
            "span_cost_us": round(cost * 1e6, 3),
            "tracing_s": round(cost * len(tracer.spans), 6),
        }))
    print("counts: " + json.dumps(counts, sort_keys=True))
    for problem in outcome["problems"]:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    correct = not outcome["problems"]
    print(json.dumps({
        "correct": correct,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": outcome["layers"] if tracer is not None else outcome["e2e"],
    }, sort_keys=True))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
