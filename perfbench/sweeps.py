"""Cold-sweep workloads: a serial ``Runner`` over an empty cache, in rounds.

Each round starts from nothing -- a fresh cache directory and emptied
in-process trace and plane registries -- synthesizes the workload
(set-up), then builds every grid of the workload cold (the sweep).
Rounds repeat until the run's time is spent; the metrics are medians
over rounds.
"""

from __future__ import annotations

import gc
import json
import random
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
from common import dir_bytes, drop, median, metric, peak_rss_mib
from tracing import Tracer, instrument, layer_metrics


@dataclass(frozen=True)
class Sweep:
    """The make-up of one cold-sweep workload (issue rates: the defaults)."""

    labels: tuple[str, ...]
    sizes: tuple[int, ...]
    scale: float


SWEEPS = {
    # The four non-preempting grids: host time is plane recording in the
    # per-machine hot loops; replay, commits and HTTP are nearly absent.
    "grid-cold": Sweep(
        ("baseline", "twoway", "rampage", "rampage_vl1"),
        (128, 256, 512, 1024, 2048, 4096),
        0.0001,
    ),
    # Switch-on-miss: preemption chunk splits and decision-op tape
    # recording.  128 B and 256 B pages stay out: one such cell alone
    # peaks at 2.7-3.7 GiB resident at scale 0.0005.
    "som-cold": Sweep(("rampage_som",), (1024, 2048, 4096), 0.00015),
}


@dataclass
class Round:
    setup_s: float
    sweep_s: float
    modes: dict[str, str]
    blobs: dict[str, bytes]
    counts: dict
    artifact_bytes: int
    records: dict[str, dict] = field(default_factory=dict)


def workload_refs(workload) -> dict[str, int]:
    """Reference counts by kind, counted from the workload's trace arrays."""
    from repro.trace.record import IFETCH, READ, WRITE

    counts = np.zeros(3, dtype=np.int64)
    for program in workload.programs:
        for chunk in program.chunks():
            counts += np.bincount(np.asarray(chunk.kinds), minlength=3)[:3]
    return {"ifetches": int(counts[IFETCH]), "reads": int(counts[READ]),
            "writes": int(counts[WRITE])}


def _dop_rows(planes_dir: Path) -> int:
    """Decision-op rows over every committed plane's ``dops.npy``."""
    return sum(int(np.load(path, mmap_mode="r").shape[0])
               for path in sorted(planes_dir.glob("*/dops.npy")))


def _one_round(sweep: Sweep, seed: int, cache: Path) -> tuple[Round, dict[str, int]]:
    from repro.core.observe import EventLog
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.runner import Runner, iter_cache_files
    from repro.trace import filter as planes
    from repro.trace import materialize

    materialize.clear_registry()
    planes.clear_registry()
    gc.collect()
    config = ExperimentConfig(scale=sweep.scale, sizes=sweep.sizes, seed=seed, cache_dir=cache)
    began = time.perf_counter()
    workload = materialize.get_workload(
        config.scale, config.seed, cache_dir=cache, slice_refs=config.slice_refs
    )
    setup_s = time.perf_counter() - began

    modes: dict[str, str] = {}

    def on_event(payload: dict) -> None:
        if payload["event"] == "cell_completed":
            modes[payload["key"]] = payload["mode"]

    events = EventLog(None)
    events.subscribe(on_event)
    runner = Runner(config, events=events)
    began = time.perf_counter()
    for label in sweep.labels:
        runner.grid(label)
    sweep_s = time.perf_counter() - began

    blobs = {path.stem: path.read_bytes() for path in iter_cache_files(cache)}
    refs = workload_refs(workload)
    artifact_bytes = dir_bytes(cache / materialize.TRACE_DIRNAME)
    round_ = Round(setup_s, sweep_s, modes, blobs, {}, artifact_bytes)
    round_.counts = {
        "cells_by_mode": dict(sorted(Counter(modes.values()).items())),
        "records_committed": len(blobs),
        "artifact_bytes": artifact_bytes,
        "plane_bytes": dir_bytes(cache / planes.PLANE_DIRNAME),
        "dop_rows": _dop_rows(cache / planes.PLANE_DIRNAME),
    }
    return round_, refs


def _check_round(round_: Round, refs: dict[str, int], first: Round | None,
                 expected_cells: int) -> list[tuple[set[str], str]]:
    """Every output check of one round; returns ``(failing keys, problem)``."""
    found: list[tuple[set[str], str]] = []
    for key, blob in sorted(round_.blobs.items()):
        record, problems = checks.envelope_problems(blob)
        if record is not None:
            round_.records[key] = record
            problems += checks.record_problems(record, refs)
        found += [({key}, problem) for problem in problems]
        if key not in round_.modes:
            found.append(({key}, f"{key}: record committed without a cell_completed event"))
    if len(round_.blobs) != expected_cells:
        found.append((set(round_.blobs), f"{len(round_.blobs)} records, expected {expected_cells}"))
    by_cell = {(r["label"], r["size_bytes"]): set() for r in round_.records.values()}
    group_modes: dict[tuple[str, int], list[str]] = {cell: [] for cell in by_cell}
    for key, record in round_.records.items():
        cell = (record["label"], record["size_bytes"])
        by_cell[cell].add(key)
        group_modes[cell].append(round_.modes.get(key, "missing"))
    for cell, problem in checks.rate_series_problems(list(round_.records.values())):
        found.append((by_cell[cell], problem))
    for cell, problem in checks.plane_group_problems(group_modes):
        found.append((by_cell[cell], problem))
    stats = [record["stats"] for record in round_.records.values()]
    round_.counts["preemptions"] = sum(s["switches_on_miss"] for s in stats)
    round_.counts["page_faults"] = sum(s["page_faults"] for s in stats)
    if first is not None:
        changed = {key for key in round_.blobs if round_.blobs[key] != first.blobs.get(key)}
        if changed:
            found.append((changed, f"{len(changed)} records differ from round 1's"))
        if round_.counts != first.counts:
            found.append((set(round_.blobs), f"work counts {round_.counts} differ from "
                                             f"round 1's {first.counts}"))
    return found


def resimulate(record: dict, scale: float, seed: int) -> list[str]:
    """Re-simulate ``record``'s cell with ``simulate()``: no plane, no cache.

    The workload is synthesized live, so neither the materialized trace
    nor a recorded miss plane stands between the two results.
    """
    from repro.analysis.runtime import RunRecord
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.runner import GRID_BUILDERS
    from repro.systems.simulator import simulate
    from repro.trace.synthetic import build_workload

    label, size = record["label"], record["size_bytes"]
    params = GRID_BUILDERS[label](record["issue_rate_hz"], size)
    result = simulate(params, build_workload(scale, seed=seed),
                      slice_refs=ExperimentConfig().slice_refs)
    fresh = json.loads(json.dumps(RunRecord.from_result(label, size, result).as_dict()))
    return checks.same_record_problems(record, fresh, f"cross-check {label}/{size}")


def _cross_check(sweep: Sweep, seed: int, round_: Round) -> tuple[str, list[str]]:
    """Re-simulate one seeded replayed sibling of the last round."""
    replayed = sorted(key for key, mode in round_.modes.items() if mode == "replayed")
    if not replayed:
        return "", ["the sweep replayed no cell to cross-check"]
    key = random.Random(seed).choice(replayed)
    return key, resimulate(round_.records[key], sweep.scale, seed)


def run_sweep(name: str, seed: int, seconds: float, workdir: Path,
              tracer: Tracer | None) -> dict:
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.runner import Runner

    sweep = SWEEPS[name]
    if tracer is not None:
        runner = Runner(ExperimentConfig(sizes=sweep.sizes, cache_dir=None))
        labels = {repr(params): label for label in sweep.labels
                  for params in runner.grid_params(label)}
        instrument(tracer, lambda params: labels.get(repr(params), "other"))
    cells = len(sweep.labels) * len(sweep.sizes) * len(ExperimentConfig().issue_rates)
    rounds: list[Round] = []
    failed: set[tuple[int, str]] = set()
    problems: list[str] = []
    began = time.perf_counter()
    while not rounds or time.perf_counter() - began < seconds:
        number = len(rounds) + 1
        if tracer is not None:
            tracer.round = number
        round_, refs = _one_round(sweep, seed, workdir / f"round-{number}")
        if tracer is not None:
            tracer.round = 0
        drop(workdir / f"round-{number}")
        for keys, problem in _check_round(round_, refs, rounds[0] if rounds else None, cells):
            failed |= {(number, key) for key in keys}
            problems.append(f"round {number}: {problem}")
        rounds.append(round_)
    rss = peak_rss_mib()
    key, cross = _cross_check(sweep, seed, rounds[-1])
    if cross:
        failed.add((len(rounds), key))
        problems += cross

    per_cell_ms = [r.sweep_s / cells * 1e3 for r in rounds]
    e2e = {
        "setup_s": metric(median(r.setup_s for r in rounds), "s"),
        "sweep_s": metric(median(r.sweep_s for r in rounds), "s"),
        "peak_rss_mb": metric(rss, "MiB"),
        "ops_per_s": metric(cells * len(rounds) / sum(r.sweep_s for r in rounds), "ops/s"),
        "op_p50_ms": metric(median(per_cell_ms), "ms"),
        "op_p99_ms": metric(max(per_cell_ms), "ms"),
        "job_p50_ms": metric(median(r.sweep_s * 1e3 for r in rounds), "ms"),
    }
    last = rounds[-1]
    counts = {
        "rounds": len(rounds),
        "cells_per_round": cells,
        **last.counts,
        "digest": checks.digest(last.blobs),
        "cross_checked": key,
    }
    layers = None
    if tracer is not None:
        layers = layer_metrics(tracer, list(range(1, len(rounds) + 1)),
                               median(r.artifact_bytes for r in rounds) / 2**20, {})
    return {
        "attempted": cells * len(rounds),
        "failed": len(failed),
        "problems": problems,
        "e2e": e2e,
        "layers": layers,
        "counts": counts,
    }
