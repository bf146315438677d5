"""Spans around the program's layer boundaries, recorded from outside.

The traced run patches each layer's public function -- as bound where
its caller looks it up -- with a wrapper that records one span (name,
start, end, parent, plus a few attributes).  Spans stay in memory and
are written out once, when the run ends.  Untraced runs never call
:func:`instrument`, so their end-to-end numbers carry no tracing
overhead.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
import types
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

from common import ALL_LABELS, median, metric

#: Report formats the serve workload fetches.
REPORT_FORMATS = ("json", "md", "svg")

#: Client-side request classes whose median latency is a service layer metric.
SERVICE_CLASSES = ("status", "manifest", "record", "record_304", "resubmit")

#: Every per-layer metric a traced run prints, with its unit.
LAYER_METRICS: dict[str, str] = {
    "trace.materialize_s": "s",
    "trace.artifact_mb": "MiB",
    **{f"systems.simulate_s.{label}": "s" for label in ALL_LABELS},
    **{f"systems.refs_per_s.{label}": "refs/s" for label in ALL_LABELS},
    "filter.commit_plane_s": "s",
    "filter.plane_mb": "MiB",
    "filter.get_plane_s": "s",
    "filter.replay_group_s": "s",
    "runner.record_commit_s": "s",
    "runner.manifest_s": "s",
    "service.submit_s": "s",
    **{f"service.{name}_p50_ms": "ms" for name in SERVICE_CLASSES},
    "reports.build_s": "s",
    **{f"reports.export_s.{fmt}": "s" for fmt in REPORT_FORMATS},
    **{f"service.report_{fmt}_p50_ms": "ms" for fmt in REPORT_FORMATS},
}

#: Span name -> the per-layer time metric it sums into.
_BUSY_METRICS = {
    "trace.get_workload": "trace.materialize_s",
    "filter.commit_plane": "filter.commit_plane_s",
    "filter.get_plane": "filter.get_plane_s",
    "filter.replay_group": "filter.replay_group_s",
    "runner.record_commit": "runner.record_commit_s",
    "runner.write_cache_manifest": "runner.manifest_s",
    "service.submit": "service.submit_s",
    "reports.build_report": "reports.build_s",
}


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        #: The benchmark round spans are attributed to (0: outside rounds).
        self.round = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str, **attrs):
        stack = self._local.__dict__.setdefault("stack", [])
        record = {
            "id": next(self._ids),
            "name": name,
            "parent": stack[-1] if stack else None,
            "round": self.round,
            **attrs,
        }
        stack.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            self.spans.append(record)

    def wrap(self, owner: object, attr: str, name: str, annotate=None) -> None:
        """Replace ``owner.attr`` with a spanned wrapper until :meth:`restore`.

        ``annotate(args, kwargs, result)`` returns extra span attributes.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = original(*args, **kwargs)
                if annotate is not None:
                    record.update(annotate(args, kwargs, result))
                return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for record in sorted(self.spans, key=lambda span: span["id"]):
                handle.write(json.dumps(record, sort_keys=True) + "\n")

    def per_round(self, rounds: list[int], name: str, field: str | None = None,
                  match=None) -> list[float]:
        """Per-round sums of span durations (or of ``field``) named ``name``."""
        totals = dict.fromkeys(rounds, 0.0)
        for span in self.spans:
            if span["name"] != name or span["round"] not in totals:
                continue
            if match is not None and not match(span):
                continue
            totals[span["round"]] += (
                span["end"] - span["start"] if field is None else span[field]
            )
        return [totals[r] for r in rounds]


def span_cost_s(calls: int = 20_000) -> float:
    """Measured cost of one span: a wrapped no-op call minus a plain one."""
    probe = Tracer()
    holder = types.SimpleNamespace(noop=lambda: None)
    plain = holder.noop
    probe.wrap(holder, "noop", "probe")
    began = time.perf_counter()
    for _ in range(calls):
        holder.noop()
    traced = time.perf_counter() - began
    began = time.perf_counter()
    for _ in range(calls):
        plain()
    return max(0.0, traced - (time.perf_counter() - began)) / calls


def instrument(tracer: Tracer, label_of) -> None:
    """Wrap every layer boundary the per-layer metrics are measured at.

    ``label_of(params)`` names the grid a simulated machine belongs to.
    """
    from repro.experiments import parallel, runner
    from repro.service import scheduler, server
    from repro.trace import filter as planes
    from repro.trace import materialize

    def sim_attrs(args, kwargs, result):
        stats = result.stats
        return {"label": label_of(args[0]),
                "refs": stats.ifetches + stats.reads + stats.writes}

    def plane_attrs(args, kwargs, result):
        return {"bytes": planes.plane_nbytes(args[0]), "dops": len(args[0].dops)}

    # The sweep service runs jobs through ParallelRunner, whose planner
    # attaches the trace and first-touches planes through its own imports.
    for module in (materialize, runner, parallel):
        tracer.wrap(module, "get_workload", "trace.get_workload")
    tracer.wrap(parallel, "get_plane", "filter.get_plane")
    tracer.wrap(runner, "simulate", "systems.simulate", sim_attrs)
    tracer.wrap(runner, "commit_plane", "filter.commit_plane", plane_attrs)
    tracer.wrap(runner, "get_plane", "filter.get_plane")
    tracer.wrap(runner, "replay_group", "filter.replay_group",
                lambda args, kwargs, result: {"cells": len(result)})
    tracer.wrap(runner, "atomic_write_text", "runner.record_commit")
    tracer.wrap(runner.Runner, "write_cache_manifest", "runner.write_cache_manifest")
    tracer.wrap(scheduler.SweepScheduler, "submit", "service.submit")
    tracer.wrap(server, "build_report", "reports.build_report")
    tracer.wrap(server, "export_report", "reports.export_report",
                lambda args, kwargs, result: {"fmt": args[1]})


def layer_metrics(tracer: Tracer, rounds: list[int], artifact_mb: float,
                  latencies_ms: dict[str, list[float]]) -> dict:
    """Every :data:`LAYER_METRICS` entry from the spans of ``rounds``.

    Busy times and sizes are medians over rounds of the per-round sum;
    a layer the workload never enters reads 0.  Rates pool all rounds.
    ``latencies_ms`` holds client-side latencies by request class.
    """
    values: dict[str, float] = {"trace.artifact_mb": artifact_mb}
    for span_name, name in _BUSY_METRICS.items():
        values[name] = median(tracer.per_round(rounds, span_name))
    values["filter.plane_mb"] = median(
        tracer.per_round(rounds, "filter.commit_plane", "bytes")) / 2**20
    for label in ALL_LABELS:
        def of_label(span, label=label):
            return span["label"] == label
        busy = tracer.per_round(rounds, "systems.simulate", match=of_label)
        refs = tracer.per_round(rounds, "systems.simulate", "refs", match=of_label)
        values[f"systems.simulate_s.{label}"] = median(busy)
        values[f"systems.refs_per_s.{label}"] = sum(refs) / sum(busy) if sum(busy) else 0.0
    for fmt in REPORT_FORMATS:
        values[f"reports.export_s.{fmt}"] = median(tracer.per_round(
            rounds, "reports.export_report", match=lambda span, fmt=fmt: span["fmt"] == fmt))
        values[f"service.report_{fmt}_p50_ms"] = median(latencies_ms.get(f"report_{fmt}", []))
    for name in SERVICE_CLASSES:
        values[f"service.{name}_p50_ms"] = median(latencies_ms.get(name, []))
    return {name: metric(values[name], unit) for name, unit in LAYER_METRICS.items()}


def span_counts(tracer: Tracer) -> dict[str, int]:
    """How many spans of each name were recorded (printed beside metrics)."""
    counts: dict[str, int] = defaultdict(int)
    for span in tracer.spans:
        counts[span["name"]] += 1
    return dict(sorted(counts.items()))
