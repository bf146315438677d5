"""Warm sweep-service workload: one client, a closed loop, one request in flight.

Before set-up the benchmark fills a fresh cache with all five grids at
a small scale (that fill is the workload's cold sweep).  Set-up is the
daemon's start over that cache until ``/healthz`` answers, timed over
several starts.  The client then issues a fixed number of whole rounds
of a seeded mix of reads and writes, and checks every answer after the
loop.
"""

from __future__ import annotations

import gc
import http.client
import json
import os
import random
import signal
import subprocess
import sys
import time
from pathlib import Path
from urllib.parse import urlsplit

import checks
from common import ALL_LABELS, ROOT, dir_bytes, median, metric, peak_rss_mib, \
    peak_rss_mib_of, percentile
from sweeps import resimulate, workload_refs
from tracing import Tracer, instrument, layer_metrics

#: Workload scale of the prefilled cache and every job the client submits.
SCALE = 0.00003

#: Operations per round, by class: the op profile of
#: ``tools/service_load.py`` (default ``--cold-fraction`` 0.02) per 100
#: operations.  Its cold submits become new-rate jobs (the one write in
#: fifty), its 45 warm re-submits, 30 record fetches and 15 status polls
#: stay; the record fetches are split evenly into plain fetches and
#: ``If-None-Match`` revalidations, and its 8 health polls are given to
#: the reads it lacks (manifest and reports), two each.  Those two splits
#: are assumptions, not measurements.
ROUND_MIX = {
    "status": 15,
    "manifest": 2,
    "record": 15,
    "record_304": 15,
    "resubmit": 45,
    "report_json": 2,
    "report_md": 2,
    "report_svg": 2,
    "new_rate": 2,
}

#: The classes that only read; ``op_p99_ms`` is their tail.
READ_CLASSES = tuple(cls for cls in ROUND_MIX if cls != "new_rate")

#: The report every SVG operation renders (four grids, composed figures).
SVG_REPORT = "figures"

#: Fewest reads whose 99th percentile has ten samples beyond it.
MIN_TAIL_OPS = 1000

#: Daemon starts per run; set-up time is their median.
STARTS = 5

#: Issue rates for new-rate jobs.  A rate must divide 10^12 (an integral
#: picosecond cycle), so the supply is every such rate from 1 MHz to
#: 1 THz except the three default rates the cache already holds.
NEW_RATES_HZ = tuple(
    rate
    for rate in sorted(2**a * 5**b for a in range(13) for b in range(13))
    if rate >= 1_000_000 and rate not in (200_000_000, 1_000_000_000, 4_000_000_000)
)

#: Rounds per second of ``--seconds``.  A run issues a fixed number of
#: rounds, not as many as fit: every new-rate job adds records that the
#: next job's cache scans must list, so a time-bounded loop would make job
#: latency depend on how fast the host was.  On the reference host one
#: round takes about 1 s.
ROUNDS_PER_SECOND = 1

#: Each round needs issue rates no earlier job used.
MAX_ROUNDS = len(NEW_RATES_HZ) // ROUND_MIX["new_rate"]


def _config(seed: int, cache: Path):
    from repro.experiments.config import ExperimentConfig

    return ExperimentConfig(scale=SCALE, seed=seed, cache_dir=cache)


def prefill(config) -> tuple[float, dict[str, int]]:
    """Fill ``config``'s cache with all five grids; returns (sweep s, refs)."""
    from repro.core.observe import EventLog
    from repro.experiments.runner import Runner
    from repro.trace import filter as planes
    from repro.trace import materialize

    workload = materialize.get_workload(
        config.scale, config.seed, cache_dir=config.cache_dir, slice_refs=config.slice_refs
    )
    refs = workload_refs(workload)
    runner = Runner(config, events=EventLog(None))
    began = time.perf_counter()
    for label in ALL_LABELS:
        runner.grid(label)
    sweep_s = time.perf_counter() - began
    del runner, workload
    materialize.clear_registry()
    planes.clear_registry()
    gc.collect()
    return sweep_s, refs


class Daemon:
    """``rampage-sim serve --workers 1`` in its own process."""

    def __init__(self, config, workdir: Path) -> None:
        self.workdir = workdir
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env.update(
            PYTHONPATH=str(ROOT / "src"),
            REPRO_CACHE_DIR=str(config.cache_dir),
            REPRO_SCALE=repr(config.scale),
            REPRO_SEED=str(config.seed),
        )
        self.env = env
        self.proc: subprocess.Popen | None = None
        self.url = ""

    def start(self, number: int) -> float:
        """Start the daemon; returns seconds until ``/healthz`` answers."""
        from repro.service.client import ServiceClient, ServiceError

        log_path = self.workdir / f"daemon-{number}.log"
        began = time.perf_counter()
        with open(log_path, "w", encoding="utf-8") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve", "--port", "0", "--workers", "1"],
                stdout=log, stderr=subprocess.STDOUT, cwd=self.workdir, env=self.env,
            )
        deadline = began + 60
        while not self.url:
            for line in log_path.read_text("utf-8").splitlines():
                if line.startswith("sweep service listening on "):
                    self.url = line.split()[4]
            if self.proc.poll() is not None or time.perf_counter() > deadline:
                raise RuntimeError(f"daemon did not start: {log_path.read_text('utf-8')}")
            if not self.url:
                time.sleep(0.002)
        client = ServiceClient(self.url, retries=0)
        while True:
            try:
                if client.health()["status"] == "ok":
                    return time.perf_counter() - began
            except ServiceError:
                if time.perf_counter() > deadline:
                    raise
            time.sleep(0.002)

    def peak_rss_mib(self) -> float:
        return peak_rss_mib_of(self.proc.pid)

    def stop(self) -> None:
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc = None
        self.url = ""


class InProcessDaemon:
    """The same daemon hosted on a thread, so the tracer sees its layers."""

    def __init__(self, config) -> None:
        from repro.service.server import ServiceThread, SweepService

        self.thread = ServiceThread(SweepService(config, port=0, workers=1))
        self.url = ""

    def start(self, number: int) -> float:
        began = time.perf_counter()
        self.url = self.thread.start()
        return time.perf_counter() - began

    def peak_rss_mib(self) -> float:
        return peak_rss_mib()

    def stop(self) -> None:
        self.thread.stop()


def _conditional_get(url: str, key: str, etag: str) -> tuple[int, bytes]:
    """``GET /v1/records/<key>`` revalidated with ``If-None-Match``."""
    parts = urlsplit(url)
    conn = http.client.HTTPConnection(parts.hostname, parts.port, timeout=60)
    try:
        conn.request("GET", f"/v1/records/{key}", headers={"If-None-Match": f'"{etag}"'})
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


class Session:
    """The client side: the base job, its records, and one method per class."""

    def __init__(self, url: str, refs: dict[str, int], seed: int) -> None:
        from repro.experiments.config import DEFAULT_SIZES
        from repro.service.client import ServiceClient

        self.url = url
        self.new_rate_cells = len(ALL_LABELS) * len(DEFAULT_SIZES)
        self.refs = refs
        self.client = ServiceClient(url, retries=0, timeout=120)
        self.base_spec = {"labels": list(ALL_LABELS)}
        self.new_rates = list(NEW_RATES_HZ)
        random.Random(seed).shuffle(self.new_rates)
        self.blobs: dict[str, bytes] = {}
        self.records: dict[str, dict] = {}
        self.problems: list[str] = []
        job = self.client.submit(self.base_spec)
        self.base = self.client.wait(job["id"], timeout=120)
        if self.base.get("modes") != {"cached": self.base["total"]}:
            self.problems.append(f"base job modes {self.base.get('modes')}, expected all cached")
        self.keys = sorted(cell["key"] for cell in self.client.records(self.base["id"])["records"])
        for key in self.keys:
            blob = self.client.fetch_record(key)
            record, problems = checks.envelope_problems(blob)
            self.problems += problems
            if record is not None:
                self.problems += checks.record_problems(record, refs)
                self.records[key] = record
            self.blobs[key] = blob

    def choose(self, cls: str, rng: random.Random):
        if cls in ("record", "record_304"):
            return rng.choice(self.keys)
        if cls in ("report_json", "report_md"):
            return rng.choice(ALL_LABELS)
        if cls == "new_rate":
            return self.new_rates.pop()
        return None

    def call(self, cls: str, arg):
        client = self.client
        if cls == "status":
            return client.job(self.base["id"])
        if cls == "manifest":
            return client.records(self.base["id"])
        if cls == "record":
            return client.fetch_record(arg)
        if cls == "record_304":
            return _conditional_get(self.url, arg, json.loads(self.blobs[arg])["checksum"])
        if cls == "resubmit":
            return client.submit(self.base_spec)
        if cls.startswith("report_"):
            fmt = cls[len("report_"):]
            return client.fetch_report(SVG_REPORT if fmt == "svg" else arg, format=fmt)
        if cls == "new_rate":
            job = client.submit({**self.base_spec, "rates": [arg]})
            return job, client.wait(job["id"], timeout=120)
        raise ValueError(cls)

    def problems_of(self, cls: str, arg, answer) -> list[str]:
        base = self.base
        if cls == "status":
            if answer["status"] != "completed" or answer["done"] != base["total"]:
                return [f"status of the base job: {answer['status']} {answer['done']}"]
            return []
        if cls == "manifest":
            keys = sorted(cell["key"] for cell in answer["records"])
            if keys != self.keys or not all(cell["present"] for cell in answer["records"]):
                return ["record manifest of the base job changed or lost records"]
            return []
        if cls == "record":
            record, problems = checks.envelope_problems(answer)
            if record is not None:
                problems += checks.record_problems(record, self.refs)
            if answer != self.blobs[arg]:
                problems.append(f"record {arg} bytes changed between fetches")
            return problems
        if cls == "record_304":
            return checks.not_modified_problems(*answer)
        if cls == "resubmit":
            if answer["id"] != base["id"] or answer["created"] or answer["status"] != "completed":
                return [f"resubmit answered job {answer['id']} created={answer['created']} "
                        f"status={answer['status']}"]
            return []
        if cls == "report_json":
            return checks.report_problems(answer, self.records)
        if cls == "report_md":
            return checks.text_problems(answer)
        if cls == "report_svg":
            return checks.svg_problems(answer)
        if cls == "new_rate":
            submitted, final = answer
            problems = [] if submitted["created"] else [f"rate {arg} job was not new"]
            return problems + checks.new_rate_job_problems(final, self.new_rate_cells)
        raise ValueError(cls)

    def cross_check(self, job_id: str, seed: int) -> list[str]:
        """Re-simulate one seeded cell of a new-rate job, no plane, no cache."""
        cells = sorted(self.client.records(job_id)["records"], key=lambda cell: cell["key"])
        cell = random.Random(seed).choice(cells)
        cached, problems = checks.envelope_problems(self.client.fetch_record(cell["key"]))
        if cached is None:
            return problems
        return problems + resimulate(cached, SCALE, seed)


def run_serve(name: str, seed: int, seconds: float, workdir: Path,
              tracer: Tracer | None) -> dict:
    from repro.experiments.runner import iter_cache_files
    from repro.service.client import ServiceError
    from repro.trace.materialize import TRACE_DIRNAME

    cache = workdir / "cache"
    config = _config(seed, cache)
    fill_s, refs = prefill(config)
    daemon = Daemon(config, workdir) if tracer is None else InProcessDaemon(config)
    try:
        setups = []
        starts = STARTS if tracer is None else 1
        for number in range(1, starts + 1):
            setups.append(daemon.start(number))
            if number < starts:
                daemon.stop()
        session = Session(daemon.url, refs, seed)
        records_before = sum(1 for _ in iter_cache_files(cache))
        if tracer is not None:
            instrument(tracer, lambda params: "other")
        rng = random.Random(seed)
        plan = [cls for cls, count in ROUND_MIX.items() for _ in range(count)]
        done: list[tuple[str, object, float, object]] = []
        rounds = min(MAX_ROUNDS, max(1, round(seconds * ROUNDS_PER_SECOND)))
        began = time.perf_counter()
        for number in range(1, rounds + 1):
            if tracer is not None:
                tracer.round = number
            rng.shuffle(plan)
            for cls in plan:
                arg = session.choose(cls, rng)
                op_began = time.perf_counter()
                try:
                    answer = session.call(cls, arg)
                except (ServiceError, http.client.HTTPException, OSError, ValueError,
                        KeyError) as exc:
                    answer = exc
                done.append((cls, arg, time.perf_counter() - op_began, answer))
        wall = time.perf_counter() - began
        if tracer is not None:
            tracer.round = 0
        rss = daemon.peak_rss_mib()
        problems = list(session.problems)
        failed: set[int] = set()
        for index, (cls, arg, _, answer) in enumerate(done):
            found = ([f"{cls} {arg}: {answer!r}"] if isinstance(answer, Exception)
                     else session.problems_of(cls, arg, answer))
            if found:
                failed.add(index)
            problems += found
        jobs = [(index, answer[1]) for index, (cls, _, _, answer) in enumerate(done)
                if cls == "new_rate" and not isinstance(answer, Exception)]
        if jobs:
            found = session.cross_check(jobs[0][1]["id"], seed)
            if found:
                failed.add(jobs[0][0])
            problems += found
        records_after = sum(1 for _ in iter_cache_files(cache))
    finally:
        daemon.stop()

    latencies: dict[str, list[float]] = {}
    for cls, _, seconds_taken, _ in done:
        latencies.setdefault(cls, []).append(seconds_taken * 1e3)
    every = [ms for values in latencies.values() for ms in values]
    reads = [ms for cls in READ_CLASSES for ms in latencies.get(cls, [])]
    e2e = {
        "setup_s": metric(median(setups), "s"),
        "sweep_s": metric(fill_s, "s"),
        "peak_rss_mb": metric(rss, "MiB"),
        "ops_per_s": metric(len(done) / wall, "ops/s"),
        "op_p50_ms": metric(median(every), "ms"),
        "job_p50_ms": metric(median(latencies["new_rate"]), "ms"),
    }
    if len(reads) >= MIN_TAIL_OPS:
        e2e["op_p99_ms"] = metric(percentile(reads, 99), "ms")
    else:
        print(f"perfbench: {len(reads)} reads, op_p99_ms needs {MIN_TAIL_OPS}",
              file=sys.stderr)
    counts = {
        "rounds": rounds,
        "ops_per_round": dict(ROUND_MIX),
        "ops": len(done),
        "not_modified_served": sum(
            1 for cls, _, _, answer in done
            if cls == "record_304" and not isinstance(answer, Exception) and answer[0] == 304),
        "new_rate_jobs": len(jobs),
        "records_committed": records_after - records_before,
        "base_cells": session.base["total"],
        "artifact_bytes": dir_bytes(cache / TRACE_DIRNAME),
        "digest": checks.digest(session.blobs),
    }
    layers = None
    if tracer is not None:
        layers = layer_metrics(tracer, list(range(1, rounds + 1)),
                               counts["artifact_bytes"] / 2**20, latencies)
    return {
        "attempted": len(done),
        "failed": len(failed),
        "problems": problems,
        "e2e": e2e,
        "layers": layers,
        "counts": counts,
    }

