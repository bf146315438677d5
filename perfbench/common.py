"""Shared plumbing for the benchmark: paths, work directories, statistics.

The benchmark lives outside ``src/`` and imports the program from the
checkout it runs in, so one copy measures whichever commit surrounds it.
"""

from __future__ import annotations

import os
import resource
import shutil
import statistics
import sys
from pathlib import Path

#: Root of the checkout the benchmark runs in (the parent of ``perfbench/``).
ROOT = Path(__file__).resolve().parent.parent

#: Everything a run writes goes below here; the root ``.gitignore`` names it.
WORK_ROOT = ROOT / ".bench_build" / "perfbench"

#: The five grid labels the paper sweeps, in a fixed order.
ALL_LABELS = ("baseline", "twoway", "rampage", "rampage_vl1", "rampage_som")


class ProgramMissing(RuntimeError):
    """The checkout holds no program source to benchmark."""


def import_program() -> None:
    """Put the checkout's ``src/`` first on ``sys.path``, or raise.

    A benchmark copied away from its program must fail loudly instead
    of measuring whatever ``repro`` happens to be installed.
    """
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise ProgramMissing(f"no program source at {src / 'repro'}")
    sys.path.insert(0, str(src))


def make_workdir(name: str) -> Path:
    """A fresh, empty directory for one run (removed by :func:`drop`)."""
    path = WORK_ROOT / f"{name}-{os.getpid()}"
    drop(path)
    path.mkdir(parents=True)
    return path


def drop(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)


def dir_bytes(path: Path) -> int:
    """Total size of the regular files below ``path`` (0 if absent)."""
    if not path.exists():
        return 0
    return sum(item.stat().st_size for item in path.rglob("*") if item.is_file())


def peak_rss_mib() -> float:
    """Peak resident set of this process so far, in MiB (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_mib_of(pid: int) -> float:
    """Peak resident set of a child process, from its ``VmHWM``."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0-100) by the nearest-rank rule."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, -(-len(ordered) * q // 100))
    return float(ordered[int(rank) - 1])


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}
