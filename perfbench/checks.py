"""Output checks: properties every correct result has, never a saved copy.

Each function returns a list of problems (empty means the output
passed), so a caller can count the failing operation and carry on.
Nothing here imports the program: the checks restate the record and
HTTP contracts independently of the code that produces them.
"""

from __future__ import annotations

import hashlib
import json
import xml.etree.ElementTree as ElementTree
from collections import defaultdict

#: The workload reference counters of a record, by trace kind.
REF_FIELDS = ("ifetches", "reads", "writes")


def record_problems(record: dict, refs: dict[str, int]) -> list[str]:
    """Properties of one run record.

    ``refs`` maps each of :data:`REF_FIELDS` to the count of that kind
    in the generated workload, as the benchmark counted it from the
    trace arrays.
    """
    problems = []
    stats = record["stats"]
    where = f"{record['label']}@{record['issue_rate_hz']}/{record['size_bytes']}"
    for name in REF_FIELDS:
        if stats[name] != refs[name]:
            problems.append(f"{where}: {name}={stats[name]}, workload has {refs[name]}")
    level_sum = sum(stats["level_times"].values())
    if not record["time_ps"] == level_sum == stats["total_time_ps"]:
        problems.append(
            f"{where}: time_ps={record['time_ps']}, sum(level_times)={level_sum}, "
            f"total_time_ps={stats['total_time_ps']}"
        )
    if record["seconds"] != record["time_ps"] / 1e12:
        problems.append(f"{where}: seconds={record['seconds']} != time_ps/1e12")
    for by_pid, total in (("tlb_misses_by_pid", "tlb_misses"), ("faults_by_pid", "page_faults")):
        if sum(stats[by_pid].values()) != stats[total]:
            problems.append(f"{where}: {by_pid} sums to {sum(stats[by_pid].values())}, "
                            f"{total}={stats[total]}")
    expected_switches = stats["page_faults"] if record["switch_on_miss"] else 0
    if stats["switches_on_miss"] != expected_switches:
        problems.append(f"{where}: switches_on_miss={stats['switches_on_miss']}, "
                        f"expected {expected_switches}")
    return problems


def rate_series_problems(records: list[dict]) -> list[tuple[tuple[str, int], str]]:
    """At a fixed machine and size, simulated seconds fall as the rate rises.

    Returns ``((label, size), problem)`` pairs so the caller can fail
    every cell of the offending series.
    """
    series: dict[tuple[str, int], list[dict]] = defaultdict(list)
    for record in records:
        series[(record["label"], record["size_bytes"])].append(record)
    problems = []
    for key, cells in sorted(series.items()):
        cells.sort(key=lambda cell: cell["issue_rate_hz"])
        seconds = [cell["seconds"] for cell in cells]
        if any(later >= earlier for earlier, later in zip(seconds, seconds[1:])):
            problems.append((key, f"{key[0]}/{key[1]}: seconds {seconds} do not fall "
                                  f"over rates {[c['issue_rate_hz'] for c in cells]}"))
    return problems


def plane_group_problems(modes: dict[tuple[str, int], list[str]]) -> list[tuple[tuple[str, int], str]]:
    """Each plane group of a cold sweep records once and never falls back.

    ``modes`` maps ``(label, size)`` -- one miss-plane geometry, shared
    by every issue rate -- to the modes its cells completed in.
    """
    problems = []
    for key, group in sorted(modes.items()):
        if group.count("recorded") != 1 or "full" in group:
            problems.append((key, f"{key[0]}/{key[1]}: modes {sorted(group)}, expected "
                                  f"one recorded and no full"))
    return problems


def same_record_problems(expected: dict, actual: dict, what: str) -> list[str]:
    """Two records of one cell must agree field for field."""
    if expected == actual:
        return []
    fields = sorted(k for k in set(expected) | set(actual) if expected.get(k) != actual.get(k))
    stats = expected.get("stats", {}), actual.get("stats", {})
    detail = sorted(k for k in set(stats[0]) | set(stats[1]) if stats[0].get(k) != stats[1].get(k))
    return [f"{what}: records differ in {fields} (stats: {detail[:8]})"]


def envelope_problems(blob: bytes) -> tuple[dict | None, list[str]]:
    """Decode a record file and verify its envelope checksum.

    The checksum is SHA-256 over the canonical JSON of the record
    payload (sorted keys, no spaces).  Returns ``(record, problems)``.
    """
    try:
        envelope = json.loads(blob.decode("utf-8"))
        record = envelope["record"]
        checksum = envelope["checksum"]
    except (UnicodeDecodeError, json.JSONDecodeError, KeyError, TypeError) as exc:
        return None, [f"undecodable record envelope: {exc}"]
    canonical = json.dumps(record, sort_keys=True, separators=(",", ":"))
    if hashlib.sha256(canonical.encode("utf-8")).hexdigest() != checksum:
        return record, [f"envelope checksum {checksum!r} does not match its record"]
    return record, []


def not_modified_problems(status: int, body: bytes) -> list[str]:
    """A matching ``If-None-Match`` must yield 304 with an empty body."""
    problems = []
    if status != 304:
        problems.append(f"revalidation answered {status}, expected 304")
    if body:
        problems.append(f"304 carried a {len(body)}-byte body")
    return problems


def report_problems(blob: bytes, records_by_key: dict[str, dict]) -> list[str]:
    """A JSON report is complete and its cells equal the fetched records."""
    try:
        report = json.loads(blob.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        return [f"undecodable report: {exc}"]
    problems = []
    if report.get("completeness") != 1.0:
        problems.append(f"report {report.get('report')}: completeness "
                        f"{report.get('completeness')}, expected 1.0")
    for cell in report.get("cells", []):
        fetched = records_by_key.get(cell["key"])
        if fetched is None:
            problems.append(f"report cell {cell['key']} was never fetched")
        else:
            problems += same_record_problems(fetched, cell["record"], f"report cell {cell['key']}")
    if not report.get("cells"):
        problems.append(f"report {report.get('report')} has no cells")
    return problems


def svg_problems(blob: bytes) -> list[str]:
    """An SVG report must parse as XML with an ``svg`` root."""
    try:
        root = ElementTree.fromstring(blob)
    except ElementTree.ParseError as exc:
        return [f"svg does not parse: {exc}"]
    if not root.tag.endswith("svg"):
        return [f"svg root is <{root.tag}>"]
    return []


def text_problems(blob: bytes) -> list[str]:
    """A Markdown report must be non-empty UTF-8 that lists no gaps."""
    try:
        text = blob.decode("utf-8")
    except UnicodeDecodeError as exc:
        return [f"markdown is not UTF-8: {exc}"]
    if not text.strip():
        return ["markdown report is empty"]
    if "Missing cells" in text:
        return ["markdown report lists missing cells"]
    return []


def new_rate_job_problems(job: dict, cells: int) -> list[str]:
    """A job at a new issue rate completes with every cell replayed."""
    problems = []
    if job.get("status") != "completed":
        problems.append(f"job {job.get('id')} ended {job.get('status')}: {job.get('error')}")
    if job.get("modes") != {"replayed": cells}:
        problems.append(f"job {job.get('id')} modes {job.get('modes')}, "
                        f"expected all {cells} replayed")
    return problems


def digest(blobs: dict[str, bytes]) -> str:
    """One SHA-256 over record bytes sorted by key: equal output, equal digest."""
    hasher = hashlib.sha256()
    for key in sorted(blobs):
        hasher.update(key.encode("ascii"))
        hasher.update(blobs[key])
    return hasher.hexdigest()
