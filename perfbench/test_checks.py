"""Self-tests for the benchmark's output checks: each must reject a perturbed input.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import hashlib
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
from tracing import LAYER_METRICS  # noqa: E402

REFS = {"ifetches": 700, "reads": 200, "writes": 100}


def record(label="rampage", rate=1_000_000_000, size=1024, som=False, faults=6) -> dict:
    levels = {"l1i": 1000, "l1d": 500, "l2": 300, "dram": 7000, "other": 200}
    time_ps = sum(levels.values()) * 1_000_000_000 // rate
    levels = {name: value * 1_000_000_000 // rate for name, value in levels.items()}
    return {
        "label": label,
        "kind": "rampage",
        "issue_rate_hz": rate,
        "size_bytes": size,
        "switch_on_miss": som,
        "seconds": time_ps / 1e12,
        "time_ps": time_ps,
        "stats": {
            **REFS,
            "level_times": levels,
            "total_time_ps": time_ps,
            "tlb_misses": 9,
            "tlb_misses_by_pid": {"1": 4, "2": 5},
            "page_faults": faults,
            "faults_by_pid": {"1": faults - 2, "2": 2},
            "switches_on_miss": faults if som else 0,
        },
    }


def envelope(payload: dict) -> bytes:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return json.dumps({
        "schema": "rampage-cache/1",
        "checksum": hashlib.sha256(canonical.encode("utf-8")).hexdigest(),
        "record": payload,
    }).encode("utf-8")


def test_valid_records_pass():
    assert checks.record_problems(record(), REFS) == []
    assert checks.record_problems(record(som=True), REFS) == []


@pytest.mark.parametrize("perturb", [
    lambda r: r["stats"]["level_times"].__setitem__("dram", r["stats"]["level_times"]["dram"] + 1),
    lambda r: r["stats"].__setitem__("total_time_ps", r["time_ps"] + 1),
    lambda r: r.__setitem__("seconds", r["seconds"] * 1.000001),
    lambda r: r["stats"].__setitem__("reads", REFS["reads"] - 1),
    lambda r: r["stats"]["tlb_misses_by_pid"].__setitem__("2", 6),
    lambda r: r["stats"]["faults_by_pid"].__setitem__("3", 1),
    lambda r: r["stats"].__setitem__("switches_on_miss", 1),
], ids=["shifted-level-time", "total-time", "seconds", "ref-count", "tlb-by-pid",
        "faults-by-pid", "switch-without-som"])
def test_record_perturbations_are_rejected(perturb):
    bad = record()
    perturb(bad)
    assert checks.record_problems(bad, REFS)


def test_wrong_workload_reference_count_is_rejected():
    assert checks.record_problems(record(), {**REFS, "ifetches": REFS["ifetches"] + 1})


def test_switch_on_miss_takes_one_switch_per_fault():
    bad = record(som=True)
    bad["stats"]["switches_on_miss"] -= 1
    assert checks.record_problems(bad, REFS)


def test_rate_series_must_fall():
    rates = (200_000_000, 1_000_000_000, 4_000_000_000)
    falling = [record(rate=rate) for rate in rates]
    assert checks.rate_series_problems(falling) == []
    flat = copy.deepcopy(falling)
    flat[2]["seconds"] = flat[1]["seconds"]
    assert [key for key, _ in checks.rate_series_problems(flat)] == [("rampage", 1024)]
    rising = copy.deepcopy(falling)
    rising[0]["seconds"] = rising[2]["seconds"] / 2
    assert checks.rate_series_problems(rising)


def test_plane_groups_record_once_without_fallback():
    good = {("rampage", 1024): ["recorded", "replayed", "replayed"]}
    assert checks.plane_group_problems(good) == []
    assert checks.plane_group_problems({("rampage", 1024): ["recorded", "recorded", "replayed"]})
    assert checks.plane_group_problems({("rampage", 1024): ["recorded", "full", "replayed"]})
    assert checks.plane_group_problems({("rampage", 1024): ["replayed", "replayed", "replayed"]})


def test_envelope_checksum_is_verified():
    blob = envelope(record())
    decoded, problems = checks.envelope_problems(blob)
    assert problems == [] and decoded == record()
    tampered = json.loads(blob)
    tampered["record"]["time_ps"] += 1
    assert checks.envelope_problems(json.dumps(tampered).encode("utf-8"))[1]
    assert checks.envelope_problems(b"{not json")[1]


def test_not_modified_must_be_empty_304():
    assert checks.not_modified_problems(304, b"") == []
    assert checks.not_modified_problems(304, b"{}")
    assert checks.not_modified_problems(200, b"")


def test_report_must_be_complete_and_match_fetched_records():
    fetched = {"k1": record(size=128), "k2": record(size=256)}
    report = {"report": "rampage", "completeness": 1.0,
              "cells": [{"key": key, "record": value} for key, value in fetched.items()]}
    assert checks.report_problems(json.dumps(report).encode(), fetched) == []
    partial = {**report, "completeness": 0.5}
    assert checks.report_problems(json.dumps(partial).encode(), fetched)
    drifted = copy.deepcopy(report)
    drifted["cells"][1]["record"]["time_ps"] += 1
    assert checks.report_problems(json.dumps(drifted).encode(), fetched)
    assert checks.report_problems(json.dumps(report).encode(), {"k1": fetched["k1"]})


def test_svg_must_parse():
    assert checks.svg_problems(b'<svg xmlns="http://www.w3.org/2000/svg"><g/></svg>') == []
    assert checks.svg_problems(b"<svg><g></svg>")
    assert checks.svg_problems(b"<html/>")


def test_markdown_must_list_no_gaps():
    assert checks.text_problems(b"# Report\n\n| a |\n") == []
    assert checks.text_problems(b"# Report\n\n## Missing cells\n")
    assert checks.text_problems(b"  \n")


def test_new_rate_job_must_replay_every_cell():
    job = {"id": "j", "status": "completed", "modes": {"replayed": 30}}
    assert checks.new_rate_job_problems(job, 30) == []
    assert checks.new_rate_job_problems({**job, "modes": {"replayed": 29, "cached": 1}}, 30)
    assert checks.new_rate_job_problems({**job, "status": "failed"}, 30)


def test_cross_check_compares_whole_records():
    assert checks.same_record_problems(record(), record(), "x") == []
    other = record()
    other["stats"]["page_faults"] += 1
    assert checks.same_record_problems(record(), other, "x")


def test_digest_is_order_free_and_byte_sensitive():
    blobs = {"a": b"1", "b": b"2"}
    assert checks.digest(blobs) == checks.digest(dict(reversed(list(blobs.items()))))
    assert checks.digest(blobs) != checks.digest({"a": b"1", "b": b"3"})


def test_benchmark_json_names_every_layer_metric():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_METRICS
    assert any(m["name"] == "setup_s" and m["bound"] == max(e["bound"] for e in spec["end_to_end"])
               for m in spec["end_to_end"])
