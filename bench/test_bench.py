"""Tests for the benchmark: ``python -m pytest bench -q``.

They drive the same cell code as the benchmark on tiny topologies, so
they run in seconds.
"""

import json
import sys
from functools import partial
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import cells  # noqa: E402
import run  # noqa: E402
from repro.topology.builder import star_of_switches, topology_b  # noqa: E402

SPEC = run.load_spec()
TINY = (
    cells.Cell("generated", "star-3x3", partial(star_of_switches, [3, 3, 3]), 64 * 1024),
    cells.Cell("lam", "star-3x3", partial(star_of_switches, [3, 3, 3]), 4 * 1024),
)


def test_workloads_and_pins_match_benchmark_json():
    assert list(cells.WORKLOADS) == [w["name"] for w in SPEC["workloads"]]
    pinned = cells.load_pins()["cells"]
    for workload in cells.WORKLOADS.values():
        for cell in workload:
            assert cell.name in pinned


def test_every_declared_metric_appears_with_its_unit():
    reps = [cells.run_repetition(TINY, seed, {}) for seed in (0, 1)]
    assert all(r["ok"] for r in reps), [r["reason"] for r in reps]
    summary = run.summarize(reps, SPEC["end_to_end"])
    line = run.result_line({"tiny": summary}, trace=False)
    assert line["correct"] and line["attempted"] == 2 and line["failed"] == 0
    for m in SPEC["end_to_end"]:
        assert line["metrics"][m["name"]]["unit"] == m["unit"]
        assert line["metrics"][m["name"]]["value"] > 0

    children = {mode: cells.run_repetition(TINY, 0, {}, mode) for mode in run.TRACE_MODES}
    traced = run.combine_trace(children, SPEC)
    assert traced["failures"] == []
    # The whole build's peak includes the peaks of the steps inside it.
    memory = children["memory"]["metrics"]
    assert 0 < memory["core.synchronization.peak_mb"] <= memory["algorithms.peak_mb"]
    assert 0 < memory["core.program.peak_mb"] <= memory["algorithms.peak_mb"]
    line = run.result_line({"tiny": traced}, trace=True)
    assert [(k, v["unit"]) for k, v in line["metrics"].items()] == [
        (m["name"], m["unit"]) for m in SPEC["per_layer"]
    ]


def test_tampered_pinned_digest_counts_as_a_failure():
    first = cells.run_repetition(TINY, 0, {})
    pins = {"seed": 0, "cells": json.loads(json.dumps(first["digests"]))}
    assert cells.run_repetition(TINY, 0, pins)["ok"]

    generated = TINY[0].name
    pins["cells"][generated]["sync_plan"] = "0" * 64
    result = cells.run_repetition(TINY, 0, pins)
    assert not result["ok"]
    assert generated in result["reason"] and "sync_plan" in result["reason"]

    pins["cells"] = json.loads(json.dumps(first["digests"]))
    pins["cells"][TINY[1].name]["completion_ms"] += 1e-9
    assert not cells.run_repetition(TINY, 0, pins)["ok"]
    # The completion time is pinned at the pin seed only.
    assert cells.run_repetition(TINY, 1, pins)["ok"]


def test_child_with_tiny_memory_cap_is_a_failure_not_a_crash():
    result = run.run_child("paper-b", 0, memory_cap=64 << 20, timeout=60)
    assert not result["ok"] and result["reason"]
    summary = run.summarize([result], SPEC["end_to_end"])
    assert summary["failed"] == 1 and summary["fail_rate"] == 1.0
    assert summary["failures"][0]["reason"] == result["reason"]


def _report(scale):
    values = [v * scale for v in (1.0, 1.01, 0.99, 1.02, 0.98)]
    metrics = {m["name"]: run.describe(values, m["unit"]) for m in SPEC["end_to_end"]}
    return {"workloads": {"w": {"metrics": metrics, "fail_rate": 0.0}}}


def test_compare_flags_a_synthetic_2x_slowdown(tmp_path, capsys):
    base, slow = tmp_path / "a.json", tmp_path / "b.json"
    base.write_text(json.dumps(_report(1.0)))
    slow.write_text(json.dumps(_report(2.0)))
    assert run.compare(str(base), str(base)) == 0
    assert "worse" not in capsys.readouterr().out
    assert run.compare(str(base), str(slow)) == 1
    rows = capsys.readouterr().out.splitlines()
    assert sum(row.endswith("worse") for row in rows) == len(SPEC["end_to_end"])

    # A workload B no longer covers is not a pass.
    empty = tmp_path / "c.json"
    empty.write_text(json.dumps({"workloads": {}}))
    assert run.compare(str(base), str(empty)) == 1
    assert "missing from B" in capsys.readouterr().out


def test_compare_reports_wide_spreads_as_unresolved():
    a = run.describe([1.0, 1.0, 2.0, 2.0], "s")
    b = run.describe([1.1, 1.1, 2.2, 2.2], "s")
    assert run.verdict(a, b, 0.1, "lower") == "unresolved"
    faster = run.describe([0.4, 0.4, 0.8, 0.8], "s")
    assert run.verdict(a, faster, 0.1, "lower") == "ok"
    # Wide spreads do not hide a 2x slowdown whose IQRs do not overlap.
    a = run.describe([1.0, 1.0, 1.6, 1.6], "s")
    slow = run.describe([2.0, 2.0, 3.2, 3.2], "s")
    assert run.verdict(a, slow, 0.1, "lower") == "worse"
    assert run.verdict(slow, a, 0.1, "higher") == "worse"


def test_repetitions_stop_before_the_deadline_instead_of_timing_out(monkeypatch):
    # Repetitions of 34 s: a fourth would end at 136 s, past the 120 s
    # deadline, so only three start, each with room to spare.
    timeouts = []

    def fake_child(workload, seed, timeout):
        timeouts.append(timeout)
        return {"ok": 34.0 <= timeout, "reason": "timeout", "wall_s": 34.0,
                "metrics": {m["name"]: 1.0 for m in SPEC["end_to_end"]}}

    monkeypatch.setattr(run, "run_child", fake_child)
    report = run.timed_run(["w"], 0, None, SPEC)
    assert report["w"]["attempted"] == 3 and report["w"]["failed"] == 0
    slack = run.WORKLOAD_LIMIT_S - run.WORKLOAD_DEADLINE_S
    assert all(t >= 34.0 + slack for t in timeouts), timeouts


def test_generator_spans_sum_to_the_traced_setup():
    cell = cells.Cell("generated", "topology-b", topology_b, 64 * 1024)
    result = cells.run_repetition((cell,), 0, {}, "traced")
    assert result["ok"], result["reason"]
    metrics = result["metrics"]
    steps = sum(metrics[f"{layer}.s"] for layer in cells.GENERATOR_STEPS)
    assert abs(steps - metrics["setup_s"]) <= 0.15 * metrics["setup_s"]
    assert metrics["sim.mpi.syncs_posted"] == metrics["sim.mpi.syncs_retired"] > 0

    # Every generator step's span lies inside the cell's setup span.
    rows = result["spans"]
    steps = [row for row in rows if row[0] in cells.GENERATOR_STEPS.values()]
    assert len(steps) == len(cells.GENERATOR_STEPS)
    for name, start, end, parent in steps:
        while rows[parent][0] != "setup":
            parent = rows[parent][3]
        assert rows[parent][1] <= start <= end <= rows[parent][2]
