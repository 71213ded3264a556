"""Benchmark the paper's routine end to end and layer by layer.

    python3 bench/run.py [--workload NAME ...] [--seed S] [--seconds N]
                         [--trace [0|1]] [--json-out PATH]
    python3 bench/run.py --compare A.json B.json
    python3 bench/run.py --repin

The load is a closed loop with one client: this runner starts one fresh
child process (``bench/cells.py``) per repetition, one at a time, and
round-robins repetitions across the selected workloads so that host
drift hits each of them alike.  Each child runs with single-threaded
BLAS, under ``RLIMIT_AS`` and a timeout; a child that fails a check,
runs out of memory, times out or exits non-zero is a failed repetition
with its reason recorded, and the runner keeps going.

A workload gets up to ``REPETITIONS`` repetitions.  It stops earlier
once the next repetition, at the average pace so far, would end past
``WORKLOAD_DEADLINE_S`` of its own child time, or past N seconds with
``--seconds N`` (the latter never below ``MIN_REPETITIONS``).  Every
end-to-end metric is reported as the median over the successful
repetitions, with n, min, max and the interquartile range.

``--trace`` replaces the timed repetitions by three children per
workload -- one untraced, one traced, one ``tracemalloc`` pass -- and
prints the per-layer metrics declared in ``BENCHMARK.json``.  The spans
land in ``bench/out/trace-<workload>.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 only when every repetition passed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from functools import partial
from pathlib import Path
from typing import Dict, List, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SPEC_PATH = ROOT / "BENCHMARK.json"
PINS_PATH = BENCH / "pins.json"

#: Repetitions per workload when no ``--seconds`` budget cuts them short.
REPETITIONS = 5
#: Fewest repetitions a ``--seconds`` budget may leave a workload with.
MIN_REPETITIONS = 2
#: A repetition that runs longer than this is killed and counted failed.
REP_TIMEOUT_S = 120.0
#: A workload starts another repetition only if, at its average pace so
#: far, that repetition ends within this much child time.
WORKLOAD_DEADLINE_S = 120.0
#: Hard cap on one workload's child time, so a run ends within three
#: minutes even when a repetition hangs.  A repetition started under
#: the deadline above keeps at least the gap between the two (and its
#: own expected time) before this cap can cut it short.
WORKLOAD_LIMIT_S = 170.0
#: Address-space cap for each child (``RLIMIT_AS``).
MEMORY_CAP_BYTES = 4 << 30
#: The three children of a ``--trace`` run, in the order they run.
TRACE_MODES = ("untraced", "traced", "memory")
#: Thread-pool variables pinned to 1 in every child.
SINGLE_THREADED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def load_spec() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# children
# ----------------------------------------------------------------------
def _limit_memory(cap: int) -> None:
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))


def run_child(workload: str, seed: int, mode: str = "untraced", *,
              timeout: float = REP_TIMEOUT_S,
              memory_cap: int = MEMORY_CAP_BYTES,
              unpinned: bool = False) -> dict:
    """Run one repetition in a fresh process; never raises for its failure.

    Returns the child's result dict (see ``cells.run_repetition``) with
    ``wall_s`` added; a timeout or a crash becomes ``ok: false`` with
    the reason.
    """
    cmd = [sys.executable, str(BENCH / "cells.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode]
    if unpinned:
        cmd.append("--unpinned")
    # A fixed hash seed keeps set and dict layouts, and so timings and
    # memory, the same from one child to the next.
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    env.update({name: "1" for name in SINGLE_THREADED})
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=timeout, preexec_fn=partial(_limit_memory, memory_cap),
        )
    except subprocess.TimeoutExpired:
        return {"ok": False, "reason": f"timeout after {timeout:.0f} s",
                "wall_s": time.perf_counter() - start}
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        result = {"ok": False, "reason": f"exit code {proc.returncode}: {tail[0]}"}
    if proc.returncode != 0 and result.get("ok"):
        result = {"ok": False, "reason": f"exit code {proc.returncode}"}
    result["wall_s"] = wall
    return result


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def describe(values: List[float], unit: str) -> dict:
    """Median, n, min, max and quartiles of one metric's repetitions."""
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    return {
        "unit": unit, "median": statistics.median(values), "n": len(values),
        "min": min(values), "max": max(values), "q1": q1, "q3": q3,
        "iqr": q3 - q1, "values": values,
    }


def summarize(runs: List[dict], end_to_end: List[dict]) -> dict:
    """Aggregate one workload's repetitions into its end-to-end metrics."""
    ok = [r for r in runs if r["ok"]]
    failures = [
        {"repetition": i, "reason": r["reason"]} for i, r in enumerate(runs) if not r["ok"]
    ]
    metrics = {}
    if ok:
        for m in end_to_end:
            metrics[m["name"]] = describe([r["metrics"][m["name"]] for r in ok], m["unit"])
    return {
        "attempted": len(runs), "failed": len(failures), "failures": failures,
        "fail_rate": len(failures) / len(runs), "metrics": metrics,
    }


# ----------------------------------------------------------------------
# the two kinds of run
# ----------------------------------------------------------------------
def _wants_more(done: int, spent: float, seconds: Optional[float]) -> bool:
    """Whether a workload with *done* repetitions in *spent* s gets another."""
    if done >= REPETITIONS:
        return False
    if done == 0:
        return True
    projected = spent + spent / done
    if projected > WORKLOAD_DEADLINE_S:
        return False
    return done < MIN_REPETITIONS or seconds is None or projected <= seconds


def timed_run(workloads: List[str], seed: int, seconds: Optional[float],
              spec: dict) -> Dict[str, dict]:
    runs: Dict[str, List[dict]] = {w: [] for w in workloads}
    spent = {w: 0.0 for w in workloads}
    progressed = True
    while progressed:
        progressed = False
        for w in workloads:
            if not _wants_more(len(runs[w]), spent[w], seconds):
                continue
            timeout = min(REP_TIMEOUT_S, WORKLOAD_LIMIT_S - spent[w])
            result = run_child(w, seed, timeout=timeout)
            spent[w] += result["wall_s"]
            runs[w].append(result)
            progressed = True
    return {w: summarize(runs[w], spec["end_to_end"]) for w in workloads}


def trace_run(workload: str, seed: int, spec: dict) -> dict:
    """One untraced, one traced and one memory child for *workload*."""
    children = {mode: run_child(workload, seed, mode) for mode in TRACE_MODES}
    report = combine_trace(children, spec)
    if not report["failures"]:
        OUT.mkdir(exist_ok=True)
        spans = [{"name": n, "start": s, "end": e, "parent": p}
                 for n, s, e, p in children["traced"]["spans"]]
        with open(OUT / f"trace-{workload}.json", "w", encoding="utf-8") as fh:
            json.dump({"workload": workload, "seed": seed, "spans": spans,
                       "metrics": report["metrics"]}, fh, indent=1)
    return report


def combine_trace(children: Dict[str, dict], spec: dict) -> dict:
    """Check the three trace children against each other; merge their metrics.

    The traced and memory children must emit the same programs as the
    untraced one.  A layer the workload never reaches reads 0.
    """
    failures = [f"{mode}: {r['reason']}" for mode, r in children.items() if not r["ok"]]
    base = children["untraced"]
    if not failures:
        for mode in ("traced", "memory"):
            for cell, digests in children[mode]["digests"].items():
                if digests["programs"] != base["digests"][cell]["programs"]:
                    failures.append(f"{mode}: {cell}: programs digest differs "
                                    "from the untraced run's")
    metrics = {}
    if not failures:
        measured = {**children["traced"]["metrics"], **children["memory"]["metrics"]}
        measured["trace.overhead_pct"] = (
            children["traced"]["metrics"]["e2e_s"] / base["metrics"]["e2e_s"] - 1.0
        ) * 100.0
        metrics = {m["name"]: {"value": measured.get(m["name"], 0.0), "unit": m["unit"]}
                   for m in spec["per_layer"]}
    return {"attempted": len(children), "failed": len(failures),
            "failures": failures, "metrics": metrics}


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------
def print_timed(report: Dict[str, dict], seed: int) -> None:
    for w, r in report.items():
        print(f"== {w}: {r['attempted']} repetitions, {r['failed']} failed (seed {seed})")
        print(f"  {'metric':<12} {'unit':<6} {'median':>12} {'min':>12} "
              f"{'max':>12} {'iqr':>10} {'n':>3}")
        for name, m in r["metrics"].items():
            print(f"  {name:<12} {m['unit']:<6} {m['median']:>12.4f} {m['min']:>12.4f} "
                  f"{m['max']:>12.4f} {m['iqr']:>10.4f} {m['n']:>3}")
        print(f"  {'fail_rate':<12} {'ratio':<6} {r['fail_rate']:>12.4f}")
        for f in r["failures"]:
            print(f"  failed repetition {f['repetition']}: {f['reason']}")


def print_trace(report: Dict[str, dict], seed: int) -> None:
    for w, r in report.items():
        print(f"== {w}: traced (seed {seed}), {r['failed']} failed")
        for name, m in r["metrics"].items():
            print(f"  {name:<44} {m['unit']:<6} {m['value']:>16.6g}")
        for f in r["failures"]:
            print(f"  failed: {f}")


def result_line(report: Dict[str, dict], trace: bool) -> dict:
    """The last output line: metrics keyed by name (``workload.name`` if several)."""
    metrics = {}
    for w, r in report.items():
        prefix = f"{w}." if len(report) > 1 else ""
        for name, m in r["metrics"].items():
            value = m["value"] if trace else m["median"]
            metrics[prefix + name] = {"value": value, "unit": m["unit"]}
    failed = sum(r["failed"] for r in report.values())
    return {
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in report.values()),
        "failed": failed,
        "metrics": metrics,
    }


# ----------------------------------------------------------------------
# --compare
# ----------------------------------------------------------------------
def verdict(a: dict, b: dict, bound: float, better: str) -> str:
    """``ok``, ``worse`` or ``unresolved`` for set *b* against set *a*.

    *b* is ``worse`` when its median is worse than *a*'s by more than
    the bound.  When either side's spread (IQR over median) is wider
    than the bound, that holds only if the two IQRs do not overlap;
    overlapping wide IQRs leave the comparison ``unresolved``.
    """
    sign = 1.0 if better == "lower" else -1.0
    change = sign * (b["median"] - a["median"]) / a["median"]
    spread = max(a["iqr"] / a["median"], b["iqr"] / b["median"])
    if spread > bound and b["q1"] <= a["q3"] and a["q1"] <= b["q3"]:
        return "unresolved"
    return "worse" if change > bound else "ok"


def compare(path_a: str, path_b: str) -> int:
    spec = load_spec()
    with open(path_a, encoding="utf-8") as fh:
        a = json.load(fh)["workloads"]
    with open(path_b, encoding="utf-8") as fh:
        b = json.load(fh)["workloads"]
    worse = False
    print(f"{'workload':<20} {'metric':<12} {'A median':>12} {'B median':>12} "
          f"{'B/A':>7} {'A iqr':>9} {'B iqr':>9} {'bound':>6}  verdict")
    for w in a:
        if w not in b:
            # B lost this workload's coverage: that must not read as a pass.
            worse = True
            for m in spec["end_to_end"]:
                print(f"{w:<20} {m['name']:<12} {'(workload missing from B)':>40}  worse")
            continue
        for m in spec["end_to_end"]:
            ma, mb = a[w]["metrics"].get(m["name"]), b[w]["metrics"].get(m["name"])
            if ma is None or mb is None:
                print(f"{w:<20} {m['name']:<12} {'(no successful repetition)':>40}  unresolved")
                continue
            v = verdict(ma, mb, m["bound"], m["better"])
            worse |= v == "worse"
            print(f"{w:<20} {m['name']:<12} {ma['median']:>12.4f} {mb['median']:>12.4f} "
                  f"{mb['median'] / ma['median']:>7.3f} {ma['iqr']:>9.4f} "
                  f"{mb['iqr']:>9.4f} {m['bound']:>6.2f}  {v}")
        fa, fb = a[w]["fail_rate"], b[w]["fail_rate"]
        v = "worse" if fb > fa else "ok"
        worse |= v == "worse"
        print(f"{w:<20} {'fail_rate':<12} {fa:>12.4f} {fb:>12.4f} {'':>7} {'':>9} "
              f"{'':>9} {'0':>6}  {v}")
    return 1 if worse else 0


# ----------------------------------------------------------------------
def repin(workloads: List[str]) -> int:
    """Rewrite the pinned digests of *workloads* from a seed-0 run."""
    with open(PINS_PATH, encoding="utf-8") as fh:
        pins = json.load(fh)
    for w in workloads:
        result = run_child(w, pins["seed"], unpinned=True)
        if not result["ok"]:
            print(f"{w}: {result['reason']}", file=sys.stderr)
            return 1
        pins["cells"].update(result["digests"])
        print(f"pinned {', '.join(result['digests'])}")
    with open(PINS_PATH, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Time the generated AAPC routine end to end and per layer.")
    parser.add_argument("--workload", nargs="+", action="extend", metavar="NAME",
                        help="workloads to run (default: all, in BENCHMARK.json order)")
    parser.add_argument("--seed", type=int, default=0,
                        help="becomes NetworkParams(seed=S) for every cell")
    parser.add_argument("--seconds", type=float,
                        help="per-workload time budget for the repetitions")
    # The command in BENCHMARK.json is invoked with an explicit
    # `--trace 0` or `--trace 1`, so the flag takes an optional value;
    # a bare `--trace` means 1.
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="print per-layer metrics instead")
    parser.add_argument("--json-out", metavar="PATH",
                        help="write the full report (every repetition) as JSON")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two --json-out reports and exit")
    parser.add_argument("--repin", action="store_true",
                        help="rewrite bench/pins.json from a seed-0 run and exit")
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    # SIGTERM becomes SystemExit, on which subprocess.run kills and reaps
    # the running child instead of leaving it behind.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    args = parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    spec = load_spec()
    known = [w["name"] for w in spec["workloads"]]
    workloads = args.workload or known
    unknown = sorted(set(workloads) - set(known))
    if unknown:
        print(f"error: unknown workload(s) {unknown}; known: {known}", file=sys.stderr)
        return 2
    if args.repin:
        return repin(workloads)
    if args.trace:
        report = {w: trace_run(w, args.seed, spec) for w in workloads}
        print_trace(report, args.seed)
    else:
        report = timed_run(workloads, args.seed, args.seconds, spec)
        print_timed(report, args.seed)
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as fh:
            json.dump({"seed": args.seed, "repetitions": REPETITIONS,
                       "seconds": args.seconds, "trace": bool(args.trace),
                       "workloads": report}, fh, indent=1)
    line = result_line(report, bool(args.trace))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
