"""One repetition of a benchmark workload, run in a fresh child process.

A workload is a fixed tuple of *cells*; a cell is one algorithm on one
topology at one message size.  :func:`run_repetition` runs every cell of
a workload through the public pipeline -- topology, then
``get_algorithm(a).build_programs``, then ``run_programs`` -- in one of
three modes:

* ``"untraced"`` -- the end-to-end timings (``setup_s``, ``sim_s``);
* ``"traced"`` -- the same calls under an active
  :class:`~repro.obs.profiling.PipelineProfiler`, whose spans
  ``repro.core`` already records for every generator step, plus probes
  on ``Engine.run`` and the allocator's ``solve`` / ``collect_scope``
  and an active :class:`MetricsRegistry`;
* ``"memory"`` -- the same build calls under :class:`MemoryProfiler`,
  a ``tracemalloc`` pass that keeps each span's peak; no simulation.

Every mode checks its outputs (see :func:`_check_cell`) outside the
timed regions.  A repetition that fails any check reports ``ok: false``
with the failing cell's name in ``reason``.

Run as a script, this module is the child process the runner
(``bench/run.py``) spawns: it prints one JSON result line and exits 0
only when the repetition passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
import tracemalloc
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.algorithms import get_algorithm
from repro.core.schedule_io import dumps_schedule
from repro.obs.metrics_registry import MetricsRegistry
from repro.obs.profiling import PipelineProfile, PipelineProfiler
from repro.sim.allocator import BaseAllocator
from repro.sim.engine import Engine
from repro.sim.executor import run_programs
from repro.sim.params import NetworkParams
from repro.topology.analysis import aapc_load
from repro.topology.builder import random_tree, star_of_switches, topology_b
from repro.topology.graph import Topology

KiB = 1024
MiB = 1024 * 1024

#: Pinned per-cell digests and seed-0 completion times.
PINS_PATH = Path(__file__).resolve().parent / "pins.json"

#: The generated routine's steps, in pipeline order: layer metric prefix
#: to the span ``repro.core`` records for that step.
GENERATOR_STEPS = {
    "core.root": "root_identification",
    "core.global_schedule": "global_schedule",
    "core.assignment": "phase_partitioning",
    "core.verify": "verify_schedule",
    "core.synchronization": "sync_plan",
    "core.program": "program_emission",
}
#: Spans whose tracemalloc peak and retained memory the memory pass keeps.
MEMORY_SPANS = {
    "core.synchronization": "sync_plan",
    "core.program": "program_emission",
    "algorithms": "setup",
}


@dataclass(frozen=True)
class Cell:
    """One algorithm on one topology at one message size."""

    algorithm: str
    topology: str
    build: Callable[[], Topology]
    msize: int

    @property
    def name(self) -> str:
        return f"{self.algorithm}/{self.topology}/{self.msize // KiB}KiB"


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS: Dict[str, Tuple[Cell, ...]] = {
    "gen-star-256": (
        Cell("generated", "star-64x4", partial(star_of_switches, [64] * 4), 64 * KiB),
    ),
    "paper-b": tuple(
        Cell(algorithm, "topology-b", topology_b, msize)
        for algorithm in ("generated", "mpich", "lam")
        for msize in (16 * KiB, 64 * KiB)
    ),
    "bruck-1024": (
        Cell("bruck", "star-256x4", partial(star_of_switches, [256] * 4), 64 * KiB),
    ),
    "gen-random-160-4k": (
        Cell(
            "generated",
            "random-160-24-s5",
            partial(random_tree, 160, 24, seed=5),
            4 * KiB,
        ),
    ),
}


# ----------------------------------------------------------------------
# digests (computed outside every timed region)
# ----------------------------------------------------------------------
def schedule_digest(schedule) -> str:
    return hashlib.sha256(dumps_schedule(schedule).encode()).hexdigest()


def sync_plan_digest(plan) -> str:
    """Digest of the kept sync *set*: independent of the plan's order."""
    lines = sorted(
        f"{s.after.phase} {s.after.src} {s.after.dst} "
        f"{s.before.phase} {s.before.src} {s.before.dst}"
        for s in plan.syncs
    )
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def programs_digest(programs) -> str:
    h = hashlib.sha256()
    for rank in sorted(programs):
        for op in programs[rank].ops:
            h.update(
                f"{rank} {op.kind.value} {op.peer} {op.tag} {op.phase} "
                f"{op.nbytes} {op.blocks}\n".encode()
            )
    return h.hexdigest()


def load_pins() -> dict:
    with open(PINS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# tracing
# ----------------------------------------------------------------------
@dataclass
class AllocatorTotals:
    """Time and calls spent in the active allocator during a traced run."""

    solve_s: float = 0.0
    solve_calls: int = 0
    single_flow_solves: int = 0
    collect_scope_s: float = 0.0


@contextmanager
def probes(profiler: PipelineProfiler, totals: AllocatorTotals) -> Iterator[None]:
    """Span ``Engine.run`` on *profiler*; time every allocator's solve/collect_scope.

    The patches are class attributes, restored on exit, so the
    executor's own references pick them up unchanged.
    """
    saved = [(Engine, "run", Engine.__dict__["run"])]
    engine_run = Engine.run

    def run(engine, *args, **kwargs):
        with profiler.span("sim.engine.run"):
            return engine_run(engine, *args, **kwargs)

    Engine.run = run
    for cls in BaseAllocator.__subclasses__():
        solve = cls.__dict__["solve"]
        collect = cls.__dict__["collect_scope"]
        saved += [(cls, "solve", solve), (cls, "collect_scope", collect)]

        def timed_solve(alloc, scope, now, _solve=solve):
            t0 = time.perf_counter()
            out = _solve(alloc, scope, now)
            totals.solve_s += time.perf_counter() - t0
            totals.solve_calls += 1
            if len(scope) == 1:
                totals.single_flow_solves += 1
            return out

        def timed_collect(alloc, scope, _collect=collect):
            t0 = time.perf_counter()
            _collect(alloc, scope)
            totals.collect_scope_s += time.perf_counter() - t0

        cls.solve = timed_solve
        cls.collect_scope = timed_collect
    try:
        yield
    finally:
        for cls, attr, original in saved:
            setattr(cls, attr, original)


class MemoryProfiler(PipelineProfiler):
    """A profiler that keeps each span's ``tracemalloc`` peak and retained MB.

    A span's peak is the high-water mark above what was allocated when
    it opened; its retained memory is what is still allocated when it
    closes.  Opening a span resets ``tracemalloc``'s peak after folding
    it into every span still open, so a parent keeps the peaks of its
    children.  Repeated spans keep their largest value.  Needs
    ``tracemalloc`` running.
    """

    def __init__(self) -> None:
        super().__init__()
        self.peak_mb: Dict[str, float] = {}
        self.retained_mb: Dict[str, float] = {}
        self._open: List[List[float]] = []  # [base, peak] per open span

    def span(self, name, **counters):
        return self._measured(name, super().span(name, **counters))

    def _fold(self) -> int:
        current, peak = tracemalloc.get_traced_memory()
        for entry in self._open:
            entry[1] = max(entry[1], peak)
        return current

    @contextmanager
    def _measured(self, name: str, inner):
        current = self._fold()
        tracemalloc.reset_peak()
        entry = [current, current]
        self._open.append(entry)
        try:
            with inner as record:
                yield record
        finally:
            current = self._fold()
            self._open.pop()
            base, peak = entry
            self.peak_mb[name] = max(self.peak_mb.get(name, 0.0), (peak - base) / MiB)
            self.retained_mb[name] = max(
                self.retained_mb.get(name, 0.0), (current - base) / MiB
            )


def span_rows(profile: PipelineProfile) -> List[list]:
    """The profile's spans as ``[name, start, end, parent]`` rows.

    *parent* is the row index of the enclosing span (``None`` at top
    level); spans are listed in the order they opened.
    """
    rows: List[list] = []
    enclosing: List[int] = []  # row index of the latest span at each depth
    for index, s in enumerate(profile.spans):
        del enclosing[s.depth:]
        parent = enclosing[-1] if enclosing else None
        rows.append([s.name, s.start, s.start + s.duration, parent])
        enclosing.append(index)
    return rows


# ----------------------------------------------------------------------
# one cell
# ----------------------------------------------------------------------
def _check_cell(cell: Cell, topo, programs, schedule, plan, result, seed, pins,
                params: NetworkParams) -> Dict[str, object]:
    """Apply the correctness gate; return the cell's digests."""
    digests: Dict[str, object] = {"programs": programs_digest(programs)}
    if schedule is not None:
        load = aapc_load(topo)
        if schedule.num_phases != load:
            raise AssertionError(
                f"{schedule.num_phases} phases, expected aapc_load {load}"
            )
        digests["schedule"] = schedule_digest(schedule)
        digests["sync_plan"] = sync_plan_digest(plan)
    if result is not None:
        rendezvous = params.transfer_mode(cell.msize) == "rendezvous"
        if schedule is not None and rendezvous and result.max_edge_multiplexing != 1:
            raise AssertionError(
                f"max edge multiplexing {result.max_edge_multiplexing} on a "
                "contention-free rendezvous schedule"
            )
        digests["completion_ms"] = result.completion_time * 1e3
    if pins:
        pin = pins["cells"].get(cell.name)
        if pin is None:
            raise AssertionError("no pinned digests for this cell")
        for key in ("schedule", "sync_plan", "programs"):
            if key in digests and digests[key] != pin.get(key):
                raise AssertionError(f"{key} digest differs from the pin")
        if (
            "completion_ms" in digests
            and seed == pins.get("seed")
            and digests["completion_ms"] != pin.get("completion_ms")
        ):
            raise AssertionError(
                f"completion_ms {digests['completion_ms']!r} differs from the "
                f"pinned {pin.get('completion_ms')!r}"
            )
    return digests


def _run_cell(cell: Cell, seed: int, pins: dict, mode: str,
              profiler: Optional[PipelineProfiler],
              acc: Dict[str, float]) -> Dict[str, object]:
    """Build and (unless *mode* is ``"memory"``) simulate one cell.

    Every mode makes the same ``build_programs`` and ``run_programs``
    calls; the traced and memory modes only add spans on *profiler*,
    which is active around them.
    """
    params = NetworkParams(seed=seed)
    topo = cell.build()
    algo = get_algorithm(cell.algorithm)
    result = None
    if mode == "untraced":
        t0 = time.perf_counter()
        programs = algo.build_programs(topo, cell.msize)
        t1 = time.perf_counter()
        result = run_programs(topo, programs, cell.msize, params)
        t2 = time.perf_counter()
        acc["setup_s"] += t1 - t0
        acc["sim_s"] += t2 - t1
    elif mode == "traced":
        with profiler.span("cell"):
            with profiler.span("setup"):
                programs = algo.build_programs(topo, cell.msize)
            registry = MetricsRegistry()
            with registry.activate(), profiler.span("sim.executor"):
                result = run_programs(topo, programs, cell.msize, params)
    else:  # memory
        with profiler.span("setup"):
            programs = algo.build_programs(topo, cell.msize)
    schedule = getattr(algo, "last_schedule", None)
    plan = getattr(algo, "last_sync_plan", None)
    if mode == "traced":
        _accumulate_layers(acc, registry, result, schedule, plan, programs)
    return _check_cell(cell, topo, programs, schedule, plan, result, seed, pins,
                       params)


def _accumulate_layers(acc, registry, result, schedule, plan, programs) -> None:
    """Fold one traced cell's counters into the repetition totals."""
    snapshot = registry.snapshot()
    counters, hists = snapshot.counters, snapshot.histograms

    def add(key: str, value: float) -> None:
        acc[key] = acc.get(key, 0) + value

    def top(key: str, value: float) -> None:
        acc[key] = max(acc.get(key, 0), value)

    add("sim.engine.events", counters.get("engine.events_total", 0))
    add("sim.network.resolves", counters.get("network.resolves_total", 0))
    add("sim.network.flow_set_changes", counters.get("network.flow_set_changes", 0))
    add("sim.network.flow_pool_reuses", counters.get("network.flow_pool_reuses", 0))
    add("sim.mpi.syncs_posted", counters.get("mpi.syncs_posted", 0))
    add("sim.mpi.syncs_retired", counters.get("mpi.syncs_retired", 0))
    add("sim.mpi.retransmits", counters.get("mpi.retransmits", 0))
    add("sim.network.touched", hists.get("network.resolve_touched", {}).get("sum", 0))
    add(
        "sim.network.waterfill_iterations",
        hists.get("network.waterfill_iterations", {}).get("sum", 0),
    )
    component = hists.get("network.component_flows", {})
    add("_component_flows_sum", component.get("sum", 0))
    add("_component_flows_count", component.get("count", 0))
    top("sim.allocator.component_flows_max", component.get("max", 0))
    top("sim.network.peak_concurrent_flows", result.peak_concurrent_flows)
    top("sim.network.max_edge_multiplexing", result.max_edge_multiplexing)
    if schedule is not None:
        stats = plan.stats
        add("core.program.ops", sum(len(p) for p in programs.values()))
        add("core.assignment.phases", schedule.num_phases)
        add("core.synchronization.conflict_deps", stats.num_conflict_deps)
        add("core.synchronization.syncs_before_reduction", stats.num_before_reduction)
        add("core.synchronization.syncs_kept", stats.num_after_reduction)


def layer_metrics(profile: PipelineProfile, allocator: AllocatorTotals,
                  acc: Dict[str, float]) -> Dict[str, float]:
    """The per-layer metrics of one traced repetition (see README.md)."""
    out: Dict[str, float] = {
        f"{layer}.s": profile.total(span) for layer, span in GENERATOR_STEPS.items()
    }
    # The algorithms layer's self time: build_programs minus the
    # generator steps it calls.
    out["algorithms.build_s"] = profile.total("setup") - sum(out.values())
    executor = profile.total("sim.executor")
    engine = profile.total("sim.engine.run")
    allocator_s = allocator.solve_s + allocator.collect_scope_s
    out.update({
        "sim.executor.s": executor,
        "sim.executor.self_s": executor - engine,
        "sim.engine.run_s": engine,
        "sim.engine.self_s": engine - allocator_s,
        "sim.allocator.solve_s": allocator.solve_s,
        "sim.allocator.solve_calls": allocator.solve_calls,
        "sim.allocator.single_flow_solves": allocator.single_flow_solves,
        "sim.allocator.collect_scope_s": allocator.collect_scope_s,
        "sim.allocator.share": allocator_s / executor if executor else 0.0,
    })
    for key, value in acc.items():
        if not key.startswith("_"):
            out[key] = value
    events = out.get("sim.engine.events", 0)
    out["sim.engine.events_per_s"] = events / engine if engine else 0.0
    count = acc.get("_component_flows_count", 0)
    out["sim.allocator.component_flows_mean"] = (
        acc.get("_component_flows_sum", 0) / count if count else 0.0
    )
    before = acc.get("core.synchronization.syncs_before_reduction", 0)
    out["core.synchronization.kept_ratio"] = (
        acc.get("core.synchronization.syncs_kept", 0) / before if before else 0.0
    )
    return out


def memory_metrics(profiler: MemoryProfiler) -> Dict[str, float]:
    """The ``*.peak_mb`` / ``*.retained_mb`` metrics of one memory pass."""
    out: Dict[str, float] = {}
    for layer, span in MEMORY_SPANS.items():
        out[f"{layer}.peak_mb"] = profiler.peak_mb.get(span, 0.0)
        out[f"{layer}.retained_mb"] = profiler.retained_mb.get(span, 0.0)
    return out


# ----------------------------------------------------------------------
# one repetition
# ----------------------------------------------------------------------
def run_repetition(cells, seed: int, pins: dict, mode: str = "untraced") -> dict:
    """Run every cell once in *mode*; never raises for a failing cell.

    Returns ``{"ok", "reason", "digests", "metrics"}`` (plus ``"spans"``
    when traced).  ``metrics`` holds ``setup_s``/``sim_s``/``e2e_s`` and
    ``peak_rss_mb`` for an untraced or traced repetition, the layer
    metrics for a traced one and the ``*.peak_mb``/``*.retained_mb``
    memory metrics for a memory pass.
    """
    profiler: Optional[PipelineProfiler] = None
    allocator = AllocatorTotals()
    acc: Dict[str, float] = {"setup_s": 0.0, "sim_s": 0.0}
    digests: Dict[str, object] = {}
    out: dict = {"ok": True, "reason": "", "digests": digests}
    with ExitStack() as stack:
        if mode == "traced":
            profiler = PipelineProfiler()
            stack.enter_context(probes(profiler, allocator))
        elif mode == "memory":
            profiler = MemoryProfiler()
            tracemalloc.start()
            stack.callback(tracemalloc.stop)
        if profiler is not None:
            stack.enter_context(profiler.activate())
        for cell in cells:
            try:
                digests[cell.name] = _run_cell(cell, seed, pins, mode, profiler, acc)
            except Exception as exc:  # the boundary that must keep going
                out.update(ok=False, reason=f"{cell.name}: {type(exc).__name__}: {exc}")
                return out
    metrics: Dict[str, float] = {}
    if mode == "memory":
        out["metrics"] = memory_metrics(profiler)
        return out
    if mode == "traced":
        profile = profiler.report()
        acc["setup_s"] = profile.total("setup")
        acc["sim_s"] = profile.total("sim.executor")
        if acc.get("sim.mpi.retransmits", 0) != 0:
            out.update(ok=False, reason=f"{acc['sim.mpi.retransmits']} sync retransmits")
        elif acc.get("sim.mpi.syncs_posted") != acc.get("sim.mpi.syncs_retired"):
            out.update(ok=False, reason="syncs posted != syncs retired")
        metrics.update(layer_metrics(profile, allocator, acc))
        out["spans"] = span_rows(profile)
    metrics["setup_s"] = acc["setup_s"]
    metrics["sim_s"] = acc["sim_s"]
    metrics["e2e_s"] = acc["setup_s"] + acc["sim_s"]
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / KiB
    out["metrics"] = metrics
    return out


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("untraced", "traced", "memory"),
                        default="untraced")
    parser.add_argument("--unpinned", action="store_true",
                        help="skip the pin checks (used to write new pins)")
    args = parser.parse_args(argv)
    pins = {} if args.unpinned else load_pins()
    result = run_repetition(WORKLOADS[args.workload], args.seed, pins, args.mode)
    print(json.dumps(result))
    return 0 if result["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
