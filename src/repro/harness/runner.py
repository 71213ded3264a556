"""Run experiment grids: topology x algorithm x workload, with repetitions.

:func:`run_experiment` is the one build-and-simulate loop: it builds
each algorithm's programs once per message size, simulates each seeded
repetition through :func:`measure_programs`, and returns a queryable
:class:`ExperimentResult`.  The paper experiments, the random-topology
campaign and the chaos sweep's fault-free baselines all average
through it; the auto-tuner calls :func:`measure_programs` itself so
that it can keep the fastest candidate's programs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.algorithms.base import AlltoallAlgorithm
from repro.core.program import Program
from repro.errors import ReproError
from repro.harness.metrics import (
    LinkSummary,
    aggregate_throughput_mbps,
    completion_stats,
    summarize_links,
)
from repro.harness.observation import analyze
from repro.harness.workloads import Workload
from repro.obs.phase_audit import VERDICT_UNOBSERVED
from repro.sim.executor import run_programs
from repro.sim.params import NetworkParams
from repro.topology.graph import Topology


@dataclass
class MeasurementPoint:
    """Averaged result for one (algorithm, workload) cell."""

    algorithm: str
    #: Size-resolved description (e.g. ``mpich(mpich-ring)``).
    variant: str
    msize: int
    mean_time: float
    min_time: float
    max_time: float
    samples: List[float]
    throughput_mbps: float
    peak_concurrent_flows: int
    max_edge_multiplexing: int
    #: Link-level telemetry from the first repetition, when the
    #: experiment ran with ``telemetry=True`` (None otherwise).
    link_stats: Optional[LinkSummary] = None
    #: Wall-clock seconds spent building the cell's programs — the
    #: offline scheduling pipeline cost (root finding, phase
    #: partitioning, sync planning, program emission).
    build_time: Optional[float] = None
    #: Optimality-gap attribution of the instrumented repetition
    #: (:mod:`repro.obs.attribution` report dict, without the path);
    #: tells which component dominates the gap at this cell's size.
    attribution: Optional[Dict[str, object]] = None
    #: Phase-observatory summary of the instrumented repetition
    #: (:meth:`repro.obs.phase_audit.PhaseAuditReport.summary_dict`):
    #: did the observed per-link loads match the static model, phase by
    #: phase?  None when the cell ran without telemetry or with no
    #: observable flows (pure-eager sizes).
    phase_audit: Optional[Dict[str, object]] = None

    @property
    def dominant_component(self) -> Optional[str]:
        if self.attribution is None:
            return None
        return self.attribution.get("dominant_component")  # type: ignore[return-value]

    @property
    def worst_phase_divergence(self) -> Optional[float]:
        """Worst occupancy deviation across phases; ``inf`` on a
        contention violation inside a certified phase, None when the
        cell carried no phase audit."""
        if self.phase_audit is None:
            return None
        if self.phase_audit.get("violations"):
            return float("inf")
        dev = self.phase_audit.get("max_occupancy_deviation", 0.0)
        return float(dev) if dev is not None else 0.0


@dataclass
class ExperimentResult:
    """All cells of one experiment grid."""

    name: str
    topology: Topology
    params: NetworkParams
    points: List[MeasurementPoint] = field(default_factory=list)

    def cell(self, algorithm: str, msize: int) -> MeasurementPoint:
        for p in self.points:
            if p.algorithm == algorithm and p.msize == msize:
                return p
        raise ReproError(f"no measurement for ({algorithm}, {msize})")

    def algorithms(self) -> List[str]:
        seen: List[str] = []
        for p in self.points:
            if p.algorithm not in seen:
                seen.append(p.algorithm)
        return seen

    def sizes(self) -> List[int]:
        seen: List[int] = []
        for p in self.points:
            if p.msize not in seen:
                seen.append(p.msize)
        return seen

    def series(self, algorithm: str) -> List[Tuple[int, float]]:
        """(msize, mean completion time) pairs for one algorithm."""
        return [
            (p.msize, p.mean_time) for p in self.points if p.algorithm == algorithm
        ]


def run_experiment(
    name: str,
    topology: Topology,
    algorithms: Sequence[AlltoallAlgorithm],
    workloads: Sequence[Workload],
    params: Optional[NetworkParams] = None,
    *,
    telemetry: bool = False,
    faults=None,
    max_trace_records: Optional[int] = None,
) -> ExperimentResult:
    """Simulate every (algorithm, workload) cell and average repetitions.

    With *telemetry* on, the first repetition of each cell runs under
    the flight recorder and its link-level summary is attached to the
    cell's :class:`MeasurementPoint` (one instrumented run per cell
    keeps the grid cost flat).

    *faults* (a :class:`~repro.faults.plan.FaultPlan`) injects the same
    chaos into every repetition; a stalled cell raises
    :class:`~repro.errors.StallError` with a diagnosis rather than
    hanging the grid.
    """
    if params is None:
        params = NetworkParams()
    result = ExperimentResult(name=name, topology=topology, params=params)
    for workload in workloads:
        for algorithm in algorithms:
            t0 = time.perf_counter()
            programs = algorithm.build_programs(topology, workload.msize)
            build_time = time.perf_counter() - t0
            result.points.append(measure_programs(
                topology, algorithm, programs, workload, params,
                build_time=build_time, telemetry=telemetry, faults=faults,
                max_trace_records=max_trace_records,
            ))
    return result


def measure_programs(
    topology: Topology,
    algorithm: AlltoallAlgorithm,
    programs: Dict[str, Program],
    workload: Workload,
    params: NetworkParams,
    *,
    build_time: Optional[float] = None,
    telemetry: bool = False,
    faults=None,
    max_trace_records: Optional[int] = None,
) -> MeasurementPoint:
    """Simulate one built program set once per seed of *workload*.

    The per-cell body of :func:`run_experiment`, for callers that keep
    the programs they measured (the auto-tuner keeps its winner's).
    """
    samples: List[float] = []
    peak_flows = 0
    max_mux = 0
    link_stats: Optional[LinkSummary] = None
    attribution: Optional[Dict[str, object]] = None
    phase_audit: Optional[Dict[str, object]] = None
    for i, seed in enumerate(workload.seeds()):
        run = run_programs(
            topology,
            programs,
            workload.msize,
            params.with_seed(seed),
            telemetry=telemetry and i == 0,
            faults=faults,
            max_trace_records=max_trace_records,
        )
        samples.append(run.completion_time)
        peak_flows = max(peak_flows, run.peak_concurrent_flows)
        max_mux = max(max_mux, run.max_edge_multiplexing)
        if run.telemetry is not None:
            link_stats = summarize_links(run.telemetry)
            report, audit, _ = analyze(
                run.telemetry, topology, programs, algorithm.name
            )
            if report is not None:
                attribution = report.as_dict(path=False)
            # Pure-eager sizes carry no flows to audit.
            if audit is not None and not all(
                r.verdict == VERDICT_UNOBSERVED for r in audit.rows
            ):
                phase_audit = audit.summary_dict()
    mean, lo, hi = completion_stats(samples)
    return MeasurementPoint(
        algorithm=algorithm.name,
        variant=algorithm.describe(topology, workload.msize),
        msize=workload.msize,
        mean_time=mean,
        min_time=lo,
        max_time=hi,
        samples=samples,
        # A one-rank cluster moves nothing and finishes at 0.
        throughput_mbps=aggregate_throughput_mbps(
            topology.num_machines, workload.msize, mean
        ) if mean > 0 else 0.0,
        peak_concurrent_flows=peak_flows,
        max_edge_multiplexing=max_mux,
        link_stats=link_stats,
        build_time=build_time,
        attribution=attribution,
        phase_audit=phase_audit,
    )
