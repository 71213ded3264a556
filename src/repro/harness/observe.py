"""One observed run: build, simulate and analyze one algorithm once.

Every observation view — ``repro-aapc simulate``, ``trace``, ``explain``,
``phases``, ``gantt`` and ``top`` — needs the same instrumented
pipeline: build and simulate the programs under one active metrics
registry (pipeline spans plus hot-path instruments; the flight recorder
too when telemetry is wanted), then attach the analyses the view reads
(causal attribution, phase audit) to the telemetry.  :func:`observe` runs that
pipeline once and returns an :class:`ObservedRun`; the views are
renderers over it, and its telemetry (``--metrics-out`` /
``--trace-out``) and ledger entry are built the same way whichever view
asked for the run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Collection, Dict, Optional, Tuple

from repro.algorithms.base import AlltoallAlgorithm
from repro.core.program import Program
from repro.errors import ReproError
from repro.harness.metrics import summarize_links
from repro.obs.attribution import AttributionReport, explain_telemetry
from repro.obs.ledger import AlgorithmEntry
from repro.obs.metrics_registry import MetricsRegistry, PipelineProfile
from repro.obs.monitor import MonitorConfig
from repro.obs.phase_audit import (
    DEFAULT_OCCUPANCY_TOLERANCE,
    PhaseAuditReport,
    audit_phases,
)
from repro.obs.telemetry import RunTelemetry
from repro.sim.executor import RunResult, run_programs
from repro.sim.params import NetworkParams
from repro.topology.graph import Topology
from repro.units import bytes_per_sec_to_mbps

#: The analyses :func:`analyze` can attach to a run's telemetry.
ANALYSES = ("attribution", "audit")


def analyze(
    telemetry: RunTelemetry,
    topology: Topology,
    programs: Dict[str, Program],
    algorithm: str = "",
    *,
    analyses: Collection[str] = ANALYSES,
    occupancy_tolerance: float = DEFAULT_OCCUPANCY_TOLERANCE,
) -> Tuple[
    Optional[AttributionReport], Optional[PhaseAuditReport], Dict[str, str]
]:
    """Attach the named *analyses* — the gap attribution and/or the
    phase audit — to *telemetry*.

    Best-effort: an analysis that cannot run (a trace capped by
    ``max_trace_records`` loses records the causal DAG needs) comes
    back ``None`` with its reason in the returned map, keyed
    ``"attribution"`` / ``"audit"``.
    """
    unavailable: Dict[str, str] = {}
    attribution = audit = None
    if "attribution" in analyses:
        try:
            attribution = explain_telemetry(
                telemetry, topology, algorithm=algorithm
            )
        except ReproError as exc:
            unavailable["attribution"] = str(exc)
    if "audit" in analyses:
        try:
            audit = audit_phases(
                telemetry, topology, programs,
                occupancy_tolerance=occupancy_tolerance,
            )
            telemetry.phase_audit = audit.as_dict()
        except ReproError as exc:
            unavailable["audit"] = str(exc)
    return attribution, audit, unavailable


@dataclass
class ObservedRun:
    """One instrumented run of one algorithm and everything learned."""

    topology: Topology
    algorithm: AlltoallAlgorithm
    msize: int
    programs: Dict[str, Program]
    result: RunResult
    pipeline: PipelineProfile
    #: Wall-clock seconds spent building the programs / simulating them.
    build_seconds: float
    sim_seconds: float
    attribution: Optional[AttributionReport] = None
    audit: Optional[PhaseAuditReport] = None
    #: Why an analysis is missing, keyed like :func:`analyze`'s map.
    unavailable: Dict[str, str] = field(default_factory=dict)

    @property
    def telemetry(self) -> Optional[RunTelemetry]:
        return self.result.telemetry

    def require(self, name: str):
        """The ``"attribution"`` or ``"audit"`` report, or a
        :class:`~repro.errors.ReproError` saying why it is missing."""
        report = getattr(self, name)
        if report is None:
            if name in self.unavailable:
                reason = self.unavailable[name]
            elif self.telemetry is None:
                reason = "the run was not recorded with telemetry"
            else:
                reason = "the run did not ask for it"
            raise ReproError(f"{name} unavailable: {reason}")
        return report

    def ledger_entry(self) -> AlgorithmEntry:
        """The run's ledger entry (the attribution without its path).

        ``sim_wall_ms`` is left out when the flight recorder ran: it
        slows the engine loop, so that wall clock is not comparable
        with a plain run's and would trip the ledger's wall-clock gate.
        """
        result = self.result
        throughput = result.aggregate_throughput(
            self.topology.num_machines, self.msize
        )
        telemetry = self.telemetry
        return AlgorithmEntry(
            completion_time_ms=result.completion_time * 1e3,
            throughput_mbps=bytes_per_sec_to_mbps(throughput),
            scheduler_runtime_ms=self.build_seconds * 1e3,
            sim_wall_ms=self.sim_seconds * 1e3 if telemetry is None else None,
            telemetry=(
                summarize_links(telemetry).as_dict()
                if telemetry is not None
                else None
            ),
            pipeline=self.pipeline.as_dicts(),
            attribution=(
                self.attribution.as_dict(path=False)
                if self.attribution is not None
                else None
            ),
            stats=result.stats,
            phase_audit=(
                self.audit.summary_dict() if self.audit is not None else None
            ),
        )


def observe(
    topology: Topology,
    algorithm: AlltoallAlgorithm,
    msize: int,
    params: NetworkParams,
    *,
    telemetry: bool = True,
    trace: bool = False,
    analyses: Collection[str] = ANALYSES,
    max_trace_records: Optional[int] = None,
    monitor: Optional[MonitorConfig] = None,
    occupancy_tolerance: float = DEFAULT_OCCUPANCY_TOLERANCE,
) -> ObservedRun:
    """Build, simulate and (with *telemetry*) analyze one algorithm.

    One metrics registry covers the build *and* the simulated run: its
    spans are the run's pipeline profile and its ``stats`` snapshot
    holds the counters of both.  With *telemetry* the flight recorder
    runs, the pipeline profile is attached to the telemetry and
    :func:`analyze` adds the named *analyses* outside the registry's
    activation.  *trace* alone records only the per-rank trace
    (``result.trace``).
    """
    registry = MetricsRegistry()
    with registry.activate():
        t0 = time.perf_counter()
        programs = algorithm.build_programs(topology, msize)
        build_seconds = time.perf_counter() - t0
        t0 = time.perf_counter()
        result = run_programs(
            topology, programs, msize, params,
            trace=trace,
            telemetry=telemetry,
            max_trace_records=max_trace_records,
            monitor=monitor,
        )
        sim_seconds = time.perf_counter() - t0
    run = ObservedRun(
        topology=topology,
        algorithm=algorithm,
        msize=msize,
        programs=programs,
        result=result,
        pipeline=registry.report(),
        build_seconds=build_seconds,
        sim_seconds=sim_seconds,
    )
    if result.telemetry is not None:
        result.telemetry.pipeline = run.pipeline
        run.attribution, run.audit, run.unavailable = analyze(
            result.telemetry, topology, programs, algorithm.name,
            analyses=analyses, occupancy_tolerance=occupancy_tolerance,
        )
    return run
