"""Flight-recorder observability for the cluster simulator and pipeline.

The simulator's argument — and the paper's — is about *contention
structure*: the generated routine wins because every phase is
contention-free and pair-wise syncs keep phases from bleeding into each
other.  This package makes that structure observable at run time, and
makes the offline pipeline that produces it measurable:

* :mod:`repro.obs.bus` — a typed publish/subscribe event bus the
  simulator publishes to (flow lifecycle, per-link occupancy changes,
  per-rank operation records).
* :mod:`repro.obs.link_metrics` — turns bus events into per-link busy
  time, utilization, peak multiplexing and an over-subscription
  (contention) event counter, plus per-flow achieved-rate records.
* :mod:`repro.obs.perfetto` — Chrome/Perfetto ``trace_event`` JSON
  export: one track per rank, one counter track per link, one track
  for the offline pipeline spans.
* :mod:`repro.obs.telemetry` — :class:`RunTelemetry`, the bundle the
  executor returns when telemetry is requested, with JSON export.
* :mod:`repro.obs.ledger` — persistent append-only run ledger
  (JSONL) plus the ``report regress`` comparison machinery.
* :mod:`repro.obs.metrics_registry` — the one off-by-default
  instrumentation recorder: nested spans over the offline scheduling
  pipeline (rooting, phase partitioning, dependence graph, transitive
  reduction, program emission) plus counters/gauges/histograms threaded
  through the engine, the max-min solver, the MPI layer and the offline
  pipeline; exports spans as a pipeline profile and snapshots as
  schema-versioned ``stats`` dicts, JSONL streams and Prometheus text
  exposition.
* :mod:`repro.obs.monitor` — live run monitor emitting periodic
  :class:`~repro.obs.metrics_registry.MetricsSnapshot` events
  (``repro-aapc top``, ``--stats-out``).
* :mod:`repro.obs.phase_audit` — the phase observatory: observed
  phase windows (entry skew, sync wait, bottleneck rank, overlap), and
  the audit joining the static per-phase link-load model with observed
  flows to flag divergence, including contention inside certified
  contention-free phases (``repro-aapc phases``).
* :mod:`repro.obs.causal` — happens-before DAG reconstruction from the
  recorded events, critical-path extraction and per-flow/per-sync slack.
* :mod:`repro.obs.attribution` — decomposition of the gap between the
  measured completion and the paper's ``load/B`` bound into named
  components (``repro-aapc explain``).

Run with ``run_programs(..., telemetry=True)`` or from the CLI:
``repro-aapc trace <topology>``; inspect history with
``repro-aapc report list``.  See ``docs/observability.md``.

The public names below are resolved lazily (PEP 562): the pipeline
modules in :mod:`repro.core` import :mod:`repro.obs.metrics_registry`
without dragging the simulator-facing consumers (and hence
:mod:`repro.sim`) into their import graph.
"""

from typing import TYPE_CHECKING

#: public name -> defining submodule
_EXPORTS = {
    "EventBus": "repro.obs.bus",
    "FlowStarted": "repro.obs.bus",
    "FlowFinished": "repro.obs.bus",
    "LinkOccupancy": "repro.obs.bus",
    "LinkMetricsCollector": "repro.obs.link_metrics",
    "LinkMetricsReport": "repro.obs.link_metrics",
    "LinkReport": "repro.obs.link_metrics",
    "FlowRecord": "repro.obs.link_metrics",
    "perfetto_trace": "repro.obs.perfetto",
    "write_perfetto": "repro.obs.perfetto",
    "RunTelemetry": "repro.obs.telemetry",
    "EngineStats": "repro.obs.telemetry",
    "MetricsRegistry": "repro.obs.metrics_registry",
    "MetricsSnapshot": "repro.obs.metrics_registry",
    "SnapshotWriter": "repro.obs.metrics_registry",
    "active_registry": "repro.obs.metrics_registry",
    "metric_inc": "repro.obs.metrics_registry",
    "metric_observe": "repro.obs.metrics_registry",
    "PipelineProfile": "repro.obs.metrics_registry",
    "SpanRecord": "repro.obs.metrics_registry",
    "pipeline_span": "repro.obs.metrics_registry",
    "add_counters": "repro.obs.metrics_registry",
    "load_snapshots": "repro.obs.metrics_registry",
    "loads_snapshot": "repro.obs.metrics_registry",
    "validate_stats": "repro.obs.metrics_registry",
    "MonitorConfig": "repro.obs.monitor",
    "RunMonitor": "repro.obs.monitor",
    "render_top_table": "repro.obs.monitor",
    "RunLedger": "repro.obs.ledger",
    "RunRecord": "repro.obs.ledger",
    "AlgorithmEntry": "repro.obs.ledger",
    "topology_fingerprint": "repro.obs.ledger",
    "default_ledger_dir": "repro.obs.ledger",
    "find_regressions": "repro.obs.ledger",
    "compare_records": "repro.obs.ledger",
    "ensure_same_fault_partition": "repro.obs.ledger",
    "PhaseAuditReport": "repro.obs.phase_audit",
    "PhaseDivergence": "repro.obs.phase_audit",
    "PhaseWindow": "repro.obs.phase_audit",
    "audit_phases": "repro.obs.phase_audit",
    "phase_windows": "repro.obs.phase_audit",
    "CausalAnalysis": "repro.obs.causal",
    "PathSegment": "repro.obs.causal",
    "analyze": "repro.obs.causal",
    "AttributionReport": "repro.obs.attribution",
    "attribute_gap": "repro.obs.attribution",
    "explain_telemetry": "repro.obs.attribution",
    "check_budgets": "repro.obs.attribution",
    "load_attribution": "repro.obs.attribution",
    "loads_attribution": "repro.obs.attribution",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    try:
        module_name = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module 'repro.obs' has no attribute {name!r}"
        ) from None
    import importlib

    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value  # cache for subsequent lookups
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))


if TYPE_CHECKING:  # pragma: no cover - static analysis only
    from repro.obs.attribution import (
        AttributionReport,
        attribute_gap,
        check_budgets,
        explain_telemetry,
        load_attribution,
        loads_attribution,
    )
    from repro.obs.causal import CausalAnalysis, PathSegment, analyze
    from repro.obs.bus import (
        EventBus,
        FlowFinished,
        FlowStarted,
        LinkOccupancy,
    )
    from repro.obs.ledger import (
        AlgorithmEntry,
        RunLedger,
        RunRecord,
        compare_records,
        default_ledger_dir,
        ensure_same_fault_partition,
        find_regressions,
        topology_fingerprint,
    )
    from repro.obs.link_metrics import (
        FlowRecord,
        LinkMetricsCollector,
        LinkMetricsReport,
        LinkReport,
    )
    from repro.obs.metrics_registry import (
        MetricsRegistry,
        MetricsSnapshot,
        PipelineProfile,
        SnapshotWriter,
        SpanRecord,
        active_registry,
        add_counters,
        load_snapshots,
        loads_snapshot,
        metric_inc,
        metric_observe,
        pipeline_span,
        validate_stats,
    )
    from repro.obs.monitor import MonitorConfig, RunMonitor, render_top_table
    from repro.obs.perfetto import perfetto_trace, write_perfetto
    from repro.obs.phase_audit import (
        PhaseAuditReport,
        PhaseDivergence,
        PhaseWindow,
        audit_phases,
        phase_windows,
    )
    from repro.obs.telemetry import EngineStats, RunTelemetry
