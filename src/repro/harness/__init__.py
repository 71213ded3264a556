"""Experiment harness: workloads, runners, metrics and paper-style reports.

The harness turns (topology, algorithm, message size) grids into the
tables and throughput series of the paper's Section 6, averaging over
seeded repetitions the way the paper averages over executions.
"""

from repro.harness.workloads import PAPER_MESSAGE_SIZES, Workload, message_size_sweep
from repro.harness.metrics import (
    aggregate_throughput_mbps,
    completion_stats,
    peak_throughput_mbps,
    speedup,
)
from repro.harness.observation import ObservedRun, observe
from repro.harness.runner import ExperimentResult, MeasurementPoint, run_experiment
from repro.harness.report import (
    completion_table,
    render_throughput_series,
    throughput_table,
)
from repro.harness.experiments import (
    EXPERIMENTS,
    Experiment,
    ablation_redundant_sync,
    ablation_sync_modes,
    experiment_topology_a,
    experiment_topology_b,
    experiment_topology_c,
)
from repro.harness.persistence import (
    dumps_result,
    load_result,
    loads_result,
    save_result,
)
from repro.harness.validation import ShapeReport, compare_shapes
from repro.harness.campaign import CampaignSummary, run_campaign

__all__ = [
    "PAPER_MESSAGE_SIZES",
    "Workload",
    "message_size_sweep",
    "aggregate_throughput_mbps",
    "peak_throughput_mbps",
    "completion_stats",
    "speedup",
    "run_experiment",
    "observe",
    "ObservedRun",
    "ExperimentResult",
    "MeasurementPoint",
    "completion_table",
    "throughput_table",
    "render_throughput_series",
    "EXPERIMENTS",
    "Experiment",
    "experiment_topology_a",
    "experiment_topology_b",
    "experiment_topology_c",
    "ablation_sync_modes",
    "ablation_redundant_sync",
    "save_result",
    "load_result",
    "dumps_result",
    "loads_result",
    "ShapeReport",
    "compare_shapes",
    "CampaignSummary",
    "run_campaign",
]
