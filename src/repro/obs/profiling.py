"""Former home of the pipeline profiler, kept for the benchmark harness.

Pipeline spans are recorded by :class:`repro.obs.metrics_registry.MetricsRegistry`,
the one instrumentation recorder.  The benchmark harness under
``bench/`` imports these two names from this module, so they stay
importable here: ``PipelineProfiler`` *is* the registry class.  No
module of the library imports this one.
"""

from repro.obs.metrics_registry import MetricsRegistry as PipelineProfiler
from repro.obs.metrics_registry import PipelineProfile

__all__ = ["PipelineProfile", "PipelineProfiler"]
