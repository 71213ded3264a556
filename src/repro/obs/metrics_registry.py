"""The one instrumentation recorder: pipeline spans and hot-path metrics.

The paper's routine is an *offline* pipeline — root identification,
extended-ring phase partitioning into ``|M0| * (|M| - |M0|)``
contention-free phases, redundant-sync elimination and per-node program
emission — followed by the simulated run.  :class:`MetricsRegistry`
records both sides while it is active:

* **spans** — nested, monotonic-clock timeline records with attached
  counters (phases produced, syncs before/after elimination, ...),
  opened by the pipeline stages in :mod:`repro.core` through the
  :func:`pipeline_span` / :func:`add_counters` hooks and reported as a
  :class:`PipelineProfile` (ledger ``pipeline`` block, Perfetto
  pipeline track);
* **instruments** — counters, gauges and power-of-two histograms that
  the simulator's hot loops (:mod:`repro.sim.engine`,
  :mod:`repro.sim.network`, :mod:`repro.sim.mpi`) and the offline
  layers (:func:`metric_inc` / :func:`metric_observe`) update, frozen
  into a :class:`MetricsSnapshot` (ledger ``stats`` block).

Design rules:

* Activation uses one module-level slot (the pipeline and the
  simulator are single-threaded); nested activations restore the
  previous registry on exit.  With no registry active every hook costs
  one module-global read plus one ``is None`` test — no allocation —
  and :func:`pipeline_span` returns a shared no-op context manager.
* Hot components (:class:`~repro.sim.engine.Engine`,
  :class:`~repro.sim.network.FlowNetwork`, :class:`~repro.sim.mpi.SimMPI`)
  capture instrument handles **at construction time** from
  :func:`active_registry` and mutate ``handle.value`` directly — no dict
  lookup per event; they hold ``None`` handles when no registry is
  active.
* Histograms use power-of-two buckets (``int.bit_length``).

Snapshots export three ways: a schema-versioned dict
(:meth:`MetricsSnapshot.as_dict`, embedded in metrics JSON and ledger
records under a ``stats`` block), JSONL snapshot streams
(``--stats-out``, read back by :func:`load_snapshots`), and Prometheus
text exposition (:meth:`MetricsSnapshot.to_prometheus`).

Usage::

    registry = MetricsRegistry()
    with registry.activate():
        programs = get_algorithm("generated").build_programs(topology, msize)
        result = run_programs(topology, programs, msize, params)
    print(registry.report().render())
    print(registry.snapshot(sim_time=result.completion_time).to_prometheus())
"""

from __future__ import annotations

import json
import logging
import time
from dataclasses import dataclass, field
from typing import IO, Dict, Iterator, List, Optional, Tuple, Union

from repro._version import __version__
from repro.errors import ReproError, check_schema

#: Version of the metrics-snapshot (``stats``) envelope.  Bump on
#: incompatible change; :func:`load_snapshots` rejects snapshots from
#: the future with a clear error, like the other envelopes.
STATS_SCHEMA_VERSION = 1

Number = Union[int, float]

logger = logging.getLogger("repro.obs.metrics_registry")


class Counter:
    """A monotonically increasing count.

    Hot paths mutate :attr:`value` directly (``c.value += 1``) — the
    :meth:`inc` method exists for the offline layers and tests.
    """

    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value: Number = 0

    def inc(self, n: Number = 1) -> None:
        self.value += n


class Gauge:
    """A point-in-time level (queue depth, flows in flight).

    Hot paths assign :attr:`value` directly.
    """

    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value: Number = 0

    def set(self, v: Number) -> None:
        self.value = v


class Histogram:
    """Power-of-two bucketed distribution.

    Bucket ``i`` counts observations with ``int(v).bit_length() == i``,
    i.e. values in ``[2**(i-1), 2**i - 1]`` (bucket 0 holds ``v <= 0``).
    The exposed upper bound of bucket ``i`` is ``2**i - 1``, so bucket
    boundaries are 0, 1, 3, 7, 15, ... — cheap to compute per
    observation and wide enough for counts spanning six decades.
    """

    __slots__ = ("name", "help", "counts", "sum", "count", "max")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.counts: List[int] = []
        self.sum: float = 0.0
        self.count: int = 0
        self.max: Number = 0

    def observe(self, v: Number) -> None:
        idx = int(v).bit_length() if v > 0 else 0
        counts = self.counts
        if idx >= len(counts):
            counts.extend([0] * (idx + 1 - len(counts)))
        counts[idx] += 1
        self.sum += v
        self.count += 1
        if v > self.max:
            self.max = v

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def buckets(self) -> List[Tuple[Number, int]]:
        """``(upper_bound, cumulative_count)`` pairs, Prometheus-style."""
        out: List[Tuple[Number, int]] = []
        running = 0
        for i, c in enumerate(self.counts):
            running += c
            out.append(((1 << i) - 1, running))
        return out


@dataclass
class SpanRecord:
    """One completed (or still open) span of the pipeline."""

    name: str
    #: Seconds since the registry's epoch (monotonic clock).
    start: float
    #: Span duration in seconds (0.0 while still open).
    duration: float
    #: Nesting depth: 0 for top-level spans.
    depth: int
    counters: Dict[str, Number] = field(default_factory=dict)

    @property
    def duration_ms(self) -> float:
        return self.duration * 1e3

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "start_ms": self.start * 1e3,
            "duration_ms": self.duration_ms,
            "depth": self.depth,
            "counters": dict(self.counters),
        }


@dataclass
class PipelineProfile:
    """The spans one registry recorded, in the order they opened."""

    spans: List[SpanRecord] = field(default_factory=list)

    def span(self, name: str) -> Optional[SpanRecord]:
        """The first span called *name* (None when absent)."""
        for s in self.spans:
            if s.name == name:
                return s
        return None

    def total(self, name: str) -> float:
        """Summed duration (seconds) of every span called *name*."""
        return sum(s.duration for s in self.spans if s.name == name)

    @property
    def wall_time(self) -> float:
        """Seconds from the first span's start to the last span's end."""
        if not self.spans:
            return 0.0
        return max(s.start + s.duration for s in self.spans) - min(
            s.start for s in self.spans
        )

    def as_dicts(self) -> List[Dict[str, object]]:
        """JSON-serialisable span list (ledger / metrics report form)."""
        return [s.as_dict() for s in self.spans]

    def perfetto_events(self, *, pid: int, tid: int = 0) -> List[dict]:
        """Trace Event ``X`` slices for the *pipeline* track.

        Spans are properly nested in time, so complete events on a
        single thread render as a nested flame chart.
        """
        return [
            {
                "name": s.name,
                "cat": "pipeline",
                "ph": "X",
                "ts": s.start * 1e6,
                "dur": s.duration * 1e6,
                "pid": pid,
                "tid": tid,
                "args": dict(s.counters),
            }
            for s in self.spans
        ]

    def render(self) -> str:
        """Terminal flame-style listing, one line per span."""
        lines = []
        for s in self.spans:
            counters = ""
            if s.counters:
                counters = "  " + " ".join(
                    f"{k}={v}" for k, v in sorted(s.counters.items())
                )
            lines.append(
                f"{'  ' * s.depth}{s.name:<{32 - 2 * s.depth}s} "
                f"{s.duration_ms:9.3f} ms{counters}"
            )
        return "\n".join(lines)


class _Span:
    """Context manager for one open span (returned by ``registry.span``)."""

    __slots__ = ("_registry", "_record")

    def __init__(self, registry: "MetricsRegistry", record: SpanRecord):
        self._registry = registry
        self._record = record

    def __enter__(self) -> SpanRecord:
        return self._record

    def __exit__(self, *exc) -> None:
        self._registry._close(self._record)


class _NullContext:
    """Shared no-op context manager: the registry-off fast path."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc) -> None:
        return None


_NULL_CONTEXT = _NullContext()


class MetricsRegistry:
    """Records pipeline spans and metric instruments for one (or more) runs.

    Not thread-safe — the pipeline and the simulator are
    single-threaded.  Instruments are created on first use and persist
    across runs, so one registry can aggregate a whole experiment sweep.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._spans: List[SpanRecord] = []
        self._stack: List[SpanRecord] = []
        self._epoch = time.perf_counter()

    # ------------------------------------------------------------------
    # instrument factories (get-or-create)
    # ------------------------------------------------------------------
    def counter(self, name: str, help: str = "") -> Counter:
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter(name, help)
        return c

    def gauge(self, name: str, help: str = "") -> Gauge:
        g = self._gauges.get(name)
        if g is None:
            g = self._gauges[name] = Gauge(name, help)
        return g

    def histogram(self, name: str, help: str = "") -> Histogram:
        h = self._histograms.get(name)
        if h is None:
            h = self._histograms[name] = Histogram(name, help)
        return h

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------
    def span(self, name: str, **counters: Number) -> _Span:
        """Open a (possibly nested) span named *name*."""
        record = SpanRecord(
            name=name,
            start=time.perf_counter() - self._epoch,
            duration=0.0,
            depth=len(self._stack),
            counters=dict(counters),
        )
        self._spans.append(record)
        self._stack.append(record)
        return _Span(self, record)

    def _close(self, record: SpanRecord) -> None:
        record.duration = time.perf_counter() - self._epoch - record.start
        while self._stack:
            if self._stack.pop() is record:
                break

    def add_counters(self, **counters: Number) -> None:
        """Merge counters into the innermost open span (no-op if none)."""
        if self._stack:
            self._stack[-1].counters.update(counters)

    # ------------------------------------------------------------------
    # activation
    # ------------------------------------------------------------------
    def activate(self) -> "_Activation":
        """Install this registry as the target of the module hooks."""
        return _Activation(self)

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def get(self, name: str) -> Optional[Number]:
        """Current value of a counter or gauge (None when absent)."""
        c = self._counters.get(name)
        if c is not None:
            return c.value
        g = self._gauges.get(name)
        if g is not None:
            return g.value
        return None

    def report(self) -> PipelineProfile:
        """The recorded spans (open spans keep duration 0)."""
        if self._stack:
            logger.warning(
                "span report taken with %d span(s) still open",
                len(self._stack),
            )
        return PipelineProfile(spans=list(self._spans))

    def snapshot(self, **context: Optional[float]) -> "MetricsSnapshot":
        """Freeze the current instrument values into a snapshot.

        Keyword arguments (``sim_time=...``, ``events_per_sec=...``)
        land in the snapshot's :attr:`MetricsSnapshot.monitor` block —
        the live-monitor context the raw instruments cannot derive.
        """
        return MetricsSnapshot(
            wall_time=time.perf_counter() - self._epoch,
            counters={k: c.value for k, c in sorted(self._counters.items())},
            gauges={k: g.value for k, g in sorted(self._gauges.items())},
            histograms={
                k: {
                    "buckets": [[le, n] for le, n in h.buckets()],
                    "sum": h.sum,
                    "count": h.count,
                    "max": h.max,
                }
                for k, h in sorted(self._histograms.items())
            },
            monitor={k: v for k, v in context.items() if v is not None},
        )


@dataclass
class MetricsSnapshot:
    """One frozen view of a registry (also the live-monitor bus event)."""

    #: Seconds since the registry's epoch (monotonic clock).
    wall_time: float = 0.0
    counters: Dict[str, Number] = field(default_factory=dict)
    gauges: Dict[str, Number] = field(default_factory=dict)
    #: name -> {"buckets": [[le, cumulative], ...], "sum", "count", "max"}
    histograms: Dict[str, Dict[str, object]] = field(default_factory=dict)
    #: Live-monitor context (sim_time, events_per_sec, eta_s, ...).
    monitor: Dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        """The schema-versioned ``stats`` envelope."""
        data: Dict[str, object] = {
            "schema": STATS_SCHEMA_VERSION,
            "repro_version": __version__,
            "wall_time_s": self.wall_time,
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {k: dict(v) for k, v in self.histograms.items()},
        }
        if self.monitor:
            data["monitor"] = dict(self.monitor)
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "MetricsSnapshot":
        validate_stats(data)
        return cls(
            wall_time=float(data.get("wall_time_s", 0.0)),  # type: ignore[arg-type]
            counters=dict(data.get("counters", {})),  # type: ignore[arg-type]
            gauges=dict(data.get("gauges", {})),  # type: ignore[arg-type]
            histograms={
                k: dict(v)
                for k, v in data.get("histograms", {}).items()  # type: ignore[union-attr]
            },
            monitor=dict(data.get("monitor", {})),  # type: ignore[arg-type]
        )

    # ------------------------------------------------------------------
    # Prometheus text exposition
    # ------------------------------------------------------------------
    def to_prometheus(self, *, prefix: str = "repro") -> str:
        """Render the snapshot in Prometheus text-exposition format."""
        lines: List[str] = []
        for name, value in self.counters.items():
            metric = _prom_name(name, prefix)
            lines.append(f"# TYPE {metric} counter")
            lines.append(f"{metric} {_prom_value(value)}")
        for name, value in self.gauges.items():
            metric = _prom_name(name, prefix)
            lines.append(f"# TYPE {metric} gauge")
            lines.append(f"{metric} {_prom_value(value)}")
        for name, hist in self.histograms.items():
            metric = _prom_name(name, prefix)
            lines.append(f"# TYPE {metric} histogram")
            count = int(hist.get("count", 0))  # type: ignore[arg-type]
            for le, cumulative in hist.get("buckets", []):  # type: ignore[union-attr]
                lines.append(
                    f'{metric}_bucket{{le="{_prom_value(le)}"}} {cumulative}'
                )
            lines.append(f'{metric}_bucket{{le="+Inf"}} {count}')
            lines.append(f"{metric}_sum {_prom_value(hist.get('sum', 0.0))}")
            lines.append(f"{metric}_count {count}")
        return "\n".join(lines) + "\n"


def _prom_name(name: str, prefix: str) -> str:
    safe = "".join(c if c.isalnum() else "_" for c in name)
    return f"{prefix}_{safe}"


def _prom_value(v: object) -> str:
    if isinstance(v, float) and v.is_integer():
        return str(int(v))
    return str(v)


def validate_stats(data: Dict[str, object]) -> None:
    """Reject a ``stats`` envelope written by a newer repro."""
    check_schema(data, "metrics snapshot", STATS_SCHEMA_VERSION)


def loads_snapshot(text: str) -> MetricsSnapshot:
    """Parse one JSON snapshot object, rejecting future schemas."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ReproError(f"corrupt metrics snapshot: {exc}") from exc
    return MetricsSnapshot.from_dict(data)


def load_snapshots(source: Union[str, IO[str]]) -> List[MetricsSnapshot]:
    """Read a ``--stats-out`` JSONL snapshot stream (path or stream)."""
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as fh:
            return load_snapshots(fh)
    snapshots: List[MetricsSnapshot] = []
    for lineno, line in enumerate(source, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            snapshots.append(loads_snapshot(line))
        except ReproError as exc:
            raise ReproError(f"stats line {lineno}: {exc}") from exc
    return snapshots


class SnapshotWriter:
    """Appends snapshots to a JSONL stream (the ``--stats-out`` sink)."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._fh: Optional[IO[str]] = open(path, "w", encoding="utf-8")

    def write(self, snapshot: MetricsSnapshot) -> None:
        if self._fh is None:
            raise ReproError(f"stats writer for {self.path!r} is closed")
        json.dump(snapshot.as_dict(), self._fh, sort_keys=False)
        self._fh.write("\n")
        self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "SnapshotWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class _Activation:
    __slots__ = ("_registry", "_previous")

    def __init__(self, registry: MetricsRegistry):
        self._registry = registry
        self._previous: Optional[MetricsRegistry] = None

    def __enter__(self) -> MetricsRegistry:
        global _ACTIVE
        self._previous = _ACTIVE
        _ACTIVE = self._registry
        return self._registry

    def __exit__(self, *exc) -> None:
        global _ACTIVE
        _ACTIVE = self._previous


#: The currently active registry; ``None`` keeps instrumentation free.
_ACTIVE: Optional[MetricsRegistry] = None


def active_registry() -> Optional[MetricsRegistry]:
    return _ACTIVE


def pipeline_span(name: str, **counters: Number):
    """Hook for the pipeline stages: a span on the active registry.

    Returns a shared no-op context manager when no registry is active.
    """
    registry = _ACTIVE
    if registry is None:
        return _NULL_CONTEXT
    return registry.span(name, **counters)


def add_counters(**counters: Number) -> None:
    """Hook: attach counters to the active registry's innermost span."""
    registry = _ACTIVE
    if registry is not None:
        registry.add_counters(**counters)


def metric_inc(name: str, n: Number = 1) -> None:
    """Hook for the offline layers: bump a counter if a registry is on."""
    registry = _ACTIVE
    if registry is not None:
        registry.counter(name).value += n


def metric_observe(name: str, v: Number) -> None:
    """Hook for the offline layers: record a histogram observation."""
    registry = _ACTIVE
    if registry is not None:
        registry.histogram(name).observe(v)


def iter_hot_metric_names() -> Iterator[str]:
    """The instrument names the built-in hot layers register.

    Documentation keys off this list; it is advisory (a registry may
    hold more).
    """
    yield from (
        "engine.events_total",
        "engine.queue_depth",
        "engine.event_batch_size",
        "network.resolves_total",
        "network.flow_set_changes",
        "network.resolve_touched",
        "network.waterfill_iterations",
        "network.saturated_links",
        "network.flows_in_flight",
        "network.component_flows",
        "network.full_resolves",
        "network.flow_pool_reuses",
        "mpi.syncs_posted",
        "mpi.syncs_retired",
        "mpi.retransmits",
        "scheduler.phase_partition_attempts",
        "scheduler.backtracks",
        "scheduler.matching_size",
        "scheduler.pair_repacks",
        "scheduler.pairs_repacked",
        "repair.repairs_attempted",
        "repair.repairs_succeeded",
        "repair.phases_rewritten",
        "repair.pairs_rescheduled",
    )
