"""Hot-path metrics registry: instruments, snapshots, exposition.

Covers the conservation contracts the acceptance criteria name (the
registry's ``engine.events_total`` equals the engine's own event count;
``network.resolves_total`` never undercounts flow-set changes, and a
flow that starts alone is rated without one), the
schema-versioned snapshot round-trip, Prometheus text exposition, and —
the whole point of the design — that the *disabled* path allocates
nothing from the metrics module inside the event loop.
"""

from __future__ import annotations

import io
import json
import time
import tracemalloc

import pytest

from repro.algorithms import get_algorithm
from repro.errors import ReproError
from repro.obs.metrics_registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    MetricsSnapshot,
    SnapshotWriter,
    STATS_SCHEMA_VERSION,
    active_registry,
    iter_hot_metric_names,
    load_snapshots,
    loads_snapshot,
    metric_inc,
    metric_observe,
    validate_stats,
)
from repro.sim.engine import Engine
from repro.sim.executor import run_programs
from repro.sim.network import FlowNetwork
from repro.topology.builder import paper_example_cluster, star_of_switches


class TestInstruments:
    def test_counter_inc_and_direct_mutation(self):
        c = Counter("x")
        c.inc()
        c.inc(4)
        c.value += 1
        assert c.value == 6

    def test_gauge_set(self):
        g = Gauge("depth")
        g.set(7)
        assert g.value == 7
        g.value = 3
        assert g.value == 3

    def test_histogram_power_of_two_buckets(self):
        h = Histogram("sizes")
        for v in (0, 1, 2, 3, 4, 100):
            h.observe(v)
        # bucket upper bounds are 2**i - 1: 0, 1, 3, 7, ...
        buckets = dict(h.buckets())
        assert buckets[0] == 1  # the 0 observation
        assert buckets[1] == 2  # cumulative: 0, 1
        assert buckets[3] == 4  # + 2, 3
        assert buckets[7] == 5  # + 4
        assert h.count == 6
        assert h.max == 100
        assert h.sum == 110
        assert h.mean == pytest.approx(110 / 6)

    def test_get_reads_counters_and_gauges(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(2)
        registry.gauge("g").set(9)
        assert registry.get("c") == 2
        assert registry.get("g") == 9
        assert registry.get("missing") is None


class TestActivation:
    def test_nested_activation_restores_previous(self):
        outer, inner = MetricsRegistry(), MetricsRegistry()
        assert active_registry() is None
        with outer.activate():
            assert active_registry() is outer
            with inner.activate():
                assert active_registry() is inner
            assert active_registry() is outer
        assert active_registry() is None

    def test_module_hooks_are_noops_when_off(self):
        metric_inc("scheduler.backtracks")
        metric_observe("scheduler.matching_size", 3)
        assert active_registry() is None

    def test_module_hooks_record_when_on(self):
        registry = MetricsRegistry()
        with registry.activate():
            metric_inc("a", 2)
            metric_observe("b", 5)
        assert registry.get("a") == 2
        snap = registry.snapshot()
        assert snap.histograms["b"]["count"] == 1


class TestSnapshotRoundTrip:
    def _populated(self) -> MetricsRegistry:
        registry = MetricsRegistry()
        registry.counter("engine.events_total", "events").inc(42)
        registry.gauge("engine.queue_depth").set(5)
        h = registry.histogram("engine.event_batch_size")
        for v in (1, 2, 8):
            h.observe(v)
        return registry

    def test_as_dict_from_dict_round_trip(self):
        snap = self._populated().snapshot(sim_time=1.5, events_per_sec=100.0)
        data = snap.as_dict()
        assert data["schema"] == STATS_SCHEMA_VERSION
        back = MetricsSnapshot.from_dict(json.loads(json.dumps(data)))
        assert back.counters == snap.counters
        assert back.gauges == snap.gauges
        assert back.monitor == {"sim_time": 1.5, "events_per_sec": 100.0}
        assert back.histograms["engine.event_batch_size"]["count"] == 3

    def test_none_context_values_are_dropped(self):
        snap = MetricsRegistry().snapshot(sim_time=2.0, eta_s=None)
        assert snap.monitor == {"sim_time": 2.0}

    def test_future_schema_rejected(self):
        data = self._populated().snapshot().as_dict()
        data["schema"] = STATS_SCHEMA_VERSION + 1
        with pytest.raises(ReproError, match="upgrade repro"):
            validate_stats(data)
        with pytest.raises(ReproError, match="upgrade repro"):
            loads_snapshot(json.dumps(data))

    def test_invalid_schema_rejected(self):
        with pytest.raises(ReproError, match="invalid schema"):
            validate_stats({"schema": "two"})
        with pytest.raises(ReproError, match="JSON object"):
            loads_snapshot("[1, 2]")
        with pytest.raises(ReproError, match="corrupt"):
            loads_snapshot("{nope")

    def test_writer_and_loader_round_trip(self, tmp_path):
        path = str(tmp_path / "stats.jsonl")
        registry = self._populated()
        with SnapshotWriter(path) as writer:
            writer.write(registry.snapshot(sim_time=0.5))
            writer.write(registry.snapshot(sim_time=1.0))
        snapshots = load_snapshots(path)
        assert len(snapshots) == 2
        assert snapshots[0].monitor["sim_time"] == 0.5
        assert snapshots[1].counters["engine.events_total"] == 42

    def test_closed_writer_refuses(self, tmp_path):
        writer = SnapshotWriter(str(tmp_path / "s.jsonl"))
        writer.close()
        with pytest.raises(ReproError, match="closed"):
            writer.write(MetricsSnapshot())

    def test_loader_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        good = json.dumps(MetricsSnapshot().as_dict())
        path.write_text(good + "\n{broken\n", encoding="utf-8")
        with pytest.raises(ReproError, match="stats line 2"):
            load_snapshots(str(path))

    def test_load_snapshots_from_stream(self):
        text = json.dumps(MetricsSnapshot(wall_time=3.0).as_dict()) + "\n\n"
        snapshots = load_snapshots(io.StringIO(text))
        assert len(snapshots) == 1
        assert snapshots[0].wall_time == 3.0


class TestPrometheus:
    def test_exposition_format(self):
        registry = MetricsRegistry()
        registry.counter("engine.events_total").inc(10)
        registry.gauge("network.flows_in_flight").set(4)
        h = registry.histogram("network.waterfill_iterations")
        h.observe(1)
        h.observe(3)
        text = registry.snapshot().to_prometheus()
        assert "# TYPE repro_engine_events_total counter" in text
        assert "repro_engine_events_total 10" in text
        assert "# TYPE repro_network_flows_in_flight gauge" in text
        assert "repro_network_flows_in_flight 4" in text
        assert '# TYPE repro_network_waterfill_iterations histogram' in text
        assert 'repro_network_waterfill_iterations_bucket{le="+Inf"} 2' in text
        assert "repro_network_waterfill_iterations_sum 4" in text
        assert "repro_network_waterfill_iterations_count 2" in text

    def test_bucket_counts_are_cumulative(self):
        registry = MetricsRegistry()
        h = registry.histogram("h")
        for v in (1, 1, 2):
            h.observe(v)
        text = registry.snapshot().to_prometheus()
        assert 'repro_h_bucket{le="1"} 2' in text
        assert 'repro_h_bucket{le="3"} 3' in text

    def test_values_parse_back(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(3)
        for line in registry.snapshot().to_prometheus().splitlines():
            if line.startswith("#") or not line:
                continue
            name, value = line.rsplit(" ", 1)
            float(value)  # every sample line ends in a number


# Two topologies x two algorithms, per the acceptance criteria.
_TOPOLOGIES = {
    "fig1": paper_example_cluster,
    "star": lambda: star_of_switches([3, 2, 2]),
}


@pytest.mark.parametrize("topo_name", sorted(_TOPOLOGIES))
@pytest.mark.parametrize("algo_name", ["lam", "generated"])
class TestConservation:
    def test_counters_match_engine_and_network(
        self, topo_name, algo_name, quiet_params, monkeypatch
    ):
        lone_starts = []
        start_lone = FlowNetwork._start_lone

        def counting(net, flow, now):
            lone_starts.append(flow.fid)
            start_lone(net, flow, now)

        monkeypatch.setattr(FlowNetwork, "_start_lone", counting)
        topo = _TOPOLOGIES[topo_name]()
        algorithm = get_algorithm(algo_name)
        registry = MetricsRegistry()
        with registry.activate():
            programs = algorithm.build_programs(topo, 16384)
            result = run_programs(topo, programs, 16384, quiet_params)
        # The counter increments alongside the engine's own count, so
        # the two must agree exactly.
        assert registry.get("engine.events_total") == result.events_processed
        # A flow that starts on idle edges is rated at once and dirties
        # nothing; every other flow-set change dirties the network, and
        # every dirty settle re-solves, so resolves can only exceed
        # changes.
        resolves = registry.get("network.resolves_total")
        changes = registry.get("network.flow_set_changes")
        assert resolves is not None and changes is not None
        assert changes + len(lone_starts) > 0
        assert resolves >= changes
        if algo_name == "lam":
            assert changes > 0
        else:
            # Contention-free: every flow starts and finishes alone, so
            # nothing ever dirties the network.
            assert result.max_edge_multiplexing == 1
            assert lone_starts and changes == 0 and resolves == 0
        if algo_name == "generated":
            # Pairwise syncs all retire in a fault-free run.
            assert registry.get("mpi.syncs_posted") == registry.get(
                "mpi.syncs_retired"
            )
            assert registry.get("mpi.syncs_posted") > 0


class TestDisabledPath:
    def test_engine_holds_no_handles_without_registry(self):
        engine = Engine()
        assert engine._m_events is None
        assert engine._m_queue is None
        assert engine._m_batch is None

    def test_event_loop_allocates_nothing_from_metrics_module(self):
        """With no registry the loop must never touch this subsystem."""
        engine = Engine()

        def noop() -> None:
            pass

        for i in range(2000):
            engine.schedule(i * 1e-6, noop)
        tracemalloc.start()
        try:
            engine.run()
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        offenders = snapshot.filter_traces(
            [tracemalloc.Filter(True, "*metrics_registry*")]
        ).statistics("filename")
        assert offenders == []
        assert engine.events_processed == 2000

    @pytest.mark.slow
    def test_disabled_loop_ns_per_event_budget(self):
        """Generous ceiling on the off-path event cost (CI overhead gate).

        The disabled path is one attribute load plus an ``is None``
        test per event; 10 microseconds/event is two orders of
        magnitude of slack over what that costs, so only a real
        regression (accidental allocation, dict lookup per event)
        trips it.
        """
        engine = Engine()

        def noop() -> None:
            pass

        n = 100_000
        for i in range(n):
            engine.schedule(i * 1e-9, noop)
        t0 = time.perf_counter_ns()
        engine.run()
        elapsed = time.perf_counter_ns() - t0
        assert engine.events_processed == n
        assert elapsed / n < 10_000, f"{elapsed / n:.0f} ns/event"


def test_hot_metric_names_cover_run_instruments(quiet_params):
    """Every instrument a plain run registers is in the advisory list."""
    topo = paper_example_cluster()
    algorithm = get_algorithm("generated")
    registry = MetricsRegistry()
    with registry.activate():
        programs = algorithm.build_programs(topo, 16384)
        run_programs(topo, programs, 16384, quiet_params)
    snap = registry.snapshot()
    known = set(iter_hot_metric_names())
    registered = (
        set(snap.counters) | set(snap.gauges) | set(snap.histograms)
    )
    assert registered <= known
    assert "engine.events_total" in registered


def test_hot_metric_names_are_documented():
    """The instrument table in docs/observability.md names every
    instrument of :func:`iter_hot_metric_names`."""
    import pathlib

    docs = pathlib.Path(__file__).resolve().parents[2] / "docs"
    text = (docs / "observability.md").read_text(encoding="utf-8")
    missing = [n for n in iter_hot_metric_names() if f"`{n}`" not in text]
    assert not missing, f"undocumented instruments: {missing}"
