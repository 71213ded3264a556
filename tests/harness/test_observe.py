"""One observed run: build + simulate + analyses, and its ledger entry."""

import json

import pytest

from repro.algorithms import get_algorithm
from repro.errors import ReproError
from repro.harness.observation import observe
from repro.obs.ledger import AlgorithmEntry
from repro.sim.executor import run_programs
from repro.topology.builder import chain_of_switches
from repro.units import kib


@pytest.fixture(scope="module")
def two_switch():
    return chain_of_switches([3, 3])


@pytest.fixture(scope="module")
def scheduled_run(two_switch):
    from repro.sim.params import NetworkParams

    return observe(
        two_switch, get_algorithm("scheduled"), kib(64),
        NetworkParams().without_noise(),
    )


class TestObservedRun:
    def test_same_completion_as_a_plain_run(self, two_switch, quiet_params):
        """Instrumentation observes; it never changes the simulated run."""
        algorithm = get_algorithm("scheduled")
        run = observe(two_switch, algorithm, kib(64), quiet_params)
        programs = algorithm.build_programs(two_switch, kib(64))
        plain = run_programs(two_switch, programs, kib(64), quiet_params)
        assert run.result.completion_time == plain.completion_time

    def test_analyses_attached_to_the_telemetry(self, scheduled_run):
        telemetry = scheduled_run.telemetry
        assert scheduled_run.unavailable == {}
        assert scheduled_run.require("attribution") is scheduled_run.attribution
        assert scheduled_run.require("audit").clean
        assert telemetry.pipeline is scheduled_run.pipeline
        assert telemetry.pipeline.spans
        assert telemetry.causal is not None
        metrics = json.loads(json.dumps(telemetry.metrics_dict()))
        for block in ("phase_windows", "attribution", "phase_audit",
                      "pipeline", "stats"):
            assert block in metrics, block

    def test_ledger_entry_round_trips(self, scheduled_run):
        entry = scheduled_run.ledger_entry()
        back = AlgorithmEntry.from_dict(json.loads(json.dumps(entry.as_dict())))
        assert back.completion_time_ms == pytest.approx(
            scheduled_run.result.completion_time * 1e3
        )
        assert back.scheduler_runtime_ms > 0
        # The flight recorder slows the engine: no comparable wall clock.
        assert back.sim_wall_ms is None
        assert back.telemetry["contention_free_verified"] is True
        assert back.attribution["dominant_component"]
        assert "critical_path" not in back.attribution
        assert back.phase_audit["clean"] is True
        assert back.stats["counters"]["engine.events_total"] > 0

    def test_without_telemetry_analyses_are_unavailable(
        self, two_switch, quiet_params
    ):
        run = observe(
            two_switch, get_algorithm("lam"), kib(16), quiet_params,
            telemetry=False,
        )
        assert run.telemetry is None
        assert run.result.stats is not None  # the registry still ran
        with pytest.raises(ReproError, match="not recorded with telemetry"):
            run.require("audit")
        entry = run.ledger_entry()
        assert entry.telemetry is None and entry.phase_audit is None
        assert entry.sim_wall_ms > 0

    def test_only_the_requested_analyses_run(self, two_switch, quiet_params):
        run = observe(
            two_switch, get_algorithm("scheduled"), kib(16), quiet_params,
            analyses=("audit",),
        )
        assert run.audit is not None and run.attribution is None
        assert run.telemetry.causal is None
        with pytest.raises(ReproError, match="did not ask for it"):
            run.require("attribution")

    def test_trace_only_run_skips_the_flight_recorder(
        self, two_switch, quiet_params
    ):
        run = observe(
            two_switch, get_algorithm("scheduled"), kib(16), quiet_params,
            telemetry=False, trace=True,
        )
        assert run.telemetry is None
        assert run.result.trace is not None and len(run.result.trace) > 0

    def test_capped_trace_names_why_attribution_is_missing(
        self, two_switch, quiet_params
    ):
        run = observe(
            two_switch, get_algorithm("lam"), kib(16), quiet_params,
            max_trace_records=20,
        )
        assert run.attribution is None
        assert "attribution" in run.unavailable
        with pytest.raises(ReproError, match="attribution unavailable"):
            run.require("attribution")
        # The phase audit reads flows, which are never capped.
        assert run.audit is not None


class TestRecordContract:
    """What one observed run of the paper's routine records: the span
    timeline of the offline pipeline and the ``stats`` instrument keys
    of the build plus the simulation, in the ledger's schema 1."""

    @pytest.fixture(scope="class")
    def run(self):
        from repro.sim.params import NetworkParams
        from repro.topology.builder import topology_b

        return observe(
            topology_b(), get_algorithm("generated"), kib(64),
            NetworkParams(seed=0),
        )

    def test_pipeline_spans_in_order(self, run):
        assert [s.name for s in run.pipeline.spans] == [
            "schedule_aapc",
            "root_identification",
            "global_schedule",
            "phase_partitioning",
            "verify_schedule",
            "sync_plan",
            "dependence_graph",
            "transitive_reduction",
            "program_emission",
        ]
        entry = run.ledger_entry().as_dict()
        assert entry["pipeline"] == run.pipeline.as_dicts()
        assert set(entry["pipeline"][0]) == {
            "name", "start_ms", "duration_ms", "depth", "counters",
        }

    def test_stats_instrument_keys(self, run):
        stats = run.result.stats
        assert sorted(stats["counters"]) == [
            "engine.events_total",
            "mpi.retransmits",
            "mpi.syncs_posted",
            "mpi.syncs_retired",
            "network.flow_pool_reuses",
            "network.flow_set_changes",
            "network.full_resolves",
            "network.resolves_total",
            "scheduler.phase_partition_attempts",
        ]
        assert sorted(stats["histograms"]) == [
            "engine.event_batch_size",
            "network.component_flows",
            "network.resolve_touched",
            "network.saturated_links",
            "network.waterfill_iterations",
        ]

    def test_schema_versions(self):
        from repro.obs.ledger import LEDGER_SCHEMA_VERSION
        from repro.obs.metrics_registry import STATS_SCHEMA_VERSION

        assert LEDGER_SCHEMA_VERSION == 1
        assert STATS_SCHEMA_VERSION == 1
