"""Tests for workloads, metrics, runner and report rendering."""

import pytest

from repro.algorithms import BruckAlltoall, GeneratedAlltoall, LamAlltoall
from repro.errors import ReproError
from repro.harness.metrics import (
    aggregate_throughput_mbps,
    completion_stats,
    peak_throughput_mbps,
    speedup,
)
from repro.harness.report import (
    completion_table,
    render_throughput_series,
    speedup_summary,
    throughput_table,
)
from repro.harness.runner import run_experiment
from repro.harness.workloads import (
    PAPER_MESSAGE_SIZES,
    Workload,
    message_size_sweep,
)
from repro.topology.builder import single_switch, topology_a
from repro.units import kib, mbps


class TestWorkloads:
    def test_paper_sizes(self):
        assert PAPER_MESSAGE_SIZES == (
            kib(8), kib(16), kib(32), kib(64), kib(128), kib(256)
        )

    def test_sweep(self):
        sweep = message_size_sweep([kib(8), kib(16)], repetitions=2, seed=5)
        assert [w.msize for w in sweep] == [kib(8), kib(16)]
        assert sweep[0].seeds() == [5, 6]

    def test_default_repetitions_match_paper(self):
        assert Workload(msize=1).repetitions == 3

    def test_workload_needs_a_repetition(self):
        with pytest.raises(ReproError, match="got 0"):
            Workload(msize=1, repetitions=0)


class TestMetrics:
    def test_aggregate_throughput(self):
        # 4 ranks, 1 MB messages, 1 second: 12 MB/s = 96 Mbps
        assert aggregate_throughput_mbps(4, 10**6, 1.0) == pytest.approx(96.0)

    def test_throughput_requires_positive_time(self):
        with pytest.raises(ReproError):
            aggregate_throughput_mbps(4, 10**6, 0.0)

    def test_peak_throughput_topology_a(self):
        assert peak_throughput_mbps(topology_a(), mbps(100)) == pytest.approx(2400.0)

    def test_speedup_paper_convention(self):
        """468.8 ms vs 217.7 ms is the paper's '115% over LAM'."""
        assert speedup(468.8, 217.7) == pytest.approx(115.0, abs=0.5)

    def test_completion_stats(self):
        mean, lo, hi = completion_stats([1.0, 2.0, 3.0])
        assert (mean, lo, hi) == (2.0, 1.0, 3.0)
        with pytest.raises(ReproError):
            completion_stats([])


@pytest.fixture(scope="module")
def small_result():
    topo = single_switch(4)
    return run_experiment(
        "unit",
        topo,
        [LamAlltoall(), GeneratedAlltoall()],
        message_size_sweep([kib(8), kib(64)], repetitions=2),
    )


class TestRunner:
    def test_grid_complete(self, small_result):
        assert small_result.algorithms() == ["lam", "generated"]
        assert small_result.sizes() == [kib(8), kib(64)]
        assert len(small_result.points) == 4

    def test_cell_lookup(self, small_result):
        cell = small_result.cell("lam", kib(8))
        assert cell.mean_time > 0
        assert len(cell.samples) == 2
        assert cell.min_time <= cell.mean_time <= cell.max_time

    def test_missing_cell(self, small_result):
        with pytest.raises(ReproError):
            small_result.cell("lam", 1)

    def test_series(self, small_result):
        series = small_result.series("generated")
        assert [s for s, _ in series] == [kib(8), kib(64)]

    def test_throughput_filled(self, small_result):
        cell = small_result.cell("generated", kib(64))
        expected = aggregate_throughput_mbps(4, kib(64), cell.mean_time)
        assert cell.throughput_mbps == pytest.approx(expected)

    def test_one_rank_cluster_has_zero_throughput(self):
        result = run_experiment(
            "one", single_switch(1), [BruckAlltoall()],
            [Workload(msize=kib(1), repetitions=1)],
        )
        assert result.points[0].mean_time == 0.0
        assert result.points[0].throughput_mbps == 0.0

    def test_variant_recorded(self, small_result):
        assert "generated" in small_result.cell("generated", kib(8)).variant


class TestReport:
    def test_completion_table(self, small_result):
        text = completion_table(small_result)
        assert "8KB" in text and "64KB" in text
        assert "lam" in text and "generated" in text
        assert "ms" in text

    def test_completion_table_with_reference(self, small_result):
        ref = {"lam": {kib(8): 12.3}}
        text = completion_table(small_result, reference=ref)
        assert "12.3" in text and "paper" in text

    def test_throughput_table_includes_peak(self, small_result):
        text = throughput_table(small_result)
        # single switch of 4: peak = 4*3*100/3 = 400 Mbps
        assert "400.0Mb" in text

    def test_series_render(self, small_result):
        text = render_throughput_series(small_result)
        assert "peak" in text and "#" in text

    def test_speedup_summary(self, small_result):
        text = speedup_summary(small_result)
        assert "vs lam" in text and "%" in text


class TestAttributionSweep:
    """Instrumented sweeps report which gap component dominates per size."""

    @pytest.fixture(scope="class")
    def instrumented(self):
        from repro.topology.builder import chain_of_switches

        return run_experiment(
            "unit-attr",
            chain_of_switches([2, 2]),
            [LamAlltoall(), GeneratedAlltoall()],
            message_size_sweep([kib(4), kib(64)], repetitions=1),
            telemetry=True,
        )

    def test_every_cell_carries_attribution(self, instrumented):
        from repro.obs.attribution import GAP_COMPONENTS

        for point in instrumented.points:
            assert point.attribution is not None
            assert point.dominant_component in GAP_COMPONENTS
            assert "critical_path" not in point.attribution

    def test_naive_flips_to_contention_at_large_sizes(self, instrumented):
        assert (
            instrumented.cell("lam", kib(64)).dominant_component
            == "contention"
        )
        assert (
            instrumented.cell("generated", kib(64)).dominant_component
            != "contention"
        )

    def test_attribution_table_renders_per_size(self, instrumented):
        from repro.harness.report import attribution_table

        text = attribution_table(instrumented)
        assert "dominant gap component" in text
        assert "4KB" in text and "64KB" in text
        assert "contention" in text

    def test_uninstrumented_cells_render_as_dashes(self, small_result):
        from repro.harness.report import attribution_table

        text = attribution_table(small_result)
        assert "--" in text
        assert small_result.points[0].attribution is None
        assert small_result.points[0].dominant_component is None


class TestPhaseAuditSweep:
    """Instrumented sweeps carry the phase observatory's verdict."""

    @pytest.fixture(scope="class")
    def instrumented(self):
        from repro.topology.builder import chain_of_switches

        from repro.sim.params import NetworkParams

        return run_experiment(
            "unit-phase",
            chain_of_switches([3, 3]),
            [LamAlltoall(), GeneratedAlltoall()],
            message_size_sweep([kib(64)], repetitions=1),
            NetworkParams().without_noise(),
            telemetry=True,
        )

    def test_scheduled_cell_is_clean(self, instrumented):
        point = instrumented.cell("generated", kib(64))
        assert point.phase_audit is not None
        assert point.phase_audit["clean"] is True
        assert point.phase_audit["violations"] == 0
        assert point.worst_phase_divergence == 0.0

    def test_naive_cell_shows_contention(self, instrumented):
        point = instrumented.cell("lam", kib(64))
        assert point.phase_audit is not None
        assert point.phase_audit["clean"] is False
        assert point.phase_audit["contention_events"] > 0

    def test_phase_audit_table_renders(self, instrumented):
        from repro.harness.report import phase_audit_table

        text = phase_audit_table(instrumented)
        assert "phase audit" in text
        assert "ok 0.0%" in text
        assert "contended" in text

    def test_uninstrumented_cells_have_no_audit(self, small_result):
        from repro.harness.report import phase_audit_table

        assert small_result.points[0].phase_audit is None
        assert small_result.points[0].worst_phase_divergence is None
        assert "--" in phase_audit_table(small_result)
