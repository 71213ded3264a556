"""Tests for the command-line interface."""

import logging

import pytest

from repro.cli import main
from repro.topology.builder import paper_example_cluster
from repro.topology.serialization import dumps_topology


@pytest.fixture
def topo_file(tmp_path):
    path = tmp_path / "fig1.topo"
    path.write_text(dumps_topology(paper_example_cluster()))
    return str(path)


class TestAnalyze:
    def test_builtin(self, capsys):
        assert main(["analyze", "fig1"]) == 0
        out = capsys.readouterr().out
        assert "machines: 6" in out
        assert "AAPC load (bottleneck): 9" in out
        assert "333.3 Mbps" in out

    def test_topology_file(self, topo_file, capsys):
        assert main(["analyze", topo_file]) == 0
        assert "machines: 6" in capsys.readouterr().out

    def test_topology_a_peak(self, capsys):
        assert main(["analyze", "a"]) == 0
        assert "2400.0 Mbps" in capsys.readouterr().out


class TestSchedule:
    def test_table4_output(self, capsys):
        assert main(["schedule", "fig1", "--root", "s1"]) == 0
        out = capsys.readouterr().out
        assert "phases: 9" in out
        assert "root: s1" in out
        assert "G:n0->n4" in out  # phase 0 of Table 4

    def test_json_export(self, tmp_path, capsys):
        from repro.core.schedule_io import load_schedule
        from repro.core.verify import verify_schedule

        path = str(tmp_path / "fig1-schedule.json")
        assert main(["schedule", "fig1", "--root", "s1", "--json", path]) == 0
        schedule = load_schedule(path)
        verify_schedule(schedule)
        assert schedule.num_phases == 9

    def test_sync_listing(self, capsys):
        assert main(["schedule", "fig1", "--root", "s1", "--syncs"]) == 0
        out = capsys.readouterr().out
        assert "sync messages:" in out
        assert "sync[" in out


class TestCodegen:
    def test_stdout(self, capsys):
        assert main(["codegen", "fig1"]) == 0
        out = capsys.readouterr().out
        assert "MPI_Isend" in out and "Alltoall_generated" in out

    def test_to_file(self, tmp_path, capsys):
        out_path = str(tmp_path / "alltoall.c")
        assert main(["codegen", "fig1", "-o", out_path]) == 0
        with open(out_path) as fh:
            assert "MPI_Waitall" in fh.read()


class TestSimulate:
    def test_default_algorithms(self, capsys):
        assert main(["simulate", "fig1", "--msize", "64KB"]) == 0
        out = capsys.readouterr().out
        assert "lam" in out and "generated" in out and "ms" in out

    def test_single_algorithm(self, capsys):
        assert main(
            ["simulate", "fig1", "--msize", "8KB", "--algorithms", "bruck"]
        ) == 0
        assert "bruck" in capsys.readouterr().out

    def test_topology_flag_and_algorithm_flag(self, capsys):
        assert main(
            ["simulate", "--topology", "fig1", "--algorithm", "scheduled",
             "--msize", "64KB"]
        ) == 0
        out = capsys.readouterr().out
        # "scheduled" aliases the generated routine; exactly one row.
        assert "generated" in out
        assert len(out.strip().splitlines()) == 1
        assert "max link multiplexing 1" in out

    def test_missing_topology_rejected(self, capsys):
        assert main(["simulate", "--msize", "64KB"]) == 2
        assert "topology" in capsys.readouterr().err

    def test_trace_and_metrics_out(self, tmp_path, capsys):
        import json

        trace_path = str(tmp_path / "t.json")
        metrics_path = str(tmp_path / "m.json")
        assert main(
            ["simulate", "--algorithm", "scheduled", "--topology", "fig1",
             "--msize", "64KB", "--trace-out", trace_path,
             "--metrics-out", metrics_path]
        ) == 0
        with open(trace_path) as fh:
            trace = json.load(fh)
        assert trace["traceEvents"]
        with open(metrics_path) as fh:
            metrics = json.load(fh)
        assert metrics["contention_free_verified"] is True
        assert metrics["total_contention_events"] == 0
        assert metrics["completion_time_ms"] > 0

    def test_contention_contrast_scheduled_vs_lam(self, tmp_path, capsys):
        """Acceptance: per-link contention-event count is 0 for the
        scheduled algorithm and nonzero for LAM on the same topology."""
        import json

        counts = {}
        for name in ("scheduled", "lam"):
            path = str(tmp_path / f"{name}.json")
            assert main(
                ["simulate", "--algorithm", name, "--topology", "fig1",
                 "--msize", "64KB", "--metrics-out", path]
            ) == 0
            with open(path) as fh:
                counts[name] = json.load(fh)["total_contention_events"]
        assert counts["scheduled"] == 0
        assert counts["lam"] > 0

    def test_multi_algorithm_metrics_get_derived_paths(self, tmp_path):
        import json
        import os

        base = str(tmp_path / "m.json")
        assert main(
            ["simulate", "fig1", "--msize", "64KB",
             "--algorithms", "lam", "generated", "--metrics-out", base]
        ) == 0
        for name in ("lam", "generated"):
            derived = str(tmp_path / f"m-{name}.json")
            assert os.path.exists(derived), derived
            with open(derived) as fh:
                assert "total_contention_events" in json.load(fh)


class TestTraceCommand:
    def test_writes_perfetto_and_summary(self, tmp_path, capsys):
        import json

        out_path = str(tmp_path / "trace.json")
        assert main(
            ["trace", "fig1", "--msize", "64KB", "-o", out_path, "--phases"]
        ) == 0
        out = capsys.readouterr().out
        assert "contention" in out
        assert "phase" in out
        assert out_path in out
        with open(out_path) as fh:
            trace = json.load(fh)
        phs = {e["ph"] for e in trace["traceEvents"]}
        assert {"M", "i", "X", "C", "b", "e"} <= phs

    def test_metrics_out(self, tmp_path, capsys):
        import json

        out_path = str(tmp_path / "trace.json")
        metrics_path = str(tmp_path / "metrics.json")
        assert main(
            ["trace", "fig1", "--algorithm", "lam", "--msize", "64KB",
             "-o", out_path, "--metrics-out", metrics_path]
        ) == 0
        with open(metrics_path) as fh:
            metrics = json.load(fh)
        assert metrics["contention_free_verified"] is False
        assert metrics["total_contention_events"] > 0
        assert "links" in metrics and "phase_windows" in metrics


class TestStp:
    @pytest.fixture
    def wiring_file(self, tmp_path):
        path = tmp_path / "wiring.phys"
        path.write_text(
            "switch core priority=4096\n"
            "switch leaf1\nswitch leaf2\n"
            "machine n0 leaf1\nmachine n1 leaf2\nmachine n2 core\n"
            "trunk core leaf1\ntrunk core leaf2\ntrunk leaf1 leaf2\n"
        )
        return str(path)

    def test_blocks_redundant_link(self, wiring_file, capsys):
        assert main(["stp", wiring_file]) == 0
        out = capsys.readouterr().out
        assert "root bridge: core" in out
        assert "BLOCKED leaf1 <-> leaf2" in out

    def test_writes_forwarding_topology(self, wiring_file, tmp_path, capsys):
        out_path = str(tmp_path / "fwd.topo")
        assert main(["stp", wiring_file, "-o", out_path]) == 0
        from repro.topology.serialization import load_topology

        topo = load_topology(out_path)
        assert topo.num_machines == 3


class TestGantt:
    def test_timeline(self, capsys):
        assert main(
            ["gantt", "fig1", "--msize", "64KB", "--ranks", "3", "--phases"]
        ) == 0
        out = capsys.readouterr().out
        assert "max link multiplexing 1" in out
        assert "n0 |" in out
        assert "phase" in out


class TestInspect:
    def test_lam_hotspots(self, capsys):
        assert main(["inspect", "fig1", "--algorithm", "lam"]) == 0
        out = capsys.readouterr().out
        assert "max per-phase edge concurrency: 9" in out
        assert "hotspots" in out

    def test_generated_clean(self, capsys):
        assert main(["inspect", "fig1", "--algorithm", "generated"]) == 0
        out = capsys.readouterr().out
        assert "max per-phase edge concurrency: 1" in out


class TestCampaign:
    def test_small_campaign(self, capsys):
        assert main(
            ["campaign", "--topologies", "2", "--msize", "64KB",
             "--repetitions", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "win rate" in out
        assert "speedup vs lam" in out


class TestRepro:
    def test_unknown_experiment(self, capsys):
        assert main(["repro", "nope"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_small_repro_run(self, capsys):
        code = main(
            ["repro", "topology-a", "--sizes", "8KB", "--repetitions", "1", "--plot"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "topology-a" in out
        assert "paper's measured milliseconds" in out
        assert "speedups" in out
        assert "peak = 2400.0" in out

    def test_metrics_out(self, tmp_path, capsys):
        import json

        path = str(tmp_path / "repro.json")
        code = main(
            ["repro", "topology-a", "--sizes", "64KB", "--repetitions", "1",
             "--metrics-out", path]
        )
        assert code == 0
        with open(path) as fh:
            payload = json.load(fh)
        assert payload["experiment"] == "topology-a"
        cells = payload["cells"]
        assert cells
        by_alg = {c["algorithm"]: c for c in cells}
        assert by_alg["generated"]["link_stats"]["contention_free_verified"]
        assert not by_alg["lam"]["link_stats"]["contention_free_verified"]
        assert all(c["mean_time_ms"] > 0 for c in cells)


class TestLedgerIntegration:
    def test_simulate_appends_schema_versioned_record(self, tmp_path, capsys):
        from repro.obs.ledger import LEDGER_SCHEMA_VERSION, RunLedger

        directory = str(tmp_path / "led")
        assert main(
            ["simulate", "fig1", "--msize", "8KB", "--ledger-dir", directory]
        ) == 0
        (record,) = RunLedger(directory).records()
        assert record.schema == LEDGER_SCHEMA_VERSION
        assert record.command == "simulate"
        assert record.topology_spec == "fig1"
        assert record.num_machines == 6
        assert record.msize == 8 * 1024
        assert set(record.algorithms) == {"lam", "mpich", "generated"}
        generated = record.algorithms["generated"]
        assert generated.completion_time_ms > 0
        assert generated.scheduler_runtime_ms > 0
        assert generated.pipeline  # profiler spans recorded
        assert any(
            s["name"] == "schedule_aapc" for s in generated.pipeline
        )

    def test_no_ledger_flag_suppresses_append(self, tmp_path):
        from repro.obs.ledger import RunLedger

        directory = str(tmp_path / "led")
        assert main(
            ["simulate", "fig1", "--msize", "8KB",
             "--ledger-dir", directory, "--no-ledger"]
        ) == 0
        assert RunLedger(directory).records() == []

    def test_env_var_directs_default_ledger(self, tmp_path, monkeypatch):
        from repro.obs.ledger import RunLedger

        directory = str(tmp_path / "env-led")
        monkeypatch.setenv("REPRO_AAPC_LEDGER_DIR", directory)
        assert main(["simulate", "fig1", "--msize", "8KB"]) == 0
        assert len(RunLedger(directory).records()) == 1

    def test_repro_appends_per_cell_entries(self, tmp_path):
        from repro.obs.ledger import RunLedger

        directory = str(tmp_path / "led")
        assert main(
            ["repro", "topology-a", "--sizes", "8KB", "--repetitions", "1",
             "--ledger-dir", directory]
        ) == 0
        (record,) = RunLedger(directory).records()
        assert record.command == "repro"
        assert any("@8192" in name for name in record.algorithms)


class TestReportFamily:
    def _simulate(self, directory, msize="8KB"):
        assert main(
            ["simulate", "fig1", "--msize", msize, "--ledger-dir", directory]
        ) == 0

    def test_list_empty_and_populated(self, tmp_path, capsys):
        directory = str(tmp_path / "led")
        assert main(["report", "list", "--ledger-dir", directory]) == 0
        assert "empty" in capsys.readouterr().out
        self._simulate(directory)
        capsys.readouterr()
        assert main(["report", "list", "--ledger-dir", directory]) == 0
        out = capsys.readouterr().out
        assert "1 run(s)" in out
        assert "simulate" in out
        assert "fig1" in out

    def test_show_latest_dumps_json(self, tmp_path, capsys):
        import json

        directory = str(tmp_path / "led")
        self._simulate(directory)
        capsys.readouterr()
        assert main(["report", "show", "--ledger-dir", directory]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "simulate"
        assert "generated" in payload["algorithms"]

    def test_show_missing_run_exits_2(self, tmp_path, capsys):
        directory = str(tmp_path / "led")
        assert main(
            ["report", "show", "nope", "--ledger-dir", directory]
        ) == 2
        assert "report:" in capsys.readouterr().err

    def test_compare_two_runs(self, tmp_path, capsys):
        directory = str(tmp_path / "led")
        self._simulate(directory)
        self._simulate(directory)
        capsys.readouterr()
        from repro.obs.ledger import RunLedger

        first = RunLedger(directory).records()[0].run_id
        assert main(
            ["report", "compare", first, "latest", "--ledger-dir", directory]
        ) == 0
        out = capsys.readouterr().out
        assert "completion_time_ms" in out
        assert "scheduler_runtime_ms" in out

    def test_regress_ok_against_own_run(self, tmp_path, capsys):
        directory = str(tmp_path / "led")
        self._simulate(directory)
        capsys.readouterr()
        assert main(
            ["report", "regress", "--baseline", "latest",
             "--ledger-dir", directory, "--threshold", "5%"]
        ) == 0
        assert "OK" in capsys.readouterr().out

    def test_regress_bad_threshold_exits_2(self, tmp_path, capsys):
        directory = str(tmp_path / "led")
        self._simulate(directory)
        assert main(
            ["report", "regress", "--baseline", "latest",
             "--ledger-dir", directory, "--threshold", "five"]
        ) == 2


@pytest.fixture
def repro_logger():
    """The ``repro`` logger, with its handlers, level and propagation
    restored after the test.

    ``-v`` attaches the CLI's stderr handler and cuts propagation; left
    in place, later tests' ``caplog`` would see no ``repro`` records.
    """
    logger = logging.getLogger("repro")
    saved = (logger.handlers[:], logger.level, logger.propagate)
    yield logger
    for handler in logger.handlers[:]:
        logger.removeHandler(handler)
    for handler in saved[0]:
        logger.addHandler(handler)
    logger.setLevel(saved[1])
    logger.propagate = saved[2]


class TestVerboseFlag:
    def test_verbose_enables_repro_logging(self, tmp_path, capsys, repro_logger):
        directory = str(tmp_path / "led")
        assert main(
            ["simulate", "fig1", "--msize", "8KB",
             "--ledger-dir", directory, "-v"]
        ) == 0
        root = repro_logger
        assert root.level == logging.INFO
        assert any(
            getattr(h, "_repro_cli", False) for h in root.handlers
        )

    def test_quiet_by_default(self, capsys):
        assert main(["analyze", "fig1"]) == 0
        assert capsys.readouterr().err == ""


@pytest.fixture
def loss_plan_file(tmp_path):
    from repro.faults.plan import FaultPlan, SyncFault

    path = str(tmp_path / "loss.json")
    FaultPlan(name="loss", seed=7, sync_faults=[SyncFault(loss=0.2)]).to_json(
        path
    )
    return path


class TestErrorHandling:
    """Bad paths exit with a one-line message, status 2, no traceback."""

    def test_missing_topology_file(self, capsys):
        assert main(["simulate", "/no/such/topology.topo",
                     "--msize", "8KB", "--no-ledger"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro-aapc: error: cannot read topology")
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err

    def test_missing_fault_plan_file(self, capsys):
        assert main(["simulate", "fig1", "--msize", "8KB", "--no-ledger",
                     "--faults", "/no/such/plan.json"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro-aapc: error: cannot read fault plan")
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err

    def test_corrupt_fault_plan_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        assert main(["simulate", "fig1", "--msize", "8KB", "--no-ledger",
                     "--faults", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "corrupt fault plan" in err
        assert "Traceback" not in err

    def test_fault_plan_topology_mismatch(self, tmp_path, capsys):
        from repro.faults.plan import FaultPlan, LinkFault

        plan = tmp_path / "plan.json"
        FaultPlan(
            name="x", link_faults=[LinkFault(link=("s0", "s99"))]
        ).to_json(str(plan))
        assert main(["simulate", "fig1", "--msize", "8KB", "--no-ledger",
                     "--faults", str(plan)]) == 2
        assert "no such physical link" in capsys.readouterr().err

    def test_campaign_zero_repetitions(self, capsys):
        assert main(["campaign", "--topologies", "1", "--repetitions", "0",
                     "--no-ledger"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro-aapc: error: need at least one repetition")
        assert "got 0" in err
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err


class TestSimulateWithFaults:
    def test_sync_loss_run_reports_retransmits(self, loss_plan_file, capsys):
        assert main(
            ["simulate", "fig1", "--msize", "8KB", "--no-ledger",
             "--algorithm", "generated", "--faults", loss_plan_file]
        ) == 0
        out = capsys.readouterr().out
        assert "fault plan 'loss'" in out
        assert "fingerprint" in out
        assert "retransmits" in out

    def test_fault_plan_recorded_in_ledger(self, tmp_path, loss_plan_file):
        from repro.obs.ledger import RunLedger

        directory = str(tmp_path / "led")
        assert main(
            ["simulate", "fig1", "--msize", "8KB", "--ledger-dir", directory,
             "--algorithm", "generated", "--faults", loss_plan_file]
        ) == 0
        (record,) = RunLedger(directory).records()
        assert record.fault_plan["name"] == "loss"
        assert record.fault_plan["fingerprint"]
        entry = record.algorithms["generated"]
        assert "fault_stats" in entry.telemetry


class TestChaosCommand:
    def test_sweep_with_custom_plans_and_artifact(
        self, tmp_path, loss_plan_file, capsys
    ):
        import json

        diag = str(tmp_path / "diag.json")
        assert main(
            ["chaos", "fig1", "--msize", "8KB", "--no-ledger",
             "--algorithms", "generated", "--plans", loss_plan_file,
             "--diagnosis-out", diag]
        ) == 0
        out = capsys.readouterr().out
        assert "chaos sweep" in out
        assert "slowdown" in out
        with open(diag) as fh:
            artifact = json.load(fh)
        (row,) = artifact["results"]
        assert row["plan"] == "loss"
        assert row["completed"] is True
        assert row["fault_stats"]["syncs_dropped"] >= 0
        assert row["slowdown"] > 0

    def test_link_failure_plan_reports_fallback(self, tmp_path, capsys):
        import json

        from repro.faults.plan import FaultPlan, LinkFault

        plan = str(tmp_path / "fail.json")
        FaultPlan(
            name="failure", seed=0,
            link_faults=[LinkFault(link=("s0", "s1"), failed=True)],
        ).to_json(plan)
        diag = str(tmp_path / "diag.json")
        assert main(
            ["chaos", "fig1", "--msize", "8KB", "--no-ledger",
             "--algorithms", "generated", "--plans", plan,
             "--diagnosis-out", diag]
        ) == 0
        out = capsys.readouterr().out
        assert "fell-back" in out
        with open(diag) as fh:
            (row,) = json.load(fh)["results"]
        assert row["algorithm_used"] in ("mpich-ring", "mpich-pairwise")
        assert row["decisions"], "fallback decision must be recorded"

    def test_partition_plan_is_unrecoverable_exit_1(self, tmp_path, capsys):
        from repro.faults.plan import FaultPlan, LinkFault

        plan = str(tmp_path / "dead.json")
        FaultPlan(
            name="partition", seed=0,
            link_faults=[
                LinkFault(link=("s0", "s1"), failed=True, residual=0.0)
            ],
        ).to_json(plan)
        assert main(
            ["chaos", "fig1", "--msize", "8KB", "--no-ledger",
             "--algorithms", "generated", "--plans", plan]
        ) == 1
        assert "UNRECOVERABLE" in capsys.readouterr().out


class TestVersionFlag:
    def test_version_prints_and_exits(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert f"repro-aapc {__version__}" in capsys.readouterr().out


class TestExplainCommand:
    def test_scheduled_within_budgets_exit_0(self, capsys):
        assert main(
            ["explain", "fig1", "--algorithm", "generated", "--no-noise",
             "--no-ledger", "--budget", "contention=0.05",
             "--budget", "residual=0.10"]
        ) == 0
        out = capsys.readouterr().out
        assert "dominant component:" in out
        assert "critical path:" in out

    def test_budget_violation_exit_1(self, capsys):
        assert main(
            ["explain", "fig1", "--algorithm", "lam", "--no-noise",
             "--no-ledger", "--budget", "contention=5%"]
        ) == 1
        assert "BUDGET VIOLATION" in capsys.readouterr().err

    def test_bad_budget_spec_exit_2(self, capsys):
        assert main(
            ["explain", "fig1", "--no-ledger", "--budget", "residual"]
        ) == 2
        assert main(
            ["explain", "fig1", "--no-ledger", "--budget", "residual=ten"]
        ) == 2

    def test_json_out_is_schema_versioned(self, tmp_path, capsys):
        from repro.obs.attribution import (
            ATTRIBUTION_SCHEMA_VERSION,
            load_attribution,
        )

        path = str(tmp_path / "attr.json")
        assert main(
            ["explain", "fig1", "--no-noise", "--no-ledger",
             "--json-out", path]
        ) == 0
        data = load_attribution(path)
        assert data["schema"] == ATTRIBUTION_SCHEMA_VERSION
        assert data["critical_path"]["num_segments"] > 0

    def test_trace_out_has_critical_path_arrows(self, tmp_path):
        import json

        path = str(tmp_path / "cp.json")
        assert main(
            ["explain", "fig1", "--no-ledger", "--trace-out", path]
        ) == 0
        with open(path) as fh:
            events = json.load(fh)["traceEvents"]
        assert [e for e in events if e.get("cat") == "critical_path"
                and e["ph"] == "s"]

    def test_appends_attribution_to_ledger(self, tmp_path, capsys):
        from repro.obs.ledger import RunLedger

        ledger_dir = str(tmp_path / "led")
        assert main(
            ["explain", "fig1", "--no-noise", "--ledger-dir", ledger_dir]
        ) == 0
        (record,) = RunLedger(ledger_dir).records()
        assert record.command == "explain"
        entry = record.algorithms["generated"]
        assert entry.attribution["dominant_component"]
        assert "critical_path" not in entry.attribution

    def test_example_topology_file(self, capsys):
        assert main(
            ["explain", "examples/two-switch.topo", "--algorithm", "lam",
             "--no-noise", "--no-ledger"]
        ) == 0
        assert "dominant component: contention" in capsys.readouterr().out


class TestObservatory:
    """Scale-observatory commands: --stats-out, top, --trace-cap."""

    def test_simulate_stats_out_writes_snapshots(self, tmp_path, capsys):
        from repro.obs.metrics_registry import load_snapshots

        stats = str(tmp_path / "stats.jsonl")
        assert main(
            ["simulate", "fig1", "--algorithm", "lam", "--msize", "8KB",
             "--stats-out", stats]
        ) == 0
        assert "wrote metrics snapshots" in capsys.readouterr().out
        snapshots = load_snapshots(stats)
        assert snapshots, "at least the final snapshot"
        final = snapshots[-1]
        assert final.counters["engine.events_total"] > 0
        assert final.monitor["progress"] == 1.0

    def test_simulate_stats_out_derives_per_algorithm_paths(self, tmp_path):
        from repro.obs.metrics_registry import load_snapshots

        stats = str(tmp_path / "stats.jsonl")
        assert main(
            ["simulate", "fig1", "--algorithms", "lam", "generated",
             "--msize", "8KB", "--stats-out", stats]
        ) == 0
        for name in ("lam", "generated"):
            assert load_snapshots(str(tmp_path / f"stats-{name}.jsonl"))

    def test_simulate_stats_land_in_ledger_and_metrics_json(self, tmp_path):
        import json

        from repro.obs.ledger import RunLedger

        ledger_dir = str(tmp_path / "led")
        metrics = str(tmp_path / "metrics.json")
        assert main(
            ["simulate", "fig1", "--algorithm", "generated", "--msize",
             "8KB", "--ledger-dir", ledger_dir,
             "--metrics-out", metrics]
        ) == 0
        (record,) = RunLedger(ledger_dir).records()
        stats = record.algorithms["generated"].stats
        assert stats["schema"] == 1
        assert stats["counters"]["engine.events_total"] > 0
        with open(metrics) as fh:
            assert json.load(fh)["stats"]["counters"]["engine.events_total"]

    def test_top_no_tty(self, tmp_path, capsys):
        from repro.obs.metrics_registry import load_snapshots

        stats = str(tmp_path / "top.jsonl")
        assert main(
            ["top", "examples/two-switch.topo", "--algorithm", "generated",
             "--msize", "8KB", "--no-tty", "--stats-out", stats]
        ) == 0
        out = capsys.readouterr().out
        assert "sim time" in out
        assert "progress" in out
        assert "completed in" in out
        assert load_snapshots(stats)

    def test_trace_cap_accepted_everywhere(self, tmp_path, capsys):
        trace = str(tmp_path / "t.json")
        assert main(
            ["simulate", "fig1", "--algorithm", "lam", "--msize", "8KB",
             "--trace-cap", "50", "--trace-out", trace]
        ) == 0
        assert main(
            ["trace", "fig1", "--algorithm", "lam", "--msize", "8KB",
             "--trace-cap", "50",
             "-o", str(tmp_path / "t2.json")]
        ) == 0
        capsys.readouterr()


class TestLoggingIdempotent:
    def test_repeated_verbose_runs_log_once(self, capsys, repro_logger):
        """Nested/repeated CLI invocations must not stack log handlers."""
        root = repro_logger
        # Drop handlers from earlier tests (bound to stale capture
        # streams) and simulate a host app that configured root logging.
        for handler in root.handlers[:]:
            root.removeHandler(handler)
        probe_root = logging.StreamHandler()
        logging.getLogger().addHandler(probe_root)
        try:
            assert main(["analyze", "fig1", "-v"]) == 0
            assert main(["analyze", "fig1", "-v"]) == 0
            ours = [
                h for h in root.handlers
                if getattr(h, "_repro_cli", False)
            ]
            assert len(ours) == 1
            assert root.propagate is False
            capsys.readouterr()
            logging.getLogger("repro.probe").info("once-only probe")
            err = capsys.readouterr().err
            assert err.count("once-only probe") == 1
        finally:
            logging.getLogger().removeHandler(probe_root)


class TestPhasesCommand:
    """`repro-aapc phases`: the predicted-vs-observed phase audit."""

    @pytest.fixture
    def two_switch_file(self, tmp_path):
        from repro.topology.builder import chain_of_switches

        path = tmp_path / "two-switch.topo"
        path.write_text(dumps_topology(chain_of_switches([3, 3])))
        return str(path)

    def test_scheduled_passes_the_gate(self, two_switch_file, capsys):
        assert main([
            "phases", two_switch_file, "--algorithm", "scheduled",
            "--msize", "64KB", "--no-noise", "--no-ledger",
            "--max-divergence", "10%",
        ]) == 0
        out = capsys.readouterr().out
        assert "phase audit:" in out
        assert "verdict: OK" in out

    def test_lam_is_reported_divergent(self, two_switch_file, capsys):
        # Contention in an *uncertified* round is divergence, not a
        # Theorem violation, so it informs rather than gates.
        assert main([
            "phases", two_switch_file, "--algorithm", "lam",
            "--msize", "64KB", "--no-noise", "--no-ledger",
        ]) == 0
        out = capsys.readouterr().out
        assert "divergent" in out
        assert "violation(s)" in out

    def test_artifacts_and_ledger_entry(
        self, two_switch_file, tmp_path, capsys
    ):
        import json

        audit_json = tmp_path / "audit.json"
        trace_json = tmp_path / "trace.json"
        ledger_dir = tmp_path / "led"
        assert main([
            "phases", two_switch_file, "--algorithm", "scheduled",
            "--msize", "64KB", "--no-noise",
            "--ledger-dir", str(ledger_dir),
            "--json-out", str(audit_json),
            "--trace-out", str(trace_json),
        ]) == 0
        capsys.readouterr()
        audit = json.loads(audit_json.read_text())
        assert audit["summary"]["clean"] is True
        assert audit["summary"]["violations"] == 0
        events = json.loads(trace_json.read_text())["traceEvents"]
        assert any(e.get("pid") == 8 for e in events)

        from repro.obs.ledger import RunLedger

        (record,) = RunLedger(str(ledger_dir)).records()
        assert record.command == "phases"
        (entry,) = record.algorithms.values()
        assert entry.phase_audit["clean"] is True

    def test_bad_tolerance_rejected(self, two_switch_file, capsys):
        assert main([
            "phases", two_switch_file, "--no-ledger",
            "--tolerance", "nonsense",
        ]) == 2
        assert "bad threshold" in capsys.readouterr().err


def _seed_ledger(tmp_path, factor=2.0):
    """Two runs in ``tmp_path/led``: 10 ms, then ``10 * factor`` ms."""
    from repro.obs.ledger import AlgorithmEntry, RunLedger, RunRecord

    ledger = RunLedger(str(tmp_path / "led"))
    records = []
    for ms in (10.0, 10.0 * factor):
        record = RunRecord.new(
            "simulate",
            topology_spec="fig1",
            topology_fingerprint="abc123",
            num_machines=6,
            msize=65536,
            params={},
            algorithms={
                "generated": AlgorithmEntry(completion_time_ms=ms)
            },
        )
        ledger.append(record)
        records.append(record)
    return ledger, records


class TestReportJson:
    def test_compare_json(self, tmp_path, capsys):
        import json

        _, (a, b) = _seed_ledger(tmp_path)
        assert main([
            "report", "compare", "--ledger-dir", str(tmp_path / "led"),
            a.run_id, b.run_id, "--json",
        ]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["baseline"] == a.run_id
        assert data["current"] == b.run_id
        (delta,) = data["deltas"]
        assert delta["metric"] == "completion_time_ms"
        assert delta["ratio"] == pytest.approx(2.0)

    def test_regress_json_flags_the_regression(self, tmp_path, capsys):
        import json

        _, (a, b) = _seed_ledger(tmp_path)
        assert main([
            "report", "regress", "--ledger-dir", str(tmp_path / "led"),
            "--baseline", a.run_id, "--run", b.run_id,
            "--threshold", "5%", "--json",
        ]) == 1
        data = json.loads(capsys.readouterr().out)
        assert data["ok"] is False
        assert data["regressions"] == 1
        (delta,) = data["deltas"]
        assert delta["regression"] is True

    def test_regress_json_ok_within_threshold(self, tmp_path, capsys):
        import json

        _, (a, b) = _seed_ledger(tmp_path, factor=1.01)
        assert main([
            "report", "regress", "--ledger-dir", str(tmp_path / "led"),
            "--baseline", a.run_id, "--run", b.run_id,
            "--threshold", "5%", "--json",
        ]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["ok"] is True
        assert data["regressions"] == 0


class TestGateFractions:
    """Every gate fraction must be finite and non-negative: ``x > nan``
    is always false, so a NaN threshold would pass any gate."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["report", "regress", "--threshold", "nan"],
            ["phases", "fig1", "--no-ledger", "--max-divergence", "nan"],
            ["phases", "fig1", "--no-ledger", "--tolerance=-5%"],
            ["explain", "fig1", "--no-ledger", "--budget", "residual=nan"],
        ],
        ids=["regress-nan", "max-divergence-nan", "tolerance-negative",
             "budget-nan"],
    )
    def test_bad_fraction_exits_2_before_simulating(
        self, argv, tmp_path, capsys, monkeypatch
    ):
        from repro.harness import observation

        def no_run(*args, **kwargs):
            raise AssertionError("simulated despite a bad gate fraction")

        monkeypatch.setattr(observation, "observe", no_run)
        if argv[0] == "report":
            # A 10 -> 100 ms regression: exit 1 at any finite threshold.
            _, (a, b) = _seed_ledger(tmp_path, factor=10.0)
            argv = argv + [
                "--ledger-dir", str(tmp_path / "led"),
                "--baseline", a.run_id, "--run", b.run_id,
            ]
        assert main(argv) == 2
        assert "bad threshold" in capsys.readouterr().err


class TestObservedRunCommands:
    """simulate/trace/explain/phases/gantt/top are one observed run each."""

    @pytest.mark.parametrize(
        "command, blocks",
        [
            ("trace", ("attribution",)),
            ("explain", ("attribution",)),
            ("phases", ("phase_audit",)),
            ("gantt", ()),
            ("top", ()),
        ],
    )
    def test_every_view_writes_the_metrics_report(
        self, command, blocks, tmp_path, capsys
    ):
        """Every view writes the same report; each adds only the
        analyses it reads."""
        import json

        metrics = tmp_path / "m.json"
        trace_flag = "-o" if command == "trace" else "--trace-out"
        argv = [command, "fig1", "--metrics-out", str(metrics),
                trace_flag, str(tmp_path / "t.json")]
        if command == "top":
            argv.append("--no-tty")
        if command in ("explain", "phases"):
            argv.append("--no-ledger")
        assert main(argv) == 0
        capsys.readouterr()
        assert (tmp_path / "t.json").exists()
        report = json.loads(metrics.read_text())
        for block in ("links", "phase_windows", "pipeline", "stats") + blocks:
            assert block in report, block
        for block in {"attribution", "phase_audit"} - set(blocks):
            assert block not in report, block

    @pytest.mark.parametrize("command", ["simulate", "explain", "phases"])
    def test_recording_commands_append_to_the_ledger(
        self, command, tmp_path, capsys
    ):
        from repro.obs.ledger import RunLedger

        ledger_dir = str(tmp_path / "led")
        argv = [command, "fig1", "--algorithm", "generated",
                "--ledger-dir", ledger_dir]
        assert main(argv) == 0
        capsys.readouterr()
        (record,) = RunLedger(ledger_dir).records()
        assert record.command == command
        entry = record.algorithms["generated"]
        assert entry.scheduler_runtime_ms > 0
        # A wall clock is kept only from runs without the flight recorder.
        assert (entry.sim_wall_ms is not None) == (command == "simulate")

    @pytest.mark.parametrize("command", ["trace", "gantt", "top"])
    def test_views_stay_out_of_the_ledger(self, command, tmp_path, capsys):
        from repro.obs.ledger import RunLedger

        argv = [command, "fig1", "--msize", "8KB"]
        if command == "trace":
            argv += ["-o", str(tmp_path / "t.json")]
        if command == "top":
            argv.append("--no-tty")
        assert main(argv) == 0
        capsys.readouterr()
        assert RunLedger().records() == []
        with pytest.raises(SystemExit):
            main([command, "fig1", "--no-ledger"])

    def test_views_take_only_their_own_flags(self, capsys):
        for argv in (
            ["simulate", "fig1", "--phases"],
            ["simulate", "fig1", "--no-noise"],
            ["trace", "fig1", "--trace-out", "t.json"],
            ["gantt", "fig1", "--stats-out", "s.jsonl"],
            ["top", "fig1", "--phases"],
            ["explain", "fig1", "--trace-cap", "10"],
        ):
            with pytest.raises(SystemExit):
                main(argv)
        capsys.readouterr()

    def test_gantt_records_only_the_trace(self, monkeypatch, capsys):
        """The timeline needs the per-rank trace, not the flight
        recorder or its analyses."""
        from repro.harness import observation

        calls = []
        real = observation.observe

        def spy(*args, **kwargs):
            calls.append(kwargs)
            return real(*args, **kwargs)

        monkeypatch.setattr(observation, "observe", spy)
        assert main(["gantt", "fig1", "--phases"]) == 0
        out = capsys.readouterr().out
        assert "skew ms" in out  # the per-phase window table
        (kwargs,) = calls
        assert kwargs["trace"] is True and kwargs["telemetry"] is False
        assert not kwargs["analyses"]

    def test_top_without_outputs_skips_the_flight_recorder(
        self, monkeypatch, capsys
    ):
        from repro.harness import observation

        runs = []
        real = observation.observe

        def spy(*args, **kwargs):
            runs.append(real(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(observation, "observe", spy)
        assert main(["top", "fig1", "--msize", "8KB", "--no-tty"]) == 0
        capsys.readouterr()
        (run,) = runs
        assert run.telemetry is None and run.attribution is None
        assert run.result.stats["counters"]["engine.events_total"] > 0
