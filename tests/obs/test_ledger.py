"""Tests for the persistent run ledger and the regression gate."""

from __future__ import annotations

import json
import os

import pytest

from repro.cli import main
from repro.errors import ReproError
from repro.obs.ledger import (
    LEDGER_SCHEMA_VERSION,
    AlgorithmEntry,
    RunLedger,
    RunRecord,
    compare_records,
    find_regressions,
    load_baseline,
    parse_threshold,
    topology_fingerprint,
)


def make_record(**algorithms) -> RunRecord:
    return RunRecord.new(
        "simulate",
        topology_spec="fig1",
        topology_fingerprint="abc123",
        num_machines=6,
        msize=65536,
        params={"seed": 0},
        algorithms={
            name: AlgorithmEntry(**fields)
            for name, fields in algorithms.items()
        },
    )


class TestLedgerStore:
    def test_append_and_read_roundtrip(self, tmp_path):
        ledger = RunLedger(str(tmp_path / "led"))
        record = make_record(
            generated={
                "completion_time_ms": 70.4,
                "throughput_mbps": 223.0,
                "scheduler_runtime_ms": 1.8,
                "pipeline": [{"name": "schedule_aapc", "duration_ms": 1.0}],
            }
        )
        ledger.append(record)
        (loaded,) = ledger.records()
        assert loaded.run_id == record.run_id
        assert loaded.schema == LEDGER_SCHEMA_VERSION
        assert loaded.topology_fingerprint == "abc123"
        entry = loaded.algorithms["generated"]
        assert entry.completion_time_ms == pytest.approx(70.4)
        assert entry.scheduler_runtime_ms == pytest.approx(1.8)
        assert entry.pipeline[0]["name"] == "schedule_aapc"

    def test_records_ordered_and_find_refs(self, tmp_path):
        ledger = RunLedger(str(tmp_path / "led"))
        a = make_record(lam={"completion_time_ms": 1.0})
        b = make_record(lam={"completion_time_ms": 2.0})
        ledger.append(a)
        ledger.append(b)
        assert [r.run_id for r in ledger.records()] == [a.run_id, b.run_id]
        assert ledger.find("latest").run_id == b.run_id
        assert ledger.find(a.run_id).run_id == a.run_id

    def test_find_unique_prefix_and_ambiguity(self, tmp_path):
        ledger = RunLedger(str(tmp_path / "led"))
        a = make_record(lam={"completion_time_ms": 1.0})
        ledger.append(a)
        assert ledger.find(a.run_id[:12]).run_id == a.run_id
        with pytest.raises(ReproError, match="no run matching"):
            ledger.find("zzz-nope")

    def test_empty_ledger_find_raises(self, tmp_path):
        with pytest.raises(ReproError, match="empty"):
            RunLedger(str(tmp_path / "led")).find("latest")

    def test_future_schema_rejected_with_clear_error(self, tmp_path):
        ledger = RunLedger(str(tmp_path / "led"))
        data = make_record(lam={"completion_time_ms": 1.0}).as_dict()
        data["schema"] = LEDGER_SCHEMA_VERSION + 1
        os.makedirs(ledger.directory, exist_ok=True)
        with open(ledger.path, "w") as fh:
            fh.write(json.dumps(data) + "\n")
        with pytest.raises(ReproError, match="upgrade repro"):
            ledger.records()

    def test_corrupt_mid_file_line_raises_with_line_number(self, tmp_path):
        """Damage before the last line is real corruption, not a torn
        append — silently dropping records would skew comparisons."""
        ledger = RunLedger(str(tmp_path / "led"))
        ledger.append(make_record(generated={"completion_time_ms": 1.0}))
        with open(ledger.path, "a") as fh:
            fh.write("{not json\n")
        ledger.append(make_record(generated={"completion_time_ms": 2.0}))
        with pytest.raises(ReproError, match="line 2"):
            ledger.records()

    def test_truncated_trailing_line_skipped_with_warning(self, tmp_path, caplog):
        """A torn final append (crash / full disk) must not brick the
        ledger: the good prefix is returned, the tail logged."""
        ledger = RunLedger(str(tmp_path / "led"))
        ledger.append(make_record(generated={"completion_time_ms": 1.0}))
        ledger.append(make_record(generated={"completion_time_ms": 2.0}))
        with open(ledger.path, "r+") as fh:
            content = fh.read()
            fh.seek(0)
            fh.write(content[: len(content) - len(content) // 3])
            fh.truncate()
        with caplog.at_level("WARNING", logger="repro.obs.ledger"):
            records = ledger.records()
        assert len(records) == 1
        entry = records[0].algorithms["generated"]
        assert entry.completion_time_ms == pytest.approx(1.0)
        assert any("corrupt trailing line" in m for m in caplog.messages)

    def test_lone_corrupt_line_is_treated_as_torn_append(self, tmp_path, caplog):
        ledger = RunLedger(str(tmp_path / "led"))
        os.makedirs(ledger.directory, exist_ok=True)
        with open(ledger.path, "w") as fh:
            fh.write("{not json\n")
        with caplog.at_level("WARNING", logger="repro.obs.ledger"):
            assert ledger.records() == []
        assert any("corrupt trailing line" in m for m in caplog.messages)

    def test_append_is_a_single_atomic_write(self, tmp_path, monkeypatch):
        """The record reaches the file as one os.write of one full line
        on an O_APPEND descriptor (no torn interleaving between
        concurrent writers)."""
        ledger = RunLedger(str(tmp_path / "led"))
        writes = []
        real_write = os.write

        def spy(fd, data):
            writes.append(bytes(data))
            return real_write(fd, data)

        monkeypatch.setattr(os, "write", spy)
        ledger.append(make_record(generated={"completion_time_ms": 1.0}))
        assert len(writes) == 1
        assert writes[0].endswith(b"\n")
        json.loads(writes[0])  # the single write is one complete record

    def test_fault_plan_fingerprint_round_trips(self, tmp_path):
        ledger = RunLedger(str(tmp_path / "led"))
        record = RunRecord.new(
            "simulate",
            topology_spec="fig1",
            topology_fingerprint="abc123",
            num_machines=6,
            msize=65536,
            params={"seed": 0},
            algorithms={
                "generated": AlgorithmEntry(completion_time_ms=70.4)
            },
            fault_plan={"name": "loss", "fingerprint": "4f414901a1aa3b38"},
        )
        ledger.append(record)
        (loaded,) = ledger.records()
        assert loaded.fault_plan == {
            "name": "loss",
            "fingerprint": "4f414901a1aa3b38",
        }
        # Absent on fault-free records (schema stays lean).
        plain = make_record(generated={"completion_time_ms": 1.0})
        assert "fault_plan" not in plain.as_dict()


class TestFingerprint:
    def test_stable_for_equal_topologies(self, fig1):
        from repro.topology.builder import paper_example_cluster

        assert topology_fingerprint(fig1) == topology_fingerprint(
            paper_example_cluster()
        )

    def test_differs_across_topologies(self, fig1, topo_a):
        assert topology_fingerprint(fig1) != topology_fingerprint(topo_a)


class TestComparison:
    def test_compare_records_covers_both_metrics(self):
        base = make_record(
            lam={"completion_time_ms": 100.0, "scheduler_runtime_ms": 1.0}
        )
        cur = make_record(
            lam={"completion_time_ms": 110.0, "scheduler_runtime_ms": 1.0}
        )
        deltas = compare_records(base, cur)
        assert {(d.metric, round(d.ratio, 2)) for d in deltas} == {
            ("completion_time_ms", 1.10),
            ("scheduler_runtime_ms", 1.00),
        }

    def test_find_regressions_respects_threshold(self):
        base = make_record(lam={"completion_time_ms": 100.0})
        cur = make_record(lam={"completion_time_ms": 104.0})
        assert find_regressions(base, cur, 0.05) == []
        regs = find_regressions(base, cur, 0.03)
        assert [d.metric for d in regs] == ["completion_time_ms"]
        for bad in (-0.01, float("nan")):
            with pytest.raises(ReproError, match="non-negative"):
                find_regressions(base, cur, bad)

    def test_scheduler_runtime_regression_detected(self):
        base = make_record(
            lam={"completion_time_ms": 100.0, "scheduler_runtime_ms": 1.0}
        )
        cur = make_record(
            lam={"completion_time_ms": 100.0, "scheduler_runtime_ms": 2.0}
        )
        regs = find_regressions(base, cur, 0.05)
        assert [d.metric for d in regs] == ["scheduler_runtime_ms"]

    def test_missing_metrics_are_skipped(self):
        base = make_record(lam={"completion_time_ms": 100.0})
        cur = make_record(
            lam={"completion_time_ms": 100.0, "scheduler_runtime_ms": 5.0}
        )
        assert [d.metric for d in compare_records(base, cur)] == [
            "completion_time_ms"
        ]

    def test_parse_threshold_forms(self):
        assert parse_threshold("5%") == pytest.approx(0.05)
        assert parse_threshold("0.05") == pytest.approx(0.05)
        assert parse_threshold(" 25% ") == pytest.approx(0.25)
        assert parse_threshold("0") == 0.0
        # A NaN threshold would pass every gate (x > nan is false).
        for bad in ("nan", "NaN%", "inf", "-inf", "-5%", "-0.01"):
            with pytest.raises(ReproError, match="finite, non-negative"):
                parse_threshold(bad)
        with pytest.raises(ReproError):
            parse_threshold("five")


class TestBaselineLoading:
    def test_bare_algorithms_file(self, tmp_path):
        path = str(tmp_path / "baseline.json")
        with open(path, "w") as fh:
            json.dump(
                {"algorithms": {"lam": {"completion_time_ms": 42.0}}}, fh
            )
        record = load_baseline(path)
        assert record.algorithms["lam"].completion_time_ms == 42.0

    def test_full_record_file(self, tmp_path):
        record = make_record(lam={"completion_time_ms": 9.0})
        path = str(tmp_path / "record.json")
        with open(path, "w") as fh:
            json.dump(record.as_dict(), fh)
        loaded = load_baseline(path)
        assert loaded.run_id == record.run_id

    def test_full_record_needs_its_schema(self, tmp_path):
        """A bare baseline may omit its schema; a run record may not."""
        data = make_record(lam={"completion_time_ms": 9.0}).as_dict()
        del data["schema"]
        path = str(tmp_path / "record.json")
        with open(path, "w") as fh:
            json.dump(data, fh)
        with pytest.raises(ReproError, match="ledger record has invalid schema"):
            load_baseline(path)

    def test_ledger_ref_fallback(self, tmp_path):
        ledger = RunLedger(str(tmp_path / "led"))
        record = make_record(lam={"completion_time_ms": 9.0})
        ledger.append(record)
        assert load_baseline("latest", ledger).run_id == record.run_id


class TestRegressCli:
    """Acceptance: synthetic 2x scheduler-runtime slowdown fails the gate."""

    def _seed_ledger(self, tmp_path, scheduler_runtime_ms: float) -> str:
        directory = str(tmp_path / "led")
        RunLedger(directory).append(
            make_record(
                generated={
                    "completion_time_ms": 70.0,
                    "scheduler_runtime_ms": scheduler_runtime_ms,
                }
            )
        )
        return directory

    def _baseline_file(self, tmp_path) -> str:
        path = str(tmp_path / "baseline.json")
        with open(path, "w") as fh:
            json.dump(
                {
                    "algorithms": {
                        "generated": {
                            "completion_time_ms": 70.0,
                            "scheduler_runtime_ms": 1.0,
                        }
                    }
                },
                fh,
            )
        return path

    def test_regress_fails_on_2x_scheduler_slowdown(self, tmp_path, capsys):
        directory = self._seed_ledger(tmp_path, scheduler_runtime_ms=2.0)
        rc = main(
            [
                "report", "regress",
                "--baseline", self._baseline_file(tmp_path),
                "--ledger-dir", directory,
                "--threshold", "5%",
            ]
        )
        assert rc == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out
        assert "scheduler_runtime_ms" in out

    def test_regress_passes_within_threshold(self, tmp_path, capsys):
        directory = self._seed_ledger(tmp_path, scheduler_runtime_ms=1.02)
        rc = main(
            [
                "report", "regress",
                "--baseline", self._baseline_file(tmp_path),
                "--ledger-dir", directory,
                "--threshold", "5%",
            ]
        )
        assert rc == 0
        assert "OK" in capsys.readouterr().out

    def test_regress_errors_when_nothing_comparable(self, tmp_path):
        directory = str(tmp_path / "led")
        RunLedger(directory).append(
            make_record(other={"completion_time_ms": 1.0})
        )
        rc = main(
            [
                "report", "regress",
                "--baseline", self._baseline_file(tmp_path),
                "--ledger-dir", directory,
            ]
        )
        assert rc == 2

    @pytest.mark.parametrize(
        "content,message",
        [
            ([], "must be a JSON object"),
            ({"schema": "x", "algorithms": {}}, "invalid schema"),
            ({"schema": 0, "algorithms": {}}, "invalid schema"),
            ({"schema": 99, "algorithms": {}}, "upgrade repro"),
            ({"algorithms": [1]}, "'algorithms' must be a JSON object"),
            ({"topology": "x", "algorithms": {}},
             "'topology' must be a JSON object"),
            ({"algorithms": {"lam": 3}},
             "algorithm entry must be a JSON object"),
            ({"algorithms": {"lam": {"completion_time_ms": "fast"}}},
             "invalid completion_time_ms"),
        ],
        ids=["list", "string-schema", "zero-schema", "future-schema",
             "list-algorithms", "string-topology", "int-entry",
             "string-completion-time"],
    )
    def test_malformed_baseline_exits_2(self, tmp_path, capsys, content,
                                        message):
        directory = self._seed_ledger(tmp_path, scheduler_runtime_ms=1.0)
        path = str(tmp_path / "bad.json")
        with open(path, "w") as fh:
            json.dump(content, fh)
        rc = main(
            [
                "report", "regress",
                "--baseline", path,
                "--ledger-dir", directory,
            ]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("report regress: baseline ")
        assert message in err


class TestFaultPartitions:
    """compare/regress never mix clean runs with chaos runs."""

    @staticmethod
    def _record(ms: float, fault_plan=None) -> RunRecord:
        return RunRecord.new(
            "simulate",
            topology_spec="fig1",
            topology_fingerprint="abc123",
            num_machines=6,
            msize=65536,
            params={"seed": 0},
            algorithms={"lam": AlgorithmEntry(completion_time_ms=ms)},
            fault_plan=fault_plan,
        )

    def test_fault_fingerprint_property(self):
        clean = self._record(1.0)
        chaos = self._record(
            2.0, fault_plan={"name": "loss", "fingerprint": "f00d"}
        )
        assert clean.fault_fingerprint is None
        assert chaos.fault_fingerprint == "f00d"

    def test_ensure_same_partition_rejects_mixed(self):
        from repro.obs.ledger import ensure_same_fault_partition

        clean = self._record(1.0)
        chaos = self._record(
            2.0, fault_plan={"name": "loss", "fingerprint": "f00d"}
        )
        with pytest.raises(ReproError, match="fault partition"):
            ensure_same_fault_partition(clean, chaos)
        with pytest.raises(ReproError, match="fault partition"):
            ensure_same_fault_partition(chaos, clean)
        ensure_same_fault_partition(clean, self._record(3.0))
        ensure_same_fault_partition(
            chaos,
            self._record(4.0, fault_plan={"name": "l", "fingerprint": "f00d"}),
        )

    def test_ensure_same_partition_rejects_different_plans(self):
        from repro.obs.ledger import ensure_same_fault_partition

        a = self._record(1.0, fault_plan={"name": "a", "fingerprint": "aa"})
        b = self._record(2.0, fault_plan={"name": "b", "fingerprint": "bb"})
        with pytest.raises(ReproError, match="fault partition"):
            ensure_same_fault_partition(a, b)

    def test_find_latest_within_partition(self, tmp_path):
        ledger = RunLedger(str(tmp_path / "led"))
        clean = self._record(1.0)
        chaos = self._record(
            2.0, fault_plan={"name": "loss", "fingerprint": "f00d"}
        )
        ledger.append(clean)
        ledger.append(chaos)  # chaos run lands last
        assert ledger.find("latest").run_id == chaos.run_id
        assert (
            ledger.find("latest", fault_fingerprint=None).run_id
            == clean.run_id
        )
        assert (
            ledger.find("latest", fault_fingerprint="f00d").run_id
            == chaos.run_id
        )
        with pytest.raises(ReproError, match="fault partition"):
            ledger.find("latest", fault_fingerprint="beef")

    def test_regress_cli_refuses_mixed_partitions(self, tmp_path, capsys):
        ledger_dir = str(tmp_path / "led")
        ledger = RunLedger(ledger_dir)
        baseline = self._record(10.0)
        ledger.append(baseline)
        ledger.append(
            self._record(
                30.0, fault_plan={"name": "loss", "fingerprint": "f00d"}
            )
        )
        # ``latest`` resolves within the baseline's (clean) partition,
        # so the chaos run is skipped and the gate passes.
        assert main([
            "report", "regress", "--ledger-dir", ledger_dir,
            "--baseline", baseline.run_id,
        ]) == 0
        # Naming the chaos run explicitly is refused outright.
        chaos_id = ledger.records()[-1].run_id
        assert main([
            "report", "regress", "--ledger-dir", ledger_dir,
            "--baseline", baseline.run_id, "--run", chaos_id,
        ]) == 2
        assert "fault partition" in capsys.readouterr().err

    def test_compare_cli_refuses_mixed_partitions(self, tmp_path, capsys):
        ledger_dir = str(tmp_path / "led")
        ledger = RunLedger(ledger_dir)
        a = self._record(10.0)
        b = self._record(
            12.0, fault_plan={"name": "loss", "fingerprint": "f00d"}
        )
        ledger.append(a)
        ledger.append(b)
        assert main([
            "report", "compare", "--ledger-dir", ledger_dir,
            a.run_id, b.run_id,
        ]) == 2
        assert "fault partition" in capsys.readouterr().err

    def test_attribution_round_trips_in_entry(self, tmp_path):
        ledger = RunLedger(str(tmp_path / "led"))
        record = make_record(
            generated={
                "completion_time_ms": 70.4,
                "attribution": {"schema": 1, "dominant_component": "startup"},
            }
        )
        ledger.append(record)
        (loaded,) = ledger.records()
        entry = loaded.algorithms["generated"]
        assert entry.attribution["dominant_component"] == "startup"


class TestHistorySweeps:
    """Edge cases for reads over the whole ledger history."""

    def test_single_entry_history_is_healthy(self, tmp_path):
        ledger = RunLedger(str(tmp_path / "led"))
        only = make_record(generated={"completion_time_ms": 70.0})
        ledger.append(only)
        assert ledger.find("latest").run_id == only.run_id
        (loaded,) = ledger.records()
        assert loaded.run_id == only.run_id

    def test_mixed_schema_versions_tolerant_read(self, tmp_path):
        """A future-schema record mid-history aborts the read: there is
        no tolerant mode that would silently drop it."""
        ledger = RunLedger(str(tmp_path / "led"))
        old = make_record(generated={"completion_time_ms": 1.0})
        ledger.append(old)
        future = make_record(generated={"completion_time_ms": 2.0}).as_dict()
        future["schema"] = LEDGER_SCHEMA_VERSION + 1
        with open(ledger.path, "a") as fh:
            fh.write(json.dumps(future) + "\n")
        new = make_record(generated={"completion_time_ms": 3.0})
        ledger.append(new)

        with pytest.raises(ReproError, match="upgrade repro"):
            ledger.records()
        with pytest.raises(ReproError, match="upgrade repro"):
            ledger.find("latest")

    def test_tolerant_read_skips_corrupt_mid_file_line(self, tmp_path):
        """Mid-file damage is not a torn append: the read refuses it."""
        ledger = RunLedger(str(tmp_path / "led"))
        a = make_record(generated={"completion_time_ms": 1.0})
        ledger.append(a)
        with open(ledger.path, "a") as fh:
            fh.write("{not json\n")
        b = make_record(generated={"completion_time_ms": 2.0})
        ledger.append(b)

        with pytest.raises(ReproError, match="line 2"):
            ledger.records()

    def test_corrupt_trailing_line_and_find_latest(self, tmp_path, caplog):
        """A torn final append must not change which run is "latest":
        the last *intact* record wins."""
        ledger = RunLedger(str(tmp_path / "led"))
        a = make_record(generated={"completion_time_ms": 1.0})
        b = make_record(generated={"completion_time_ms": 2.0})
        ledger.append(a)
        ledger.append(b)
        with open(ledger.path, "a") as fh:
            fh.write('{"schema": 1, "torn...')
        with caplog.at_level("WARNING", logger="repro.obs.ledger"):
            assert ledger.find("latest").run_id == b.run_id
            records = ledger.records()
        assert [r.run_id for r in records] == [a.run_id, b.run_id]
        assert any("corrupt trailing line" in m for m in caplog.messages)
