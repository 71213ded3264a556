"""Phase observatory: predicted-vs-observed divergence auditing.

The acceptance story is the paper's: on the two-switch cluster every
``scheduled`` phase must honor its contention-free certificate at run
time (zero observed contention, occupancy matching the static model
within 10% per link), while the LAM baseline — one giant uncertified
round — must be flagged divergent.
"""

import json

import pytest

from repro.algorithms import get_algorithm
from repro.core.program import (
    SYNC_TAG_BASE,
    Op,
    OpKind,
    Program,
    effective_round,
)
from repro.errors import ReproError
from repro.obs.phase_audit import (
    VERDICT_DIVERGENT,
    VERDICT_OK,
    VERDICT_UNOBSERVED,
    VERDICT_VIOLATION,
    PhaseAuditReport,
    PhaseDivergence,
    audit_phases,
)
from repro.sim.executor import run_programs
from repro.topology.builder import chain_of_switches, single_switch
from repro.units import kib


@pytest.fixture
def two_switch():
    """Six machines split over two switches (the worked example)."""
    return chain_of_switches([3, 3])


def _run(topo, algorithm, msize, params):
    programs = get_algorithm(algorithm).build_programs(topo, msize)
    result = run_programs(topo, programs, msize, params, telemetry=True)
    return programs, result.telemetry


class TestEffectiveRound:
    def test_phase_wins_when_set(self):
        assert effective_round(3, 7) == 3
        assert effective_round(0, 7) == 0

    def test_tag_names_the_round_for_unphased_messages(self):
        assert effective_round(-1, 0) == 0
        assert effective_round(-1, 5) == 5

    def test_sync_and_invalid_tags_never_name_a_round(self):
        assert effective_round(-1, SYNC_TAG_BASE) == -1
        assert effective_round(-1, SYNC_TAG_BASE + 9) == -1
        assert effective_round(-1, -2) == -1


class TestScheduledHonorsCertificate:
    def test_two_switch_scheduled_is_clean(self, two_switch, quiet_params):
        programs, telemetry = _run(
            two_switch, "scheduled", kib(64), quiet_params
        )
        report = audit_phases(telemetry, two_switch, programs)
        assert report.clean
        assert not report.violations
        assert report.total_contention_events == 0
        # Occupancy must match the model within 10% on every link; the
        # noise-free simulator actually matches it exactly.
        assert report.max_occupancy_deviation <= 0.10
        for phase in range(report.num_phases):
            assert report.phase_verdict(phase) == VERDICT_OK
        assert report.gate(0.10) == []

    def test_windows_and_durations_cover_every_phase(
        self, two_switch, quiet_params
    ):
        programs, telemetry = _run(
            two_switch, "scheduled", kib(64), quiet_params
        )
        report = audit_phases(telemetry, two_switch, programs)
        assert report.num_phases > 1
        assert {w.phase for w in report.windows} == {
            d.phase for d in report.durations
        }
        for window in report.windows:
            assert window.span > 0
            assert window.barrier_skew >= 0
        for duration in report.durations:
            # A contention-free phase cannot beat its serial bound.
            assert duration.ratio >= 1.0

    def test_artifact_is_json_serializable(self, two_switch, quiet_params):
        programs, telemetry = _run(
            two_switch, "scheduled", kib(64), quiet_params
        )
        report = audit_phases(telemetry, two_switch, programs)
        artifact = json.loads(json.dumps(report.as_dict()))
        assert artifact["schema"] == 1
        assert artifact["summary"]["clean"] is True
        assert artifact["summary"]["violations"] == 0
        assert len(artifact["rows"]) == len(report.rows)


class TestBaselineDiverges:
    def test_lam_is_flagged_divergent(self, two_switch, quiet_params):
        programs, telemetry = _run(two_switch, "lam", kib(64), quiet_params)
        report = audit_phases(telemetry, two_switch, programs)
        assert not report.clean
        assert report.divergences
        assert report.total_contention_events > 0
        # LAM's single round is uncertified (static concurrency > 1),
        # so observed contention is "divergent", never a Theorem
        # violation.
        assert not report.violations
        assert any(
            r.verdict == VERDICT_DIVERGENT and not r.certified_contention_free
            for r in report.rows
        )

    def test_unphased_flows_get_synthetic_rounds(
        self, two_switch, quiet_params
    ):
        _, telemetry = _run(two_switch, "lam", kib(64), quiet_params)
        flows = telemetry.links.flows
        assert flows
        # Satellite fix: data flows never leak phase = -1; the tag
        # provides the audit round.
        assert all(f.phase >= 0 for f in flows)


class TestSyntheticPrograms:
    def test_tag_round_joins_static_and_observed(self, quiet_params):
        topo = single_switch(2)
        a, b = topo.machines
        programs = {
            a: Program(a, [
                Op(OpKind.ISEND, peer=b, tag=3, blocks=((a, b),)),
                Op(OpKind.WAITALL),
            ]),
            b: Program(b, [
                Op(OpKind.IRECV, peer=a, tag=3),
                Op(OpKind.WAITALL),
            ]),
        }
        result = run_programs(
            topo, programs, kib(64), quiet_params,
            telemetry=True, check_delivery=False,
        )
        report = audit_phases(result.telemetry, topo, programs)
        assert {r.phase for r in report.rows} == {3}
        assert report.clean

    def test_eager_run_is_unobserved_not_divergent(self, quiet_params):
        topo = single_switch(4)
        programs = get_algorithm("scheduled").build_programs(topo, 512)
        result = run_programs(topo, programs, 512, quiet_params, telemetry=True)
        report = audit_phases(result.telemetry, topo, programs)
        assert report.rows
        assert all(r.verdict == VERDICT_UNOBSERVED for r in report.rows)
        assert report.clean
        assert report.gate(0.10) == []

    def test_eager_run_audits_no_phase_windows(self, quiet_params):
        """Phases seen only in trace records carried no wire load: the
        audit gives them no window and no observed duration."""
        topo = single_switch(4)
        programs = get_algorithm("scheduled").build_programs(topo, 512)
        result = run_programs(topo, programs, 512, quiet_params, telemetry=True)
        assert result.telemetry.phase_windows  # the trace saw the phases
        report = audit_phases(result.telemetry, topo, programs)
        assert report.windows == []
        assert all(d.observed == 0.0 for d in report.durations)
        summary = report.summary_dict()
        assert summary["worst_duration_ratio"] == 0.0
        assert summary["num_phases"] == len({r.phase for r in report.rows})
        assert set(summary["phase_verdicts"].values()) == {VERDICT_UNOBSERVED}


class TestGateAndReport:
    def _report(self, rows):
        return PhaseAuditReport(
            msize=kib(64),
            occupancy_tolerance=0.10,
            windows=[],
            durations=[],
            rows=rows,
        )

    def _row(self, **kw):
        base = dict(
            phase=0,
            edge=("s0", "s1"),
            predicted_messages=1,
            predicted_bytes=100.0,
            observed_bytes=100.0,
            observed_flows=1,
            contention_events=0,
            certified_contention_free=True,
            verdict=VERDICT_OK,
        )
        base.update(kw)
        return PhaseDivergence(**base)

    def test_violation_always_fails_the_gate(self):
        report = self._report([
            self._row(contention_events=2, verdict=VERDICT_VIOLATION),
        ])
        assert not report.clean
        assert report.worst_divergence == float("inf")
        problems = report.gate(float("inf"))
        assert len(problems) == 1
        assert "certified contention-free" in problems[0]

    def test_occupancy_drift_fails_only_past_the_budget(self):
        report = self._report([
            self._row(observed_bytes=130.0, verdict=VERDICT_DIVERGENT),
        ])
        assert report.max_occupancy_deviation == pytest.approx(0.30)
        assert report.gate(0.50) == []
        problems = report.gate(0.10)
        assert len(problems) == 1
        assert "exceeds" in problems[0]

    def test_negative_budget_rejected(self):
        for bad in (-0.1, float("nan")):
            with pytest.raises(ReproError):
                self._report([]).gate(bad)

    def test_phase_verdict_takes_the_worst_row(self):
        report = self._report([
            self._row(),
            self._row(
                edge=("s1", "s0"),
                contention_events=1,
                verdict=VERDICT_VIOLATION,
            ),
        ])
        assert report.phase_verdict(0) == VERDICT_VIOLATION
        assert report.summary_dict()["phase_verdicts"] == {
            "0": VERDICT_VIOLATION
        }

    def test_audit_rejects_bad_tolerance_and_missing_msize(
        self, quiet_params
    ):
        topo = single_switch(2)
        programs = get_algorithm("scheduled").build_programs(topo, kib(16))
        result = run_programs(
            topo, programs, kib(16), quiet_params, telemetry=True
        )
        for bad in (-1.0, float("nan")):
            with pytest.raises(ReproError):
                audit_phases(
                    result.telemetry, topo, programs, occupancy_tolerance=bad
                )
