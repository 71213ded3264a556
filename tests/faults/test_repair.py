"""Schedule repair: re-partition, re-verify, re-synchronize, recover.

Covers the self-healing ladder end to end: the repair engine itself
(:mod:`repro.faults.repair`), the pair-set scheduler and verifier it is
built on, the degradation-aware fallback chooser, the resilient
runtime's pre-run and mid-run repair tiers, and the JSON round-trips of
every decision artifact the chaos CLI emits.
"""

from __future__ import annotations

import json

import pytest

from repro.algorithms import get_algorithm
from repro.cli import main
from repro.core.pattern import aapc_message_set
from repro.core.scheduler import schedule_pairs
from repro.core.synchronization import build_sync_plan, split_sync_plan
from repro.core.verify import verify_schedule, verify_schedule_for_pairs
from repro.errors import SchedulingError
from repro.faults.events import FallbackDecision, RepairDecision
from repro.faults.plan import FOREVER, FaultPlan, LinkFault, SyncFault
from repro.faults.repair import plan_threatens_schedule, repair_schedule
from repro.faults.runtime import choose_fallback, run_resilient
from repro.faults.watchdog import StallDiagnosis
from repro.sim.params import NetworkParams
from repro.topology.builder import chain_of_switches
from repro.topology.paths import PathOracle
from repro.topology.serialization import load_topology
from repro.units import kib

MSIZE = kib(16)
EXAMPLE_TOPOS = ["examples/two-switch.topo", "examples/three-switch.topo"]


def degrade(link, factor=0.5):
    return FaultPlan(
        name=f"degrade-{link[0]}-{link[1]}", seed=0,
        link_faults=[LinkFault(link=link, factor=factor)],
    )


def fail(link, residual=0.02):
    return FaultPlan(
        name=f"fail-{link[0]}-{link[1]}", seed=0,
        link_faults=[LinkFault(link=link, failed=True, residual=residual)],
    )


def schedule_key(schedule):
    return sorted((sm.phase, sm.message) for sm in schedule.all_messages())


# ---------------------------------------------------------------------------
# Property sweep: every single-link degradation / failure on the
# example topologies.
# ---------------------------------------------------------------------------
class TestSingleLinkSweep:
    @pytest.mark.parametrize("topo_path", EXAMPLE_TOPOS)
    def test_every_degradation_repairs_and_verifies(self, topo_path):
        """A 50% degradation never kills a sync, so the strict tier must
        succeed on every link — and the repaired schedule must pass the
        ground-truth verifier (it reproduces the optimal schedule)."""
        topo = load_topology(topo_path)
        template = get_algorithm("generated").build_schedule(topo)
        params = NetworkParams(seed=7)
        for link in topo.links:
            plan = degrade(tuple(link))
            rr = repair_schedule(topo, template, plan, MSIZE, params)
            assert rr.succeeded, f"degrading {link} must be repairable"
            assert rr.tier == "repair"
            verify_schedule(rr.schedule)
            assert rr.schedule.num_phases == template.num_phases
            assert len(rr.sync_plan.syncs) > 0

    @pytest.mark.parametrize("topo_path", EXAMPLE_TOPOS)
    def test_every_failure_is_deterministic_and_verified(self, topo_path):
        """Permanent failures: whatever tier wins (or none), two repairs
        with the same seed must agree decision-for-decision, and a
        successful repair must verify on the degraded topology."""
        topo = load_topology(topo_path)
        template = get_algorithm("generated").build_schedule(topo)
        params = NetworkParams(seed=7)
        for link in topo.links:
            plan = fail(tuple(link))
            first = repair_schedule(topo, template, plan, MSIZE, params)
            second = repair_schedule(topo, template, plan, MSIZE, params)
            assert first.decisions == second.decisions
            assert first.succeeded == second.succeeded
            assert first.decisions, "every attempt records decisions"
            if first.succeeded:
                verify_schedule(first.schedule)
                assert schedule_key(first.schedule) == schedule_key(
                    second.schedule
                )

    @pytest.mark.parametrize("topo_path", EXAMPLE_TOPOS)
    def test_residual_pair_sets_compact_and_verify(self, topo_path):
        """Mid-run style repair: drop the first-phase pairs (already
        delivered) and re-pack the tail against a degraded link."""
        topo = load_topology(topo_path)
        template = get_algorithm("generated").build_schedule(topo)
        params = NetworkParams(seed=7)
        done = {sm.message for sm in template.phase(0)}
        pending = sorted(aapc_message_set(topo) - done)
        for link in topo.links:
            plan = degrade(tuple(link))
            rr = repair_schedule(
                topo, template, plan, MSIZE, params,
                pending=pending, stage="mid-run", time=0.25,
            )
            assert rr.succeeded
            verify_schedule_for_pairs(rr.schedule, set(pending))
            # Compaction never needs more phases than the template tail.
            assert rr.schedule.num_phases <= template.num_phases
            d = rr.decisions[-1]
            assert d.stage == "mid-run"
            assert d.pairs_completed == len(done)


# ---------------------------------------------------------------------------
# Repair engine unit behaviour.
# ---------------------------------------------------------------------------
class TestRepairEngine:
    def test_dead_link_makes_pairs_unschedulable(self):
        topo = chain_of_switches([2, 2])
        template = get_algorithm("generated").build_schedule(topo)
        plan = fail(("s0", "s1"), residual=0.0)
        assert [lf.link for lf in plan.dead_link_faults()] == [("s0", "s1")]
        rr = repair_schedule(topo, template, plan, MSIZE, NetworkParams())
        assert not rr.succeeded
        assert not rr.decisions[0].succeeded
        assert "failed" in rr.decisions[0].reason

    def test_full_failure_rejected_by_contention_budget(self):
        """residual=0.02 keeps data flowing but the predicted
        serialization of the dropped syncs dwarfs the optimum — both
        tiers record a decision and the repair is refused."""
        topo = chain_of_switches([2, 2])
        template = get_algorithm("generated").build_schedule(topo)
        rr = repair_schedule(
            topo, template, fail(("s0", "s1")), MSIZE, NetworkParams()
        )
        assert not rr.succeeded
        tiers = [(d.tier, d.succeeded) for d in rr.decisions]
        assert tiers == [("repair", False), ("repair-relaxed", False)]
        relaxed = rr.decisions[-1]
        assert relaxed.syncs_dropped > 0
        assert relaxed.predicted_cost > 0
        assert "budget" in relaxed.reason

    def test_relaxed_tier_accepts_bounded_serialization(self):
        """A degraded (not failed) trunk plus a targeted permanent sync
        blackout: the blacked-out sync is dropped, its predicted cost
        fits the budget, the relaxed tier accepts."""
        topo = chain_of_switches([2, 2])
        template = get_algorithm("generated").build_schedule(topo)
        sync = build_sync_plan(template).syncs[0]
        plan = FaultPlan(
            name="mixed", seed=0,
            link_faults=[LinkFault(link=("s0", "s1"), factor=0.5)],
            sync_faults=[
                SyncFault(loss=1.0, end=FOREVER, src=sync.src, dst=sync.dst)
            ],
        )
        rr = repair_schedule(topo, template, plan, kib(4), NetworkParams())
        assert rr.succeeded
        assert rr.tier == "repair-relaxed"
        assert len(rr.dropped_syncs) >= 1
        assert all(
            s.src != sync.src or s.dst != sync.dst
            for s in rr.sync_plan.syncs
        )
        verify_schedule(rr.schedule)

    def test_plan_threat_triage(self):
        trunk = ("s0", "s1")
        assert plan_threatens_schedule(degrade(trunk))
        assert plan_threatens_schedule(fail(trunk))
        assert plan_threatens_schedule(
            FaultPlan(name="p", sync_faults=[SyncFault(loss=1.0)])
        )
        # Transient windows and targeted blackouts are runtime business.
        assert not plan_threatens_schedule(
            FaultPlan(
                name="p",
                link_faults=[LinkFault(link=trunk, failed=True, end=0.01)],
            )
        )
        assert not plan_threatens_schedule(
            FaultPlan(
                name="p",
                sync_faults=[SyncFault(loss=1.0, src="n0", dst="n1")],
            )
        )

    def test_schedule_pairs_rejects_duplicates_and_dead_paths(self):
        topo = chain_of_switches([2, 2])
        msgs = sorted(aapc_message_set(topo))
        with pytest.raises(SchedulingError):
            schedule_pairs(topo, [msgs[0], msgs[0]])
        cross = next(
            m for m in msgs
            if PathOracle(topo).path_edges(m.src, m.dst)
            and any(
                frozenset(e) == frozenset(("s0", "s1"))
                for e in PathOracle(topo).path_edges(m.src, m.dst)
            )
        )
        with pytest.raises(SchedulingError):
            schedule_pairs(
                topo, [cross],
                forbidden_edges={frozenset(("s0", "s1"))},
            )

    def test_split_sync_plan_partitions(self):
        topo = chain_of_switches([2, 2])
        template = get_algorithm("generated").build_schedule(topo)
        plan = build_sync_plan(template)
        kept, dropped = split_sync_plan(plan, lambda s: s.src != "n0")
        assert len(kept.syncs) + len(dropped) == len(plan.syncs)
        assert all(s.src != "n0" for s in kept.syncs)
        assert all(s.src == "n0" for s in dropped)
        assert kept.stats.num_after_reduction == len(kept.syncs)


# ---------------------------------------------------------------------------
# Degradation-aware fallback chooser.
# ---------------------------------------------------------------------------
class TestChooseFallback:
    def test_reverts_to_rank_count_rule_without_link_faults(self):
        topo = chain_of_switches([2, 2])
        assert choose_fallback(topo, None) == "mpich-pairwise"
        benign = FaultPlan(name="b", sync_faults=[SyncFault(loss=0.2)])
        assert choose_fallback(topo, benign) == "mpich-pairwise"

    def test_non_power_of_two_always_ring(self):
        topo = load_topology("examples/two-switch.topo")  # 6 machines
        assert choose_fallback(topo, fail(("s0", "s1"))) == "mpich-ring"

    def test_moderate_trunk_degradation_prefers_ring(self):
        """Pairwise wastes the degraded trunk during its intra-switch
        XOR step; ring keeps it busy every step.  Verified empirically:
        ring is ~6% faster at factor 0.5 on this topology."""
        topo = chain_of_switches([2, 2])
        assert choose_fallback(topo, degrade(("s0", "s1"))) == "mpich-ring"

    def test_full_failure_is_a_wash_keeps_pairwise(self):
        """At residual 0.02 the trunk dominates both algorithms equally
        (same total trunk bytes) — the model margin is <5%, so the
        rank-count rule stands."""
        topo = chain_of_switches([2, 2])
        assert choose_fallback(topo, fail(("s0", "s1"))) == "mpich-pairwise"


# ---------------------------------------------------------------------------
# Resilient runtime: the three-tier ladder end to end.
# ---------------------------------------------------------------------------
class TestResilientRepair:
    @pytest.mark.chaos
    def test_acceptance_degraded_link_survives_without_fallback(self):
        """ISSUE acceptance: two-switch.topo under a single-link 50%
        degradation completes the *scheduled* algorithm via repair — no
        fallback — and records a successful RepairDecision."""
        topo = load_topology("examples/two-switch.topo")
        plan = degrade(("s0", "s1"))
        res = run_resilient(
            topo, "generated", MSIZE, NetworkParams(seed=3), faults=plan
        )
        assert res.completed
        assert res.algorithm_used == "generated"
        assert not res.fell_back
        assert res.repaired
        assert res.decisions == []
        assert any(r.succeeded for r in res.repairs)
        assert res.wasted_time == 0.0
        # The repaired schedule itself verifies on the degraded topology.
        template = get_algorithm("generated").build_schedule(topo)
        rr = repair_schedule(
            topo, template, plan, MSIZE, NetworkParams(seed=3)
        )
        assert rr.succeeded
        verify_schedule(rr.schedule)

    @pytest.mark.chaos
    def test_midrun_blackout_repaired_by_resume(self):
        """A targeted permanent sync blackout is invisible pre-run; the
        stall watchdog fires, the residual pair set is re-packed, the
        relaxed tier drops the dead sync, and the resumed run completes
        the scheduled algorithm."""
        topo = load_topology("examples/two-switch.topo")
        sync = build_sync_plan(
            get_algorithm("generated").build_schedule(topo)
        ).syncs[0]
        plan = FaultPlan(
            name="blackout", seed=0,
            sync_faults=[
                SyncFault(loss=1.0, end=FOREVER, src=sync.src, dst=sync.dst)
            ],
        )
        res = run_resilient(
            topo, "generated", MSIZE, NetworkParams(seed=3), faults=plan
        )
        assert res.completed
        assert res.algorithm_used == "generated"
        assert res.repaired
        assert res.decisions == []
        assert res.wasted_time > 0
        assert res.total_time > res.result.completion_time
        stages = {r.stage for r in res.repairs}
        assert stages == {"mid-run"}
        winner = next(r for r in res.repairs if r.succeeded)
        assert winner.tier == "repair-relaxed"
        assert winner.pairs_completed > 0
        assert res.diagnosis is not None
        assert res.diagnosis.completed_pairs

    def test_failed_repairs_still_fall_back(self):
        """Full trunk failure: both tiers refuse, the pre-run fallback
        fires, and the failed attempts stay on the record."""
        topo = chain_of_switches([2, 2])
        res = run_resilient(
            topo, "generated", kib(4), NetworkParams(seed=3),
            faults=fail(("s0", "s1")),
        )
        assert res.completed
        assert res.fell_back
        assert not res.repaired
        assert [d.stage for d in res.decisions] == ["pre-run"]
        assert res.repairs and not any(r.succeeded for r in res.repairs)

    def test_repair_disabled_restores_legacy_policy(self):
        topo = load_topology("examples/two-switch.topo")
        res = run_resilient(
            topo, "generated", MSIZE, NetworkParams(seed=3),
            faults=degrade(("s0", "s1")), repair=False,
        )
        assert res.completed
        assert res.repairs == []

    def test_telemetry_carries_recovery_decisions(self):
        topo = load_topology("examples/two-switch.topo")
        res = run_resilient(
            topo, "generated", MSIZE, NetworkParams(seed=3),
            faults=degrade(("s0", "s1")), telemetry=True,
        )
        assert res.repaired
        recorded = res.result.telemetry.recovery_decisions
        assert recorded == tuple(res.repairs) + tuple(res.decisions)


# ---------------------------------------------------------------------------
# JSON round-trips for every decision artifact.
# ---------------------------------------------------------------------------
class TestDecisionSerialization:
    def test_repair_decision_round_trip(self):
        d = RepairDecision(
            time=0.25, stage="mid-run", tier="repair-relaxed",
            succeeded=True, reason="bounded", phases_before=5,
            phases_after=3, phases_rewritten=2, pairs_rescheduled=4,
            pairs_completed=7, syncs_total=9, syncs_dropped=1,
            predicted_cost=0.0013,
        )
        assert RepairDecision.from_dict(
            json.loads(json.dumps(d.as_dict()))
        ) == d

    def test_fallback_decision_round_trip(self):
        d = FallbackDecision(
            0.3, "mid-run", "generated", "mpich-ring",
            "stall", wasted_time=0.3,
        )
        assert FallbackDecision.from_dict(
            json.loads(json.dumps(d.as_dict()))
        ) == d

    def test_diagnosis_round_trip(self):
        topo = chain_of_switches([2, 2])
        res = run_resilient(
            topo, "generated", kib(4), NetworkParams(seed=3),
            faults=fail(("s0", "s1")), pre_assess=False, repair=False,
        )
        d = res.diagnosis
        assert d is not None
        assert d.completed_pairs, "partial progress must be recorded"
        clone = StallDiagnosis.from_dict(json.loads(json.dumps(d.as_dict())))
        assert clone.time == d.time
        assert clone.suspected_cause == d.suspected_cause
        assert clone.completed_pairs == d.completed_pairs
        assert clone.blocked == d.blocked
        assert clone.pending_syncs == d.pending_syncs
        assert clone.crashed_ranks == d.crashed_ranks
        assert clone.active_faults == d.active_faults

    @pytest.mark.chaos
    def test_chaos_diagnosis_artifact_round_trips(self, tmp_path, capsys):
        """The --diagnosis-out artifact reconstructs into typed decisions."""
        plan_path = tmp_path / "repair-plan.json"
        plan_path.write_text(json.dumps({
            "name": "repair-scenario",
            "seed": 0,
            "link_faults": [{"link": ["s0", "s1"], "factor": 0.5}],
        }))
        out = tmp_path / "decisions.json"
        rc = main([
            "chaos", "examples/two-switch.topo", "--msize", "16KB",
            "--no-ledger", "--algorithms", "generated",
            "--plans", str(plan_path), "--diagnosis-out", str(out),
        ])
        assert rc == 0
        assert "repaired" in capsys.readouterr().out
        artifact = json.loads(out.read_text())
        (row,) = artifact["results"]
        assert row["completed"]
        assert row["algorithm_used"] == "generated"
        assert row["outcome"] == "repaired"
        repairs = [RepairDecision.from_dict(r) for r in row["repairs"]]
        assert any(r.succeeded for r in repairs)
        decisions = [FallbackDecision.from_dict(d) for d in row["decisions"]]
        assert decisions == []
        if "diagnosis" in row:
            StallDiagnosis.from_dict(row["diagnosis"])
