"""Watchdog diagnosis, fault-plan triage, and graceful fallback."""

from __future__ import annotations

import pytest

from repro.algorithms import get_algorithm
from repro.errors import StallError
from repro.faults.plan import FaultPlan, LinkFault, SyncFault
from repro.faults.runtime import (
    SYNC_DEPENDENT,
    assess_fault_plan,
    fallback_algorithm,
    run_resilient,
)
from repro.faults.watchdog import StallDiagnosis, StallWatchdog, WatchdogConfig
from repro.sim.executor import run_programs
from repro.sim.params import NetworkParams
from repro.topology.builder import chain_of_switches, single_switch
from repro.units import kib

MSIZE = kib(4)
TRUNK = ("s0", "s1")


@pytest.fixture
def topo():
    # 4 machines (a power of two) so the fallback is mpich-pairwise,
    # with a single trunk every cross-switch message must cross.
    return chain_of_switches([2, 2])


def failure_plan(residual=0.02):
    return FaultPlan(
        name="trunk-failure",
        seed=0,
        link_faults=[LinkFault(link=TRUNK, failed=True, residual=residual)],
    )


def test_fallback_algorithm_selection():
    assert fallback_algorithm(4) == "mpich-pairwise"
    assert fallback_algorithm(8) == "mpich-pairwise"
    assert fallback_algorithm(6) == "mpich-ring"
    assert fallback_algorithm(3) == "mpich-ring"
    assert "generated" in SYNC_DEPENDENT


@pytest.mark.chaos
def test_permanent_failure_watchdog_fires_with_diagnosis(topo):
    """Acceptance: under a permanent link failure the watchdog aborts the
    scheduled routine with a diagnosis naming the blocked phase and the
    pending sync edge (and the failed link that dropped it)."""
    programs = get_algorithm("generated").build_programs(topo, MSIZE)
    with pytest.raises(StallError) as exc_info:
        run_programs(
            topo, programs, MSIZE, NetworkParams(seed=3), faults=failure_plan()
        )
    diagnosis = exc_info.value.diagnosis
    assert diagnosis is not None
    assert diagnosis.blocked_phases, "diagnosis must name blocked phase(s)"
    assert diagnosis.blocked, "diagnosis must name blocked ranks"
    assert diagnosis.pending_syncs, "diagnosis must name the sync edge"
    # At least one pending sync is attributed to the failed trunk.
    attributed = [
        s for s in diagnosis.pending_syncs
        if s.blocked_edge and frozenset(s.blocked_edge) == frozenset(TRUNK)
    ]
    assert attributed
    assert "s0<->s1" in diagnosis.suspected_cause or "abandoned" in (
        diagnosis.suspected_cause
    )
    # The textual summary is self-contained for the CLI/CI artifact.
    summary = diagnosis.summary()
    assert "suspected cause" in summary and "sync" in summary


@pytest.mark.chaos
def test_mid_run_fallback_completes_with_pairwise(topo):
    """Acceptance: the resilient runtime catches the stall and completes
    the collective with the sync-free pairwise algorithm."""
    res = run_resilient(
        topo, "generated", MSIZE, NetworkParams(seed=3),
        faults=failure_plan(), pre_assess=False,
    )
    assert res.completed
    assert res.fell_back
    assert res.algorithm_used == "mpich-pairwise"
    assert res.result is not None and res.result.completion_time > 0
    assert [d.stage for d in res.decisions] == ["mid-run"]
    assert res.diagnosis is not None
    # Schedule repair was tried first (pre-run and mid-run) and refused:
    # a full trunk failure blows the relaxed tier's contention budget.
    assert res.repairs and not any(r.succeeded for r in res.repairs)
    # The stall time burnt before falling back is accounted explicitly.
    assert res.wasted_time > 0
    assert res.decisions[-1].wasted_time == pytest.approx(res.wasted_time)
    assert res.total_time == pytest.approx(
        res.wasted_time + res.result.completion_time
    )


def test_pre_run_fallback_via_assessment(topo):
    res = run_resilient(
        topo, "generated", MSIZE, NetworkParams(seed=3), faults=failure_plan()
    )
    assert res.completed
    assert res.algorithm_used == "mpich-pairwise"
    assert [d.stage for d in res.decisions] == ["pre-run"]
    assert res.assessment is not None
    assert not res.assessment.scheduled_viable
    assert not res.assessment.partitioned
    (reason,) = res.assessment.reasons
    assert "contention-freedom guarantee is void" in reason
    # Repair ran before the fallback and was refused on the record.
    assert res.repairs and not any(r.succeeded for r in res.repairs)
    assert not res.repaired


@pytest.mark.parametrize("algorithm", ["generated", "lam"])
def test_completed_run_costs_no_fallback(topo, monkeypatch, algorithm):
    """The fallback is chosen on first use, and a run that completes
    never uses one: costing pairwise against ring, which builds a
    PathDamage, is skipped."""
    from repro.faults import runtime

    built = []

    class Counting(runtime.PathDamage):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(runtime, "PathDamage", Counting)
    degraded = FaultPlan(
        name="trunk-degraded", seed=0,
        link_faults=[LinkFault(link=TRUNK, factor=0.5)],
    )
    res = run_resilient(
        topo, algorithm, MSIZE, NetworkParams(seed=3), faults=degraded
    )
    assert res.completed and not res.fell_back
    assert res.decisions == []
    assert built == []
    # The chooser itself still costs the degraded plan when asked.
    runtime.choose_fallback(topo, degraded)
    assert len(built) == 1


def test_partition_is_reported_unrecoverable(topo):
    res = run_resilient(
        topo, "generated", MSIZE, NetworkParams(seed=3),
        faults=failure_plan(residual=0.0),
    )
    assert not res.completed
    assert res.algorithm_used == "none"
    assert [d.stage for d in res.decisions] == ["abort"]
    assert res.assessment is not None and res.assessment.partitioned


def test_no_faults_runs_requested_algorithm(topo):
    res = run_resilient(topo, "generated", MSIZE, NetworkParams(seed=3))
    assert res.completed and not res.fell_back
    assert res.algorithm_used == "generated"
    assert res.decisions == []


def test_assessment_of_benign_and_total_loss_plans(topo):
    benign = FaultPlan(
        name="benign", seed=0,
        link_faults=[LinkFault(link=TRUNK, factor=0.5)],
        sync_faults=[SyncFault(loss=0.3)],
    )
    a = assess_fault_plan(topo, benign)
    assert a.scheduled_viable and not a.partitioned and not a.reasons

    total_loss = FaultPlan(
        name="total-loss", seed=0, sync_faults=[SyncFault(loss=1.0)]
    )
    a = assess_fault_plan(topo, total_loss)
    assert not a.scheduled_viable
    assert not a.partitioned
    assert a.reasons


def test_assessment_leaf_failure_only_hits_paths_through_it():
    # Failing a machine link still voids the schedule (that machine's
    # syncs cross it), and the reason names the deduplicated link once.
    topo = single_switch(4)
    link = ("s0", "n0")
    plan = FaultPlan(
        name="leaf", seed=0,
        link_faults=[LinkFault(link=link, failed=True)],
    )
    a = assess_fault_plan(topo, plan)
    assert not a.scheduled_viable
    (reason,) = [r for r in a.reasons if "permanent link failure" in r]
    assert reason.count("'n0'") == 1


def test_watchdog_fires_on_synthetic_no_progress():
    from repro.sim.engine import Engine

    engine = Engine()
    dog = StallWatchdog(
        engine,
        WatchdogConfig(stall_timeout=0.1, check_interval=0.05),
        progress=lambda: 0,
        moving=lambda: False,
        diagnose=lambda now: StallDiagnosis(
            time=now, suspected_cause="synthetic"
        ),
        all_done=lambda: False,
    )
    dog.start()
    # Keep the heap non-empty past the stall horizon.
    for i in range(1, 10):
        engine.schedule(i * 0.05, lambda: None)
    with pytest.raises(StallError, match="synthetic"):
        engine.run()
    assert dog.fired is not None


def test_watchdog_config_validation():
    with pytest.raises(ValueError):
        WatchdogConfig(stall_timeout=0.0)
    with pytest.raises(ValueError):
        WatchdogConfig(check_interval=-1.0)
