"""Fault injection through the simulator: chaos acceptance tests.

The topology is a two-switch chain with two machines per switch —
every cross-switch byte and sync message rides the s0<->s1 trunk, so
trunk faults bite deterministically.
"""

from __future__ import annotations

import pytest

from repro.algorithms import get_algorithm
from repro.core.program import OpKind, Program
from repro.errors import StallError
from repro.faults.injector import DELIVER, DROP, FaultInjector
from repro.faults.plan import (
    FaultPlan,
    HostStraggler,
    LinkFault,
    PathDamage,
    RankCrash,
    SyncFault,
)
from repro.sim.executor import run_programs
from repro.sim.params import NetworkParams
from repro.topology.builder import chain_of_switches, star_of_switches
from repro.units import kib

MSIZE = kib(4)
TRUNK = ("s0", "s1")


@pytest.fixture
def topo():
    return chain_of_switches([2, 2])


def scheduled_programs(topo, msize=MSIZE):
    return get_algorithm("generated").build_programs(topo, msize)


def run(topo, programs, plan=None, **kw):
    return run_programs(
        topo, programs, MSIZE, NetworkParams(seed=3), faults=plan, **kw
    )


def test_injector_drops_syncs_across_a_failed_trunk(topo):
    """Built from the plan and the topology, the injector looks up every
    sync's path: one crossing the failed trunk is dropped and the trunk
    edge is reported; a same-switch sync is delivered.  The plan's
    time-free damage along the same paths agrees."""
    plan = FaultPlan(
        name="trunk-down",
        link_faults=[LinkFault(link=TRUNK, failed=True, residual=0.02)],
    )
    injector = FaultInjector(plan, topo)
    damage = PathDamage(plan, topo)

    assert injector.path_control_blocked("n0", "n2", 0.0) == ("s0", "s1")
    assert injector.path_control_blocked("n2", "n0", 0.0) == ("s1", "s0")
    assert damage.blocked_forever("n0", "n2") == ("s0", "s1")
    assert damage.floor("n0", "n2") == 0.02
    assert injector.sync_fate("n0", "n2", 1, 0.0, 0) == (DROP, 0.0)
    assert injector.stats.syncs_link_dropped == 1

    assert injector.path_control_blocked("n0", "n1", 0.0) is None
    assert damage.blocked_forever("n0", "n1") is None
    assert damage.floor("n0", "n1") == 1.0
    assert injector.sync_fate("n0", "n1", 2, 0.0, 0) == (DELIVER, 0.0)
    assert injector.stats.syncs_link_dropped == 1


@pytest.mark.chaos
def test_sync_loss_recovers_via_retry_backoff(topo):
    """Acceptance: p=0.2 sync loss, fixed seed -> the scheduled routine
    still completes, delivery is verified, and completion time stays
    bounded (retry/backoff pays a small latency tax, not a hang)."""
    programs = scheduled_programs(topo)
    baseline = run(topo, programs).completion_time

    plan = FaultPlan(name="loss", seed=7, sync_faults=[SyncFault(loss=0.2)])
    result = run(topo, programs, plan)  # check_delivery defaults to True

    stats = result.fault_stats
    assert stats is not None
    assert stats["syncs_dropped"] > 0, "plan should actually drop syncs"
    assert stats["sync_retransmits"] >= stats["syncs_dropped"]
    assert stats["syncs_abandoned"] == 0
    assert result.completion_time >= baseline
    # Bounded: a handful of backoff rounds, not watchdog territory.
    assert result.completion_time < baseline + 0.25


@pytest.mark.chaos
def test_sync_delay_and_duplication_are_harmless(topo):
    programs = scheduled_programs(topo)
    plan = FaultPlan(
        name="delay-dup",
        seed=11,
        sync_faults=[
            SyncFault(delay_prob=0.5, delay_mean=2e-4, duplicate=0.3)
        ],
    )
    result = run(topo, programs, plan)
    stats = result.fault_stats
    assert stats["syncs_delayed"] > 0
    assert stats["syncs_duplicated"] > 0
    assert stats["syncs_abandoned"] == 0


def test_identical_seeded_runs_are_identical(topo):
    """Determinism regression: same plan + params -> byte-identical runs."""
    programs = scheduled_programs(topo)
    plan = FaultPlan(
        name="mixed",
        seed=5,
        sync_faults=[SyncFault(loss=0.25, delay_prob=0.2, delay_mean=1e-3)],
        link_faults=[
            LinkFault(link=TRUNK, start=0.001, end=0.004, factor=0.5)
        ],
        stragglers=[HostStraggler(rank="n0", factor=2.0)],
    )
    a = run(topo, programs, plan, telemetry=True)
    b = run(topo, programs, plan, telemetry=True)
    assert a.completion_time == b.completion_time
    assert a.fault_stats == b.fault_stats
    assert len(a.telemetry.sync_disruptions) == len(b.telemetry.sync_disruptions)
    times_a = [r.time for r in a.telemetry.trace.records]
    times_b = [r.time for r in b.telemetry.trace.records]
    assert times_a == times_b


def test_different_fault_seed_changes_the_run(topo):
    programs = scheduled_programs(topo)
    results = []
    for seed in (1, 2):
        plan = FaultPlan(
            name="loss", seed=seed, sync_faults=[SyncFault(loss=0.3)]
        )
        results.append(run(topo, programs, plan))
    # Not a hard guarantee for arbitrary seeds, but these two differ.
    assert (
        results[0].completion_time != results[1].completion_time
        or results[0].fault_stats != results[1].fault_stats
    )


def test_degraded_trunk_slows_the_run_down(topo):
    programs = scheduled_programs(topo)
    baseline = run(topo, programs).completion_time
    plan = FaultPlan(
        name="degraded",
        seed=0,
        link_faults=[LinkFault(link=TRUNK, factor=0.25)],
    )
    result = run(topo, programs, plan)
    assert result.completion_time > baseline * 1.5


def test_straggler_slows_the_run_down(topo):
    programs = scheduled_programs(topo)
    baseline = run(topo, programs).completion_time
    plan = FaultPlan(
        name="straggler",
        seed=0,
        stragglers=[HostStraggler(rank="n2", factor=8.0)],
    )
    result = run(topo, programs, plan)
    assert result.completion_time > baseline


def test_transient_link_flap_recovers(topo):
    """A failure window that closes: retries outlast the outage."""
    programs = scheduled_programs(topo)
    plan = FaultPlan(
        name="flap",
        seed=0,
        link_faults=[
            LinkFault(link=TRUNK, failed=True, start=0.0005, end=0.01)
        ],
    )
    result = run(topo, programs, plan)
    stats = result.fault_stats
    assert stats["syncs_abandoned"] == 0
    assert result.completion_time >= 0.01  # rode out the outage


def test_rank_crash_stalls_peers_with_diagnosis(topo):
    programs = scheduled_programs(topo)
    plan = FaultPlan(
        name="crash", seed=0, crashes=[RankCrash(rank="n1", time=0.0005)]
    )
    with pytest.raises(StallError) as exc_info:
        run(topo, programs, plan)
    diagnosis = exc_info.value.diagnosis
    assert diagnosis is not None
    assert diagnosis.crashed_ranks == ["n1"]
    assert "crashed" in diagnosis.suspected_cause
    assert diagnosis.blocked, "surviving peers should be reported as blocked"


def test_fault_telemetry_reaches_perfetto(topo):
    from repro.obs.perfetto import perfetto_events

    programs = scheduled_programs(topo)
    plan = FaultPlan(
        name="loss", seed=7, sync_faults=[SyncFault(loss=0.3)]
    )
    result = run(topo, programs, plan, telemetry=True)
    telemetry = result.telemetry
    assert telemetry.faults, "declared windows should be recorded"
    assert telemetry.sync_disruptions
    assert telemetry.fault_stats == result.fault_stats
    events = perfetto_events(telemetry)
    fault_events = [e for e in events if e.get("pid") == 6]
    names = {e["name"] for e in fault_events}
    assert "faults" in {e["args"]["name"] for e in fault_events if e["ph"] == "M"}
    assert any(n.startswith("drop ") or n.startswith("retransmit ")
               for n in names)
    # metrics_dict carries the fault section for the JSON report.
    assert "faults" in telemetry.metrics_dict()


@pytest.mark.chaos
def test_moving_flows_are_not_a_stall():
    """LAM posts everything and then waits once, so no operation
    completes while its contended flows drain; that is progress, not a
    stall.  Under a plan that only drops syncs (LAM sends none) the run
    ends exactly when the fault-free one does."""
    topo = star_of_switches([4] * 4)
    programs = get_algorithm("lam").build_programs(topo, kib(64))
    params = NetworkParams().without_noise()
    baseline = run_programs(topo, programs, kib(64), params)
    plan = FaultPlan(sync_faults=[SyncFault(loss=0.2)])
    result = run_programs(topo, programs, kib(64), params, faults=plan)
    assert baseline.completion_time > 0.3  # past the watchdog's horizon
    assert result.completion_time == baseline.completion_time


def test_sync_never_sent_still_stalls_with_diagnosis(topo):
    """A sync its sender never posts blocks its receiver for good: with
    no flow left moving the watchdog fires at its usual horizon and
    names the missing sync."""
    programs = scheduled_programs(topo)
    ops = programs["n1"].ops
    first = next(i for i, op in enumerate(ops) if op.kind is OpKind.SYNC_SEND)
    assert (ops[first].peer, ops[first].tag) == ("n2", 1_000_000)
    programs["n1"] = Program("n1", ops[:first] + ops[first + 1:])
    plan = FaultPlan(name="loss", seed=7, sync_faults=[SyncFault(loss=0.2)])
    with pytest.raises(StallError) as exc_info:
        run(topo, programs, plan)
    diagnosis = exc_info.value.diagnosis
    assert diagnosis.time == 0.3
    assert diagnosis.suspected_cause == "active fault(s): sync-fault *->* loss=0.2"
    assert diagnosis.blocked_phases == [1, 2, 3]
    assert [(b.rank, b.kind, b.peer, b.phase) for b in diagnosis.blocked] == [
        ("n0", "sync_recv", "n2", 3),
        ("n1", "waitall", "", 2),
        ("n2", "sync_recv", "n1", 1),
        ("n3", "waitall", "", 1),
    ]
    assert [(p.src, p.dst, p.phase, p.state) for p in diagnosis.pending_syncs] == [
        ("n1", "n2", 1, "unmatched-recv"),
        ("n2", "n0", 3, "unmatched-recv"),
    ]
    assert diagnosis.completed_pairs == [
        ("n0", "n1"), ("n1", "n3"), ("n2", "n0"), ("n3", "n0"), ("n3", "n2"),
    ]
