"""Bit-exact output of every recovery decision a fault plan drives.

Pre-run triage (:func:`assess_fault_plan`), the repair trigger
(:func:`plan_threatens_schedule`), the fallback chooser
(:func:`choose_fallback`), schedule repair (:func:`repair_schedule`) and
the resilient runtime (:func:`run_resilient`) all read a plan's
permanent damage: its dead links, its capacity floors, its permanently
failed links and its sync blackouts.  One digest below hashes what each
of them decides over a matrix of topologies and plans.  It was recorded
while each module still worked those answers out for itself, so it
holds that asking the plan once changed no verdict, reason, repair
decision, fallback, completion time or stall diagnosis.  It was
re-recorded once since, when the watchdog stopped counting flows that
still move bytes as a stall: MPICH's ordered-isend runs under the
``link-failure`` and ``trunk-failed`` plans (a trunk failed down to a
residual capacity) had stalled at t = 0.3 s with every in-flight flow
at a positive rate; they now finish in place, at the completion time a
run with the watchdog disarmed reached before.

Topologies: the paper's Figure 1 cluster, the two- and three-switch
examples and a two-switch chain.  Plans: the built-in chaos sweep, a
permanent trunk degradation, a permanent trunk failure, a dead trunk, a
targeted permanent blackout on the generated plan's first sync and an
unrestricted total sync loss.
"""

import hashlib
from pathlib import Path

from repro.algorithms import get_algorithm
from repro.cli import _builtin_chaos_plans
from repro.core.synchronization import build_sync_plan
from repro.faults.plan import FaultPlan, LinkFault, SyncFault
from repro.faults.repair import plan_threatens_schedule, repair_schedule
from repro.faults.runtime import (
    assess_fault_plan,
    choose_fallback,
    run_resilient,
)
from repro.sim.params import NetworkParams
from repro.topology.builder import chain_of_switches, paper_example_cluster
from repro.topology.serialization import load_topology
from repro.units import kib

GOLDEN = (
    "a3ebf61585c31adc547aec623984a356fa3280d44f787ed27c90cee1b75f1ae7"
)

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"
MSIZE = kib(16)
SEED = 3


def _topologies():
    yield "fig1", paper_example_cluster()
    yield "two-switch", load_topology(str(EXAMPLES / "two-switch.topo"))
    yield "three-switch", load_topology(str(EXAMPLES / "three-switch.topo"))
    yield "chain-2-2", chain_of_switches([2, 2])


def _trunk(topo):
    return next(
        (u, v) for u, v in topo.links
        if topo.is_switch(u) and topo.is_switch(v)
    )


def _plans(topo, template):
    trunk = _trunk(topo)
    first = build_sync_plan(template).syncs[0]
    yield from _builtin_chaos_plans(topo, 0)
    yield FaultPlan(
        name="trunk-degraded",
        link_faults=[LinkFault(link=trunk, factor=0.5)],
    )
    yield FaultPlan(
        name="trunk-failed",
        link_faults=[LinkFault(link=trunk, failed=True, residual=0.02)],
    )
    yield FaultPlan(
        name="trunk-dead",
        link_faults=[LinkFault(link=trunk, failed=True, residual=0.0)],
    )
    yield FaultPlan(
        name="first-sync-blackout",
        sync_faults=[SyncFault(loss=1.0, src=first.src, dst=first.dst)],
    )
    yield FaultPlan(name="total-sync-loss", sync_faults=[SyncFault(loss=1.0)])


def _hash_resilient(h, label, res):
    completion = res.result.completion_time if res.result is not None else None
    diagnosis = res.diagnosis.as_dict() if res.diagnosis is not None else None
    h.update(
        f"{label} {res.algorithm_used} {res.completed} "
        f"{res.decisions_dict()} {res.repairs_dict()} "
        f"{res.wasted_time!r} {completion!r} {diagnosis}\n".encode()
    )


def _hash_topology(h, label, topo):
    h.update(f"== {label}\n".encode())
    params = NetworkParams(seed=SEED)
    template = get_algorithm("generated").build_schedule(topo)
    for plan in _plans(topo, template):
        h.update(f"-- {plan.name}\n".encode())
        a = assess_fault_plan(topo, plan)
        h.update(
            f"assess {a.scheduled_viable} {a.partitioned} {a.reasons}\n".encode()
        )
        h.update(
            f"threat {plan_threatens_schedule(plan)} "
            f"fallback {choose_fallback(topo, plan)}\n".encode()
        )
        rr = repair_schedule(topo, template, plan, MSIZE, params)
        h.update(f"repair {[d.as_dict() for d in rr.decisions]}\n".encode())
        for algorithm in ("generated", "mpich"):
            res = run_resilient(topo, algorithm, MSIZE, params, faults=plan)
            _hash_resilient(h, algorithm, res)
    failed = FaultPlan(
        name="trunk-failed",
        link_faults=[LinkFault(link=_trunk(topo), failed=True)],
    )
    res = run_resilient(
        topo, "generated", MSIZE, params, faults=failed,
        pre_assess=False, repair=False,
    )
    _hash_resilient(h, "unassessed", res)


def test_recovery_digest():
    h = hashlib.sha256()
    for label, topo in _topologies():
        _hash_topology(h, label, topo)
    assert h.hexdigest() == GOLDEN
