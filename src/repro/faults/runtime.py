"""Resilient execution: assess fault plans, repair schedules, fall back.

The generated (scheduled) routine depends on pair-wise synchronization
messages.  Under a fault plan those can be permanently unrecoverable —
a failed link drops every control message crossing it — in which case
running the scheduled routine just burns simulated time until the stall
watchdog aborts it.  This module implements the policy layer as a
**three-tier recovery ladder**:

1. **Repair** (:mod:`repro.faults.repair`) — re-partition the pending
   pairs into contention-free phases on the degraded topology and
   regenerate the sync plan, keeping the scheduled algorithm alive.
2. **Relaxed repair** — same, but undeliverable syncs are dropped when
   their predicted serialization cost stays within the fixed
   attribution budget :data:`~repro.faults.repair.RELAX_CONTENTION_BUDGET`
   (bounded contention instead of an algorithm switch).
3. **Fallback** — abandon the schedule for a sync-free baseline; the
   algorithm is picked by :func:`choose_fallback`, which consults the
   degraded topology's residual link capacities rather than only the
   rank count.

* :func:`assess_fault_plan` — pre-run triage.  Checks the schedule's
  contention-freedom guarantee against the degraded topology (a
  permanently failed link that carries traffic voids it: everything
  crossing the link serialises behind its residual trickle) and
  decides whether the sync-dependent scheduled routine can complete at
  all.  Like repair and the fallback chooser, it reads the plan's
  time-free damage from the plan itself (dead links, permanently failed
  links, sync blackouts, capacity floors); only the simulated run
  consults the :class:`~repro.faults.injector.FaultInjector`.
* :func:`run_resilient` — run an algorithm under a plan with the
  watchdog armed (its default config, whenever the plan is non-empty),
  climbing the ladder *pre-run* (the plan declares
  permanent damage) or *mid-run* (the watchdog fired; the residual pair
  set from the stall diagnosis is re-packed and the run resumed).
  Every repair attempt is a typed
  :class:`~repro.faults.events.RepairDecision`, every algorithm switch
  a :class:`~repro.faults.events.FallbackDecision` — both carried on
  the result and (with ``telemetry=True``) into
  ``RunTelemetry.recovery_decisions`` for the Perfetto faults track.  A
  plan that partitions the cluster (``residual=0`` permanent failure)
  is reported as unrecoverable instead of hanging.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.errors import StallError
from repro.algorithms.registry import get_algorithm
from repro.core.pattern import aapc_message_set
from repro.core.program import build_programs
from repro.faults.events import FallbackDecision, RepairDecision
from repro.faults.plan import FaultPlan, PathDamage
from repro.faults.repair import plan_threatens_schedule, repair_schedule
from repro.faults.watchdog import StallDiagnosis
from repro.sim.executor import RunResult, run_programs
from repro.sim.params import NetworkParams
from repro.topology.analysis import subtree_machine_counts
from repro.topology.graph import Topology

#: Algorithms whose correctness depends on pair-wise sync messages.
SYNC_DEPENDENT = frozenset({"generated", "scheduled"})


def fallback_algorithm(num_machines: int) -> str:
    """The sync-free algorithm to degrade to: pairwise needs 2^k ranks."""
    n = num_machines
    if n >= 2 and (n & (n - 1)) == 0:
        return "mpich-pairwise"
    return "mpich-ring"


def _stepwise_cost(
    topology: Topology,
    damage: PathDamage,
    send_peer: Callable[[int, int, int], int],
    num_steps: int,
) -> float:
    """Step-synchronous completion estimate on the degraded topology.

    Each step of pairwise/ring is a barrier-like exchange: it finishes
    when its most loaded link does.  Per step, cost = max over directed
    edges of (messages crossing it) / (its capacity floor); the
    algorithm's cost is the sum over steps, in message-transfer units.
    """
    machines = topology.machines
    n = len(machines)
    total = 0.0
    for step in range(num_steps):
        usage: Dict[tuple, int] = {}
        for i in range(n):
            peer = send_peer(i, n, step)
            if peer == i:
                continue
            for edge in damage.oracle.path_edges(machines[i], machines[peer]):
                usage[edge] = usage.get(edge, 0) + 1
        worst = 0.0
        for edge, count in usage.items():
            worst = max(worst, count / damage.edge_floor(edge))
        total += worst
    return total


def choose_fallback(
    topology: Topology,
    plan: Optional[FaultPlan] = None,
) -> str:
    """Pick the sync-free fallback, consulting residual link capacities.

    Without link faults this is the classic rank-count rule
    (:func:`fallback_algorithm`).  With a degraded topology, pairwise
    and ring are costed step by step against the plan's per-link
    capacity floors (:class:`~repro.faults.plan.PathDamage`) and ring
    wins when it is *meaningfully* cheaper.  Both baselines
    move the same total bytes over every link, so on symmetric trees
    the costs usually land within a few percent of each other; ring
    only overrides the rank-count rule past a 5% margin, where the
    degradation pattern genuinely favours spreading the crossings of
    the slow link across steps instead of pairwise's XOR bursts.
    """
    n = topology.num_machines
    base = fallback_algorithm(n)
    if plan is None or plan.empty or base == "mpich-ring":
        return base
    if min(plan.link_floor_factors().values(), default=1.0) >= 1.0:
        return base
    damage = PathDamage(plan, topology)
    # Send-peer formulas of PairwiseAlltoall / RingAlltoall
    # (repro.algorithms.mpich); counting sends counts every message.
    pairwise = _stepwise_cost(
        topology, damage, lambda i, n_, s: i ^ (s + 1), n - 1
    )
    ring = _stepwise_cost(
        topology, damage, lambda i, n_, s: (i + s + 1) % n_, n - 1
    )
    return "mpich-ring" if ring < 0.95 * pairwise else base


@dataclass
class FaultAssessment:
    """Pre-run triage verdict for a (topology, fault plan) pair."""

    #: The sync-dependent scheduled routine can complete under the plan.
    scheduled_viable: bool
    #: A residual-0 permanent failure splits the tree: nothing completes.
    partitioned: bool
    reasons: List[str] = field(default_factory=list)


def assess_fault_plan(topology: Topology, plan: FaultPlan) -> FaultAssessment:
    """Triage *plan* before running: what can still complete, and why.

    Any scheduled message whose path crosses a permanently failed link
    voids the schedule's contention-freedom guarantee, because that
    link's capacity collapse serialises every phase crossing it.  A
    link carries AAPC traffic iff both of its sides hold a machine.

    Note ``scheduled_viable=False`` means the *original* schedule cannot
    complete as built; :func:`run_resilient` still tries schedule repair
    before falling back.
    """
    plan.validate_against(topology)
    reasons: List[str] = []
    dead = [lf.link for lf in plan.dead_link_faults()]
    if dead:
        reasons.append(
            f"link(s) {dead} are permanently dead (residual=0): the tree "
            "is partitioned, no algorithm can complete"
        )

    # A permanently failed link drops every control (sync) message
    # crossing it, forever — the retry/backoff protocol cannot recover,
    # so any sync edge routed over it makes the scheduled routine stall.
    counts = subtree_machine_counts(topology)
    affected = {
        tuple(sorted(lf.link))
        for lf in plan.permanent_link_failures()
        if counts[tuple(lf.link)] and counts[tuple(lf.link)[::-1]]
    }
    if affected:
        reasons.append(
            "permanent link failure(s) on "
            f"{sorted(affected)} drop sync "
            "messages forever; the scheduled routine cannot complete "
            "and its contention-freedom guarantee is void on the "
            "degraded topology"
        )

    blackouts = [sf for sf in plan.sync_blackouts() if not sf.targeted]
    for _ in blackouts:
        reasons.append(
            "a permanent total sync-loss fault (loss=1, no end) makes "
            "every pair-wise synchronization unrecoverable"
        )

    return FaultAssessment(
        scheduled_viable=not (dead or affected or blackouts),
        partitioned=bool(dead),
        reasons=reasons,
    )
@dataclass
class ResilientResult:
    """What :func:`run_resilient` did, end to end."""

    #: The successful run, if any algorithm completed.
    result: Optional[RunResult]
    #: Algorithm that actually completed ("none" if nothing did).
    algorithm_used: str
    requested_algorithm: str
    decisions: List[FallbackDecision] = field(default_factory=list)
    #: Schedule-repair attempts (tiers 1 and 2), in order.
    repairs: List[RepairDecision] = field(default_factory=list)
    #: Watchdog diagnosis of the aborted attempt, when one stalled.
    diagnosis: Optional[StallDiagnosis] = None
    assessment: Optional[FaultAssessment] = None
    completed: bool = False
    #: Simulated seconds burnt by abandoned attempts before the run
    #: that completed (stall time of every aborted try).
    wasted_time: float = 0.0

    @property
    def fell_back(self) -> bool:
        return self.completed and self.algorithm_used != self.requested_algorithm

    @property
    def repaired(self) -> bool:
        """The requested algorithm survived via schedule repair."""
        return (
            self.completed
            and not self.fell_back
            and any(r.succeeded for r in self.repairs)
        )

    @property
    def total_time(self) -> float:
        """True end-to-end cost: wasted stall time + completing run."""
        run = self.result.completion_time if self.result is not None else 0.0
        return self.wasted_time + run

    def decisions_dict(self) -> List[Dict[str, object]]:
        return [d.as_dict() for d in self.decisions]

    def repairs_dict(self) -> List[Dict[str, object]]:
        return [r.as_dict() for r in self.repairs]


def run_resilient(
    topology: Topology,
    algorithm: str,
    msize: int,
    params: NetworkParams,
    *,
    faults: Optional[FaultPlan] = None,
    pre_assess: bool = True,
    repair: bool = True,
    telemetry: bool = False,
    max_trace_records: Optional[int] = None,
) -> ResilientResult:
    """Run *algorithm* under *faults*, degrading gracefully when it cannot finish.

    Policy, in order: (1) with *pre_assess*, triage the plan — a
    partitioned cluster aborts immediately; (2) with *repair*, a
    sync-dependent algorithm facing declared permanent damage gets its
    schedule repaired against the degraded topology (strict tier, then
    relaxed tier bounded by
    :data:`~repro.faults.repair.RELAX_CONTENTION_BUDGET`) so the
    requested algorithm can still complete; (3) only if repair fails
    does a pre-run :class:`~repro.faults.events.FallbackDecision` switch
    to the fallback picked by :func:`choose_fallback`; (4) the run
    executes with the stall watchdog armed (default config, whenever the
    plan is non-empty); (5) a mid-run stall first tries a mid-run repair
    — the stall diagnosis's completed pairs define the residual pair
    set, which is re-packed, re-synchronized and resumed — and only then
    restarts with the fallback (modelling an implementation that
    restarts the collective with a conservative algorithm after a
    timeout); (6) if the fallback stalls too, give up and report the
    diagnosis instead of hanging.
    """
    plan = faults
    requested = algorithm
    decisions: List[FallbackDecision] = []
    repairs: List[RepairDecision] = []
    assessment: Optional[FaultAssessment] = None

    @functools.cache
    def fallback() -> str:
        """The fallback algorithm, chosen on first use: most runs under a
        plan complete without one, and costing it builds a
        :class:`~repro.faults.plan.PathDamage`."""
        return choose_fallback(topology, plan)

    def run_with(programs, expected_blocks=None) -> RunResult:
        return run_programs(
            topology,
            programs,
            msize,
            params,
            faults=plan,
            telemetry=telemetry,
            max_trace_records=max_trace_records,
            expected_blocks=expected_blocks,
        )

    def attempt(name: str) -> RunResult:
        algo = get_algorithm(name)
        return run_with(algo.build_programs(topology, msize))

    def repaired_programs(**stage):
        """Repair the requested schedule; its programs, or None on failure."""
        template = get_algorithm(algorithm).build_schedule(topology)
        rr = repair_schedule(topology, template, plan, msize, params, **stage)
        repairs.extend(rr.decisions)
        if not rr.succeeded:
            return None
        return build_programs(rr.schedule, rr.sync_plan, sync_mode="pairwise")

    def outcome(
        result: Optional[RunResult],
        used: str,
        wasted: float,
        diagnosis: Optional[StallDiagnosis],
    ) -> ResilientResult:
        if result is not None and result.telemetry is not None:
            result.telemetry.recovery_decisions = (
                tuple(repairs) + tuple(decisions)
            )
        return ResilientResult(
            result=result,
            algorithm_used=used,
            requested_algorithm=requested,
            decisions=decisions,
            repairs=repairs,
            diagnosis=diagnosis,
            assessment=assessment,
            completed=result is not None,
            wasted_time=wasted,
        )

    def abort(
        time: float,
        stalled: str,
        cause: str,
        wasted: float,
        diagnosis: Optional[StallDiagnosis],
    ) -> ResilientResult:
        decisions.append(
            FallbackDecision(
                time, "abort", stalled, "none", cause, wasted_time=wasted
            )
        )
        return outcome(None, "none", wasted, diagnosis)

    have_faults = plan is not None and not plan.empty
    if have_faults and pre_assess:
        assessment = assess_fault_plan(topology, plan)
        if assessment.partitioned:
            return abort(
                0.0, algorithm, "; ".join(assessment.reasons), 0.0, None
            )

    # Tier 1/2: pre-run schedule repair against declared permanent damage.
    programs = None
    if (
        have_faults
        and repair
        and algorithm in SYNC_DEPENDENT
        and plan_threatens_schedule(plan)
    ):
        programs = repaired_programs()

    # Tier 3 (pre-run): fall back only when repair did not rescue it.
    chosen = algorithm
    if (
        assessment is not None
        and algorithm in SYNC_DEPENDENT
        and not assessment.scheduled_viable
        and programs is None
    ):
        chosen = fallback()
        decisions.append(
            FallbackDecision(
                0.0, "pre-run", algorithm, chosen,
                "; ".join(assessment.reasons)
                or "fault plan makes sync messages unrecoverable",
            )
        )

    diagnosis: Optional[StallDiagnosis] = None
    wasted = 0.0
    try:
        if programs is not None:
            result = run_with(programs)
        else:
            result = attempt(chosen)
        return outcome(result, chosen, wasted, None)
    except StallError as exc:
        diagnosis = exc.diagnosis
        stall_time = diagnosis.time if diagnosis is not None else 0.0
        wasted = stall_time
        cause = (
            diagnosis.suspected_cause if diagnosis is not None else str(exc)
        )
        if chosen == fallback():
            return abort(stall_time, chosen, cause, wasted, diagnosis)

        # Tier 1/2 (mid-run): re-pack the residual pairs and resume.
        # Crashed ranks cannot be repaired around — their pairs are
        # unsendable — so crashes go straight to the fallback tier.
        if (
            repair
            and have_faults
            and chosen in SYNC_DEPENDENT
            and diagnosis is not None
            and not diagnosis.crashed_ranks
        ):
            done = {tuple(p) for p in diagnosis.completed_pairs}
            pending = sorted(
                m
                for m in aapc_message_set(topology)
                if (m.src, m.dst) not in done
            )
            programs = repaired_programs(
                pending=pending, stage="mid-run", time=stall_time
            )
            if programs is not None:
                expected = {m: set() for m in topology.machines}
                for msg in pending:
                    expected[msg.dst].add((msg.src, msg.dst))
                try:
                    result = run_with(programs, expected)
                    return outcome(result, chosen, wasted, diagnosis)
                except StallError as exc2:
                    if exc2.diagnosis is not None:
                        diagnosis = exc2.diagnosis
                        wasted += diagnosis.time
                        cause = diagnosis.suspected_cause

        decisions.append(
            FallbackDecision(
                stall_time, "mid-run", chosen, fallback(), cause,
                wasted_time=wasted,
            )
        )

    fb = fallback()
    try:
        result = attempt(fb)
        return outcome(result, fb, wasted, diagnosis)
    except StallError as exc:
        final = exc.diagnosis if exc.diagnosis is not None else diagnosis
        if exc.diagnosis is not None:
            wasted += exc.diagnosis.time
        return abort(
            final.time if final is not None else 0.0,
            fb,
            final.suspected_cause if final is not None else str(exc),
            wasted,
            final,
        )
