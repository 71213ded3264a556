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
   their predicted serialization cost stays within an attribution
   budget (bounded contention instead of an algorithm switch).
3. **Fallback** — abandon the schedule for a sync-free baseline; the
   algorithm is picked by :func:`choose_fallback`, which consults the
   degraded topology's residual link capacities rather than only the
   rank count.

* :func:`assess_fault_plan` — pre-run triage.  Checks the schedule's
  contention-freedom guarantee against the degraded topology (a
  permanently failed link that carries traffic voids it: everything
  crossing the link serialises behind its residual trickle) and
  decides whether the sync-dependent scheduled routine can complete at
  all.
* :func:`run_resilient` — run an algorithm under a plan with the
  watchdog armed, climbing the ladder *pre-run* (the plan declares
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

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.errors import ReproError, StallError
from repro.algorithms.registry import get_algorithm
from repro.core.pattern import aapc_message_set
from repro.core.program import build_programs
from repro.faults.events import FallbackDecision, RepairDecision
from repro.faults.plan import FOREVER, FaultPlan
from repro.faults.repair import (
    RELAX_CONTENTION_BUDGET,
    plan_threatens_schedule,
    repair_schedule,
)
from repro.faults.watchdog import StallDiagnosis, WatchdogConfig
from repro.sim.executor import RunResult, run_programs
from repro.sim.params import NetworkParams
from repro.topology.analysis import subtree_machine_counts
from repro.topology.graph import Topology
from repro.topology.paths import PathOracle

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
    oracle: PathOracle,
    floors: Dict[frozenset, float],
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
            for edge in oracle.path_edges(machines[i], machines[peer]):
                usage[edge] = usage.get(edge, 0) + 1
        worst = 0.0
        for edge, count in usage.items():
            floor = max(floors.get(frozenset(edge), 1.0), 1e-9)
            worst = max(worst, count / floor)
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
    capacity floors (:meth:`~repro.faults.plan.FaultPlan.link_floor_factors`)
    and ring wins when it is *meaningfully* cheaper.  Both baselines
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
    floors = plan.link_floor_factors()
    if not floors or min(floors.values()) >= 1.0:
        return base
    oracle = PathOracle(topology)
    # Send-peer formulas of PairwiseAlltoall / RingAlltoall
    # (repro.algorithms.mpich); counting sends counts every message.
    pairwise = _stepwise_cost(
        topology, oracle, floors, lambda i, n_, s: i ^ (s + 1), n - 1
    )
    ring = _stepwise_cost(
        topology, oracle, floors, lambda i, n_, s: (i + s + 1) % n_, n - 1
    )
    return "mpich-ring" if ring < 0.95 * pairwise else base


@dataclass
class FaultAssessment:
    """Pre-run triage verdict for a (topology, fault plan) pair."""

    #: The sync-dependent scheduled routine can complete under the plan.
    scheduled_viable: bool
    #: A sync-free fallback can complete (data still flows everywhere).
    fallback_viable: bool
    #: A residual-0 permanent failure splits the tree: nothing completes.
    partitioned: bool
    #: The schedule's contention-freedom guarantee survives the plan.
    contention_free: bool
    reasons: List[str] = field(default_factory=list)

    def as_dict(self) -> Dict[str, object]:
        return {
            "scheduled_viable": self.scheduled_viable,
            "fallback_viable": self.fallback_viable,
            "partitioned": self.partitioned,
            "contention_free": self.contention_free,
            "reasons": list(self.reasons),
        }


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
    permanent = plan.permanent_link_failures()
    partitioned = any(lf.residual <= 0 for lf in permanent)
    if partitioned:
        dead = [lf.link for lf in permanent if lf.residual <= 0]
        reasons.append(
            f"link(s) {dead} are permanently dead (residual=0): the tree "
            "is partitioned, no algorithm can complete"
        )

    scheduled_viable = True
    contention_free = True

    # A permanently failed link drops every control (sync) message
    # crossing it, forever — the retry/backoff protocol cannot recover,
    # so any sync edge routed over it makes the scheduled routine stall.
    counts = subtree_machine_counts(topology)
    affected = {
        tuple(sorted(lf.link))
        for lf in permanent
        if counts[tuple(lf.link)] and counts[tuple(lf.link)[::-1]]
    }
    if affected:
        scheduled_viable = False
        contention_free = False
        reasons.append(
            "permanent link failure(s) on "
            f"{sorted(affected)} drop sync "
            "messages forever; the scheduled routine cannot complete "
            "and its contention-freedom guarantee is void on the "
            "degraded topology"
        )

    for sf in plan.sync_faults:
        if (
            sf.loss >= 1.0
            and sf.end == FOREVER
            and sf.src is None
            and sf.dst is None
        ):
            scheduled_viable = False
            reasons.append(
                "a permanent total sync-loss fault (loss=1, no end) makes "
                "every pair-wise synchronization unrecoverable"
            )

    return FaultAssessment(
        scheduled_viable=scheduled_viable and not partitioned,
        fallback_viable=not partitioned,
        partitioned=partitioned,
        contention_free=contention_free and not partitioned,
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
    watchdog: Optional[WatchdogConfig] = None,
    pre_assess: bool = True,
    repair: bool = True,
    relax_contention_budget: float = RELAX_CONTENTION_BUDGET,
    telemetry: bool = False,
    max_trace_records: Optional[int] = None,
) -> ResilientResult:
    """Run *algorithm* under *faults*, degrading gracefully when it cannot finish.

    Policy, in order: (1) with *pre_assess*, triage the plan — a
    partitioned cluster aborts immediately; (2) with *repair*, a
    sync-dependent algorithm facing declared permanent damage gets its
    schedule repaired against the degraded topology (strict tier, then
    relaxed tier bounded by *relax_contention_budget*) so the requested
    algorithm can still complete; (3) only if repair fails does a
    pre-run :class:`~repro.faults.events.FallbackDecision` switch to the
    fallback picked by :func:`choose_fallback`; (4) the run executes
    with the stall watchdog armed; (5) a mid-run stall first tries a
    mid-run repair — the stall diagnosis's completed pairs define the
    residual pair set, which is re-packed, re-synchronized and resumed —
    and only then restarts with the fallback (modelling an
    implementation that restarts the collective with a conservative
    algorithm after a timeout); (6) if the fallback stalls too, give up
    and report the diagnosis instead of hanging.
    """
    plan = faults
    requested = algorithm
    decisions: List[FallbackDecision] = []
    repairs: List[RepairDecision] = []
    assessment: Optional[FaultAssessment] = None
    fb = choose_fallback(topology, plan)

    def run_with(programs, expected_blocks=None) -> RunResult:
        return run_programs(
            topology,
            programs,
            msize,
            params,
            faults=plan,
            watchdog=watchdog,
            telemetry=telemetry,
            max_trace_records=max_trace_records,
            expected_blocks=expected_blocks,
        )

    def attempt(name: str) -> RunResult:
        algo = get_algorithm(name)
        return run_with(algo.build_programs(topology, msize))

    def build_template(name: str):
        builder = getattr(get_algorithm(name), "build_schedule", None)
        if builder is None:
            return None
        try:
            return builder(topology)
        except ReproError:
            return None

    def finish(
        result: RunResult,
        used: str,
        wasted: float,
        diagnosis: Optional[StallDiagnosis],
    ) -> ResilientResult:
        if result.telemetry is not None:
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
            completed=True,
            wasted_time=wasted,
        )

    have_faults = plan is not None and not plan.empty
    if have_faults and pre_assess:
        assessment = assess_fault_plan(topology, plan)
        if assessment.partitioned:
            decisions.append(
                FallbackDecision(
                    0.0, "abort", algorithm, "none",
                    "; ".join(assessment.reasons),
                )
            )
            return ResilientResult(
                result=None,
                algorithm_used="none",
                requested_algorithm=requested,
                decisions=decisions,
                repairs=repairs,
                assessment=assessment,
                completed=False,
            )

    # Tier 1/2: pre-run schedule repair against declared permanent damage.
    repaired_programs = None
    if (
        have_faults
        and repair
        and algorithm in SYNC_DEPENDENT
        and plan_threatens_schedule(plan)
    ):
        template = build_template(algorithm)
        if template is not None:
            rr = repair_schedule(
                topology, template, plan, msize, params,
                relax_contention_budget=relax_contention_budget,
            )
            repairs.extend(rr.decisions)
            if rr.succeeded:
                repaired_programs = build_programs(
                    rr.schedule, rr.sync_plan, sync_mode="pairwise"
                )

    # Tier 3 (pre-run): fall back only when repair did not rescue it.
    chosen = algorithm
    if (
        assessment is not None
        and algorithm in SYNC_DEPENDENT
        and not assessment.scheduled_viable
        and repaired_programs is None
    ):
        decisions.append(
            FallbackDecision(
                0.0, "pre-run", algorithm, fb,
                "; ".join(assessment.reasons)
                or "fault plan makes sync messages unrecoverable",
            )
        )
        chosen = fb

    diagnosis: Optional[StallDiagnosis] = None
    wasted = 0.0
    try:
        if repaired_programs is not None and chosen == requested:
            result = run_with(repaired_programs)
        else:
            result = attempt(chosen)
        return finish(result, chosen, wasted, None)
    except StallError as exc:
        diagnosis = exc.diagnosis
        stall_time = diagnosis.time if diagnosis is not None else 0.0
        wasted = stall_time
        cause = (
            diagnosis.suspected_cause if diagnosis is not None else str(exc)
        )
        if chosen == fb:
            decisions.append(
                FallbackDecision(
                    stall_time, "abort", chosen, "none", cause,
                    wasted_time=wasted,
                )
            )
            return ResilientResult(
                result=None,
                algorithm_used="none",
                requested_algorithm=requested,
                decisions=decisions,
                repairs=repairs,
                diagnosis=diagnosis,
                assessment=assessment,
                completed=False,
                wasted_time=wasted,
            )

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
            template = build_template(chosen)
            if template is not None:
                done = {tuple(p) for p in diagnosis.completed_pairs}
                pending = sorted(
                    m
                    for m in aapc_message_set(topology)
                    if (m.src, m.dst) not in done
                )
                rr = repair_schedule(
                    topology, template, plan, msize, params,
                    pending=pending,
                    stage="mid-run",
                    time=stall_time,
                    relax_contention_budget=relax_contention_budget,
                )
                repairs.extend(rr.decisions)
                if rr.succeeded:
                    expected = {m: set() for m in topology.machines}
                    for msg in pending:
                        expected[msg.dst].add((msg.src, msg.dst))
                    programs = build_programs(
                        rr.schedule, rr.sync_plan, sync_mode="pairwise"
                    )
                    try:
                        result = run_with(programs, expected)
                        return finish(result, chosen, wasted, diagnosis)
                    except StallError as exc2:
                        if exc2.diagnosis is not None:
                            diagnosis = exc2.diagnosis
                            wasted += diagnosis.time
                            cause = diagnosis.suspected_cause

        decisions.append(
            FallbackDecision(
                stall_time, "mid-run", chosen, fb, cause,
                wasted_time=wasted,
            )
        )

    try:
        result = attempt(fb)
        return finish(result, fb, wasted, diagnosis)
    except StallError as exc:
        final = exc.diagnosis if exc.diagnosis is not None else diagnosis
        if exc.diagnosis is not None:
            wasted += exc.diagnosis.time
        decisions.append(
            FallbackDecision(
                final.time if final is not None else 0.0,
                "abort",
                fb,
                "none",
                final.suspected_cause if final is not None else str(exc),
                wasted_time=wasted,
            )
        )
        return ResilientResult(
            result=None,
            algorithm_used="none",
            requested_algorithm=requested,
            decisions=decisions,
            repairs=repairs,
            diagnosis=final,
            assessment=assessment,
            completed=False,
            wasted_time=wasted,
        )
