"""Incremental schedule repair against degraded topologies.

The paper's contention-free schedules assume the topology they were
built for.  A fault plan that permanently degrades or fails links (or
blacks out sync channels) voids that assumption — and before this
module the resilient runtime's only answer was to abandon the schedule
and restart with pairwise/ring, throwing away the scheduling advantage
the repo exists to demonstrate.  :func:`repair_schedule` heals instead:

1. **Re-partition the residual pair set.**  The not-yet-completed
   (src, dst) pairs are re-packed into contention-free phases with
   :func:`~repro.core.scheduler.schedule_pairs`, seeded by the original
   phase assignment so untouched structure is preserved (a pre-run
   repair of the full pattern reproduces the original optimal schedule
   exactly; a mid-run resume compacts the surviving tail).  On a tree
   paths are unique, so repair never *reroutes* — it re-partitions
   phases and restructures synchronization.
2. **Re-verify against the degraded topology.**  The repaired schedule
   must pass the :mod:`repro.core.verify` ground-truth checkers —
   completeness over the pending pairs, endpoint discipline, contention
   freedom — and must not route anything over a dead
   (``residual=0``) link.
3. **Regenerate the sync plan.**  Pair-wise synchronization is rebuilt
   for the repaired phases only.  Tier ``"repair"`` demands every sync
   be deliverable (no path over a permanently failed link, no permanent
   total-loss blackout).  Tier ``"repair-relaxed"`` drops undeliverable
   syncs — accepting bounded serialization on the degraded link — and
   gates the predicted contention cost through the attribution
   machinery (:func:`repro.obs.attribution.check_budgets`) so a repair
   that would cost more than :data:`RELAX_CONTENTION_BUDGET` × the
   Section 3 optimum is rejected in favour of the pairwise/ring
   fallback.

Every question repair asks about the plan is time-free and answered by
the plan: its dead links
(:meth:`~repro.faults.plan.FaultPlan.dead_link_faults`), its sync
blackouts (:meth:`~repro.faults.plan.FaultPlan.sync_blackouts`) and,
along each path, its capacity floors and permanently failed links
(:class:`~repro.faults.plan.PathDamage`).

Every attempt is recorded as a typed
:class:`~repro.faults.events.RepairDecision` and counted in the
hot-path metrics registry (``repair.repairs_attempted/succeeded``,
``repair.phases_rewritten``, ``repair.pairs_rescheduled``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import SchedulingError, VerificationError
from repro.core.pattern import Message, aapc_message_set
from repro.core.schedule import PhasedSchedule
from repro.core.scheduler import schedule_pairs
from repro.core.synchronization import (
    SyncMessage,
    SyncPlan,
    build_sync_plan,
    split_sync_plan,
)
from repro.core.verify import verify_schedule, verify_schedule_for_pairs
from repro.faults.events import RepairDecision
from repro.faults.plan import FaultPlan, PathDamage, SyncFault
from repro.obs.metrics_registry import metric_inc
from repro.sim.params import NetworkParams
from repro.topology.analysis import aapc_load
from repro.topology.graph import Topology

#: Ceiling on the relaxed tier's predicted serialization cost, as a
#: fraction of the Section 3 optimum (``load * msize / B``).  A
#: permanently *failed* link (residual goodput ~2%) blows through this
#: immediately — exactly the cases that should keep falling back —
#: while moderate degradations repair cheaply.
RELAX_CONTENTION_BUDGET = 1.0


@dataclass
class RepairResult:
    """What one repair attempt produced, across its tiers."""

    succeeded: bool
    #: "pre-run" | "mid-run"
    stage: str
    #: The repaired schedule and its (possibly filtered) sync plan,
    #: when a tier succeeded.
    schedule: Optional[PhasedSchedule]
    sync_plan: Optional[SyncPlan]
    #: One :class:`RepairDecision` per tier attempted, in order.
    decisions: List[RepairDecision] = field(default_factory=list)
    #: The pair set the repair was asked to realise.
    pending: Tuple[Message, ...] = ()
    #: Syncs the relaxed tier dropped as undeliverable.
    dropped_syncs: Tuple[SyncMessage, ...] = ()

    @property
    def tier(self) -> str:
        """The tier that succeeded (or the last one attempted)."""
        return self.decisions[-1].tier if self.decisions else "repair"


def plan_threatens_schedule(plan: FaultPlan) -> bool:
    """Does *plan* contain faults schedule repair should plan around?

    Permanent link faults (degradation or failure — every tree link is
    on some AAPC path) and *unrestricted* permanent sync blackouts.
    Targeted blackouts (specific src/dst) are left to mid-run discovery:
    a real implementation learns which channel is dead when it stalls,
    not from the fault declaration.  Transient windows are left to the
    retry/backoff protocol and the watchdog.
    """
    if plan.permanent_link_faults():
        return True
    return any(not sf.targeted for sf in plan.sync_blackouts())


def sync_deliverable(
    sync: SyncMessage,
    damage: PathDamage,
    blackouts: Sequence[SyncFault],
) -> bool:
    """Can this control message ever arrive on the degraded topology?"""
    if damage.blocked_forever(sync.src, sync.dst) is not None:
        return False
    return not any(sf.covers(sync.src, sync.dst) for sf in blackouts)


def predicted_serialization_cost(
    dropped: Sequence[SyncMessage],
    damage: PathDamage,
    msize: int,
    params: NetworkParams,
) -> float:
    """Worst-case seconds of serialization the dropped syncs may cost.

    Each dropped sync leaves one conflicting cross-phase pair unordered;
    if the later message drifts into the earlier one they serialize on
    their shared edges for as long as the earlier transfer occupies
    them — i.e. for the earlier message's full transfer time across
    *its* bottleneck.  The bound therefore charges one extra message
    transfer at the worst capacity floor over the union of both data
    paths.  Through a permanently failed link (residual goodput) that
    term alone dwarfs the optimum, which is what pushes full failures
    to the fallback tier.
    """
    total = 0.0
    for s in dropped:
        floor = min(
            damage.floor(s.after.src, s.after.dst),
            damage.floor(s.before.src, s.before.dst),
        )
        total += msize / (params.bandwidth * floor)
    return total


def check_contention_budget(
    topology: Topology,
    msize: int,
    params: NetworkParams,
    predicted: float,
) -> Tuple[bool, str]:
    """Gate a predicted contention cost against the relaxed-tier budget.

    Builds a predictive :class:`~repro.obs.attribution.AttributionReport`
    whose only gap component is the predicted contention and runs it
    through :func:`~repro.obs.attribution.check_budgets` against the
    same load-based optimum the ``explain`` subcommand uses, so repair
    decisions and post-run attribution speak the same units.
    """
    from repro.obs.attribution import (
        GAP_COMPONENTS,
        AttributionReport,
        check_budgets,
    )

    optimum = aapc_load(topology) * msize / params.bandwidth
    if optimum <= 0:
        return False, "no load-based optimum to budget against"
    components = {c: 0.0 for c in GAP_COMPONENTS}
    components["contention"] = predicted
    report = AttributionReport(
        algorithm="repair-relaxed",
        num_ranks=topology.num_machines,
        msize=msize,
        measured_completion=optimum + predicted,
        theoretical_optimum=optimum,
        achievable_optimum=optimum,
        components=components,
    )
    violations = check_budgets(report, {"contention": RELAX_CONTENTION_BUDGET})
    if violations:
        return False, f"predicted {violations[0]}"
    return True, (
        f"predicted serialization {predicted * 1e3:.3f} ms is within "
        f"{RELAX_CONTENTION_BUDGET * 100:g}% of the load optimum "
        f"({optimum * 1e3:.3f} ms)"
    )


def _diff_against_template(
    template: PhasedSchedule,
    repaired: PhasedSchedule,
    pending: Set[Message],
) -> Tuple[int, int]:
    """(phases whose content changed, messages placed in a new phase).

    The template is restricted to the pending pairs first, so a mid-run
    compaction is compared against the surviving tail of the original
    schedule, not against already-delivered messages.
    """
    orig: Dict[int, Set[Message]] = {}
    orig_phase: Dict[Message, int] = {}
    for sm in template.all_messages():
        if sm.message in pending:
            orig.setdefault(sm.phase, set()).add(sm.message)
            orig_phase[sm.message] = sm.phase
    new: Dict[int, Set[Message]] = {}
    rescheduled = 0
    for sm in repaired.all_messages():
        new.setdefault(sm.phase, set()).add(sm.message)
        if orig_phase.get(sm.message) != sm.phase:
            rescheduled += 1
    phases = set(orig) | set(new)
    rewritten = sum(
        1 for p in phases if orig.get(p, set()) != new.get(p, set())
    )
    return rewritten, rescheduled


def repair_schedule(
    topology: Topology,
    schedule: PhasedSchedule,
    plan: FaultPlan,
    msize: int,
    params: NetworkParams,
    *,
    pending: Optional[Sequence[Message]] = None,
    stage: str = "pre-run",
    time: float = 0.0,
) -> RepairResult:
    """Repair *schedule* against *plan*, trying strict then relaxed tiers.

    Parameters
    ----------
    pending:
        The not-yet-completed (src, dst) pairs; defaults to the full
        AAPC pattern (pre-run repair).  A mid-run resume passes the
        complement of :attr:`StallDiagnosis.completed_pairs`.
    stage:
        ``"pre-run"`` preserves the original phase structure (hint
        seeding); ``"mid-run"`` compacts the residual pairs into the
        fewest feasible phases.
    """
    full = aapc_message_set(topology)
    pend: Tuple[Message, ...] = (
        tuple(sorted(full)) if pending is None else tuple(sorted(pending))
    )
    pend_set = set(pend)
    completed = len(full) - len(pend_set)
    decisions: List[RepairDecision] = []

    dead = {frozenset(lf.link) for lf in plan.dead_link_faults()}
    metric_inc("repair.repairs_attempted")
    try:
        repaired = schedule_pairs(
            topology,
            pend,
            template=schedule,
            compact=(stage == "mid-run"),
            forbidden_edges=dead,
        )
        if pend_set == full:
            verify_schedule(repaired)
        else:
            verify_schedule_for_pairs(repaired, pend_set, forbidden_edges=dead)
    except (SchedulingError, VerificationError) as exc:
        decisions.append(
            RepairDecision(
                time, stage, "repair", False,
                f"re-partition failed: {exc}",
                phases_before=schedule.num_phases,
                pairs_completed=completed,
            )
        )
        return RepairResult(False, stage, None, None, decisions, pend)

    rewritten, rescheduled = _diff_against_template(
        schedule, repaired, pend_set
    )
    sync_plan = build_sync_plan(repaired)
    damage = PathDamage(plan, topology)
    blackouts = plan.sync_blackouts()
    kept_plan, dropped = split_sync_plan(
        sync_plan, lambda s: sync_deliverable(s, damage, blackouts)
    )
    shape = dict(
        phases_before=schedule.num_phases,
        phases_after=repaired.num_phases,
        phases_rewritten=rewritten,
        pairs_rescheduled=rescheduled,
        pairs_completed=completed,
        syncs_total=len(sync_plan.syncs),
        syncs_dropped=len(dropped),
    )

    if not dropped:
        decision = RepairDecision(
            time, stage, "repair", True,
            (
                f"re-partitioned {len(pend)} pair(s) into "
                f"{repaired.num_phases} contention-free phase(s); all "
                f"{len(sync_plan.syncs)} sync(s) deliverable on the "
                "degraded topology"
            ),
            **shape,
        )
        decisions.append(decision)
        _count_success(decision)
        return RepairResult(
            True, stage, repaired, sync_plan, decisions, pend
        )

    decisions.append(
        RepairDecision(
            time, stage, "repair", False,
            (
                f"{len(dropped)} sync(s) undeliverable on the degraded "
                "topology (failed link or permanent sync blackout on "
                "their path)"
            ),
            **shape,
        )
    )

    # Tier 2: drop the undeliverable syncs, bound the contention cost.
    metric_inc("repair.repairs_attempted")
    predicted = predicted_serialization_cost(dropped, damage, msize, params)
    ok, why = check_contention_budget(topology, msize, params, predicted)
    decision = RepairDecision(
        time, stage, "repair-relaxed", ok, why,
        predicted_cost=predicted,
        **shape,
    )
    decisions.append(decision)
    if ok:
        _count_success(decision)
        return RepairResult(
            True, stage, repaired, kept_plan, decisions, pend,
            tuple(dropped),
        )
    return RepairResult(
        False, stage, None, None, decisions, pend, tuple(dropped)
    )


def _count_success(decision: RepairDecision) -> None:
    metric_inc("repair.repairs_succeeded")
    metric_inc("repair.phases_rewritten", decision.phases_rewritten)
    metric_inc("repair.pairs_rescheduled", decision.pairs_rescheduled)
