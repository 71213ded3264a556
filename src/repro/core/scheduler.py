"""Top-level AAPC scheduling pipeline.

:func:`schedule_aapc` chains root identification, extended-ring global
scheduling, and the six-step assignment into a verified
:class:`~repro.core.schedule.PhasedSchedule`.  Two local-embedding
strategies are available:

* ``"constructive"`` (default) — the paper's Figure 4 steps 3 and 5;
* ``"matching"`` — global messages as in the paper, local messages
  embedded by maximum bipartite matching against the feasibility
  conditions of Lemma 3.  Used as an independent oracle in tests and as
  defence in depth (the scheduler falls back to it automatically if the
  constructive embedding ever fails).

The trivial clusters the paper sets aside (``|M| <= 2``) are handled
directly: one machine needs no phases, two machines exchange their
messages in a single phase over the duplex link.
"""

from __future__ import annotations

from typing import (
    AbstractSet,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import SchedulingError
from repro.obs.metrics_registry import (
    add_counters,
    metric_inc,
    metric_observe,
    pipeline_span,
)
from repro.core.assignment import AssignmentState, assign_messages
from repro.core.assignment import (
    _step1_t0_to_others,
    _step2_others_to_t0,
    _step4_down_ring_globals,
    _step6_up_ring_globals,
)
from repro.core.global_schedule import GlobalSchedule, build_global_schedule
from repro.core.matching import hopcroft_karp
from repro.core.naive import first_fit
from repro.core.pattern import Message
from repro.core.root import RootInfo, identify_root
from repro.core.schedule import MessageKind, PhasedSchedule
from repro.core.verify import verify_schedule
from repro.topology.graph import Topology
from repro.topology.paths import PathOracle


def schedule_aapc(
    topology: Topology,
    *,
    verify: bool = True,
    local_embedding: str = "constructive",
    root: Optional[str] = None,
) -> PhasedSchedule:
    """Build the paper's contention-free AAPC schedule for *topology*.

    Parameters
    ----------
    topology:
        A validated (or validatable) cluster tree.
    verify:
        Run the ground-truth verifiers before returning (recommended;
        the cost is O(messages * path length)).
    local_embedding:
        ``"constructive"`` for the paper's steps 3/5, ``"matching"`` for
        the bipartite-matching embedding.
    root:
        Force a particular scheduling root (validated); by default the
        Section 4.1 procedure picks one.

    Returns
    -------
    PhasedSchedule
        ``|M_0| * (|M| - |M_0|)`` contention-free phases realising AAPC.
    """
    with pipeline_span("schedule_aapc"):
        if not topology.validated:
            topology.validate()
        m = topology.num_machines
        if m <= 2:
            schedule = _trivial_schedule(topology)
            add_counters(phases=schedule.num_phases, messages=len(schedule))
            return schedule

        with pipeline_span("root_identification"):
            info = identify_root(topology, root)
        with pipeline_span("global_schedule"):
            gs = build_global_schedule(info.sizes)

        with pipeline_span("phase_partitioning"):
            if local_embedding == "constructive":
                try:
                    schedule = assign_messages(topology, info, gs)
                except SchedulingError:
                    # Defence in depth: the constructive embedding is
                    # proven for valid inputs, but fall back to matching
                    # rather than fail.
                    metric_inc("scheduler.backtracks")
                    schedule = _assign_with_matching(topology, info, gs)
            elif local_embedding == "matching":
                schedule = _assign_with_matching(topology, info, gs)
            else:
                raise SchedulingError(
                    f"unknown local_embedding {local_embedding!r}; expected "
                    "'constructive' or 'matching'"
                )
        add_counters(phases=schedule.num_phases, messages=len(schedule))

        if verify:
            with pipeline_span("verify_schedule"):
                verify_schedule(schedule)
        return schedule


def schedule_pairs(
    topology: Topology,
    pending: Sequence[Message],
    *,
    template: Optional[PhasedSchedule] = None,
    compact: bool = False,
    forbidden_edges: AbstractSet[FrozenSet[str]] = frozenset(),
) -> PhasedSchedule:
    """Phase-partition an arbitrary pair set (the repair entry point).

    Unlike :func:`schedule_aapc`, which always schedules the full AAPC
    pattern, this packs exactly the *pending* messages into
    contention-free phases with the first-fit packer
    :func:`repro.core.naive.first_fit`.  Two properties make it usable
    for incremental schedule repair (:mod:`repro.faults.repair`):

    * **Hint seeding.**  When *template* is given, each message first
      tries the phase the template assigned it.  With the full pattern
      pending, every hint slot is feasible (the template phase was
      contention free), so the repacking reproduces the template exactly
      — including its optimal phase count and its message kinds.
    * **Compaction.**  With ``compact=True`` hints only order the
      placement; each message lands in its earliest feasible phase, so
      a residual pair set (mid-run resume) packs into fewer phases than
      the template's tail.

    *forbidden_edges* are physical links (as ``frozenset({u, v})``) no
    scheduled path may use — a dead link makes its pairs unschedulable
    and raises :class:`SchedulingError`.  The result is not verified;
    the caller runs the verifier that fits its pair set
    (:func:`~repro.core.verify.verify_schedule_for_pairs`).
    """
    with pipeline_span("schedule_pairs"):
        if not topology.validated:
            topology.validate()
        oracle = PathOracle(topology)

        hints: Dict[Message, int] = {}
        kinds: Dict[Message, Tuple[MessageKind, Tuple[int, int]]] = {}
        if template is not None:
            for sm in template.all_messages():
                hints[sm.message] = sm.phase
                kinds[sm.message] = (sm.kind, sm.group)

        order = sorted(pending, key=lambda m: (hints.get(m, 1 << 30), m))
        if len(set(order)) != len(order):
            raise SchedulingError("pending pair set contains duplicates")
        if forbidden_edges:
            for msg in order:
                for u, v in oracle.path_edges(msg.src, msg.dst):
                    if frozenset((u, v)) in forbidden_edges:
                        raise SchedulingError(
                            f"pair {msg} requires dead link {u}<->{v}; "
                            "no schedule can carry it"
                        )

        placed = first_fit(topology, order, hints=None if compact else hints)
        # Hint mode may have opened empty phases past the last placement.
        while placed and not placed[-1]:
            placed.pop()

        schedule = PhasedSchedule(topology, len(placed))
        rescheduled = 0
        for p, msgs in enumerate(placed):
            for msg in msgs:
                kind, group = kinds.get(msg, (MessageKind.LOCAL, (-1, -1)))
                schedule.add(p, msg, kind, group)
                rescheduled += hints.get(msg) != p

        metric_inc("scheduler.pair_repacks")
        metric_observe("scheduler.pairs_repacked", len(order))
        add_counters(
            phases=schedule.num_phases,
            messages=len(schedule),
            rescheduled=rescheduled,
        )
        return schedule


def _trivial_schedule(topology: Topology) -> PhasedSchedule:
    """AAPC for one or two machines: zero or one phase."""
    machines = topology.machines
    if len(machines) <= 1:
        return PhasedSchedule(topology, 0)
    schedule = PhasedSchedule(topology, 1)
    a, b = machines
    schedule.add(0, Message(a, b), MessageKind.LOCAL)
    schedule.add(0, Message(b, a), MessageKind.LOCAL)
    return schedule


# ----------------------------------------------------------------------
# Matching-based local embedding
# ----------------------------------------------------------------------
def _assign_with_matching(
    topology: Topology, info: RootInfo, gs: GlobalSchedule
) -> PhasedSchedule:
    """Globals per steps 1/2/4/6; locals by maximum bipartite matching."""
    metric_inc("scheduler.phase_partition_attempts")
    state = AssignmentState(topology, info, gs)
    _step1_t0_to_others(state)
    _step2_others_to_t0(state)
    _step4_down_ring_globals(state)
    _step6_up_ring_globals(state)
    _embed_locals_by_matching(state)
    return state.schedule


def _embed_locals_by_matching(state: AssignmentState) -> None:
    """Embed each subtree's local messages via Hopcroft-Karp.

    Feasibility of a local message ``u -> v`` of subtree ``i`` at phase
    ``p`` follows Lemma 3's three contention-free cases:

    1. ``v`` sends a global message and ``u`` receives one;
    2. ``v`` sends a global message and no machine of ``t_i`` receives;
    3. ``u`` receives a global message and no machine of ``t_i`` sends.
    """
    # Per phase and subtree: the subtree's global sender/receiver machine.
    k = state.k
    sender_at: List[List[Optional[str]]] = [
        [None] * state.T for _ in range(k)
    ]
    receiver_at: List[List[Optional[str]]] = [
        [None] * state.T for _ in range(k)
    ]
    for sm in state.schedule.all_messages():
        i, j = sm.group
        sender_at[i][sm.phase] = sm.src
        receiver_at[j][sm.phase] = sm.dst

    for i in range(k):
        mi = state.sizes[i]
        if mi < 2:
            continue
        machines = state.info.subtrees[i].machines
        pairs: List[Tuple[int, int]] = [
            (a, b) for a in range(mi) for b in range(mi) if a != b
        ]
        adjacency: List[List[int]] = []
        for a, b in pairs:
            u, v = machines[a], machines[b]
            feasible = []
            for p in range(state.T):
                s, r = sender_at[i][p], receiver_at[i][p]
                ok = (
                    (s == v and r == u)
                    or (s == v and r is None)
                    or (r == u and s is None)
                )
                if ok:
                    feasible.append(p)
            adjacency.append(feasible)
        match = hopcroft_karp(adjacency, state.T)
        metric_observe(
            "scheduler.matching_size",
            sum(1 for p in match if p is not None),
        )
        unmatched = [pairs[idx] for idx, p in enumerate(match) if p is None]
        if unmatched:
            raise SchedulingError(
                f"matching embedding failed for subtree {i}: no feasible "
                f"phase for local pairs {unmatched}"
            )
        for idx, p in enumerate(match):
            a, b = pairs[idx]
            assert p is not None
            state.add_local(p, i, a, b)
