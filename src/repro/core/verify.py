"""Ground-truth schedule verification (the paper's Theorem, checked).

These checkers work on the *real* tree — they recompute every message's
path and count directed-edge usage — so they validate the scheduling
pipeline independently of the two-level-view arguments used to build it.

* :func:`verify_contention_free` — within every phase no directed edge
  carries two messages (paper's definition of contention).
* :func:`verify_complete` — the schedule realises exactly the AAPC
  pattern, each message once (:func:`verify_pair_set` checks any
  other pattern the same way).
* :func:`verify_phase_count` — the phase count equals the AAPC load
  (bottleneck-link load), i.e. the schedule is throughput-optimal.
* :func:`verify_endpoint_discipline` — every machine sends at most one
  and receives at most one message per phase (implied by contention
  freedom on the machine's duplex link, but reported separately for
  clearer diagnostics).
* :func:`verify_schedule` — all of the above.
"""

from __future__ import annotations

from collections import Counter
from typing import AbstractSet, Dict, FrozenSet

from repro.errors import VerificationError
from repro.core.pattern import Message, aapc_message_set
from repro.core.schedule import PhasedSchedule
from repro.topology.analysis import aapc_load
from repro.topology.graph import Edge
from repro.topology.paths import PathOracle


def verify_contention_free(schedule: PhasedSchedule) -> None:
    """Raise :class:`VerificationError` if any phase has edge contention."""
    oracle = PathOracle(schedule.topology)
    for p, phase in enumerate(schedule.phases()):
        used: Dict[Edge, str] = {}
        for sm in phase:
            for edge in oracle.path_edges(sm.src, sm.dst):
                holder = used.get(edge)
                if holder is not None:
                    raise VerificationError(
                        f"phase {p}: messages {holder} and {sm.message} "
                        f"contend on edge {edge}"
                    )
                used[edge] = str(sm.message)


def verify_pair_set(
    schedule: PhasedSchedule, expected: AbstractSet[Message], what: str
) -> None:
    """Raise unless *schedule* holds exactly the *expected* messages, once each.

    *what* names the pattern in the error text ("AAPC", "pending", ...).
    """
    counts = Counter(sm.message for sm in schedule.all_messages())
    dupes = sorted(str(m) for m, n in counts.items() if n > 1)
    if dupes:
        raise VerificationError(f"duplicated messages: {dupes}")
    missing = expected - counts.keys()
    if missing:
        raise VerificationError(
            f"missing {len(missing)} {what} message(s), e.g. "
            f"{sorted(str(m) for m in missing)[:5]}"
        )
    extra = counts.keys() - expected
    if extra:
        raise VerificationError(
            f"non-{what} messages scheduled: "
            f"{sorted(str(m) for m in extra)[:5]}"
        )


def verify_complete(schedule: PhasedSchedule) -> None:
    """Raise unless the schedule realises the AAPC pattern exactly once each."""
    verify_pair_set(schedule, aapc_message_set(schedule.topology), "AAPC")


def verify_phase_count(schedule: PhasedSchedule) -> None:
    """Raise unless the phase count equals the AAPC load (optimality)."""
    load = aapc_load(schedule.topology)
    m = schedule.topology.num_machines
    if m <= 1:
        expected = 0
    elif m == 2:
        expected = 1
    else:
        expected = load
    if schedule.num_phases != expected:
        raise VerificationError(
            f"schedule uses {schedule.num_phases} phases but the AAPC load "
            f"is {expected}; optimality violated"
        )
    if schedule.root_info is not None and m >= 3:
        if schedule.root_info.total_phases != expected:
            raise VerificationError(
                f"root decomposition predicts {schedule.root_info.total_phases} "
                f"phases but the bottleneck load is {expected}"
            )


def verify_endpoint_discipline(schedule: PhasedSchedule) -> None:
    """Raise unless each machine sends <= 1 and receives <= 1 per phase."""
    for p, phase in enumerate(schedule.phases()):
        senders: Dict[str, str] = {}
        receivers: Dict[str, str] = {}
        for sm in phase:
            if sm.src in senders:
                raise VerificationError(
                    f"phase {p}: machine {sm.src} sends both "
                    f"{senders[sm.src]} and {sm.message}"
                )
            if sm.dst in receivers:
                raise VerificationError(
                    f"phase {p}: machine {sm.dst} receives both "
                    f"{receivers[sm.dst]} and {sm.message}"
                )
            senders[sm.src] = str(sm.message)
            receivers[sm.dst] = str(sm.message)


def verify_schedule(schedule: PhasedSchedule) -> None:
    """Run every verifier; raise :class:`VerificationError` on the first failure."""
    verify_complete(schedule)
    verify_endpoint_discipline(schedule)
    verify_contention_free(schedule)
    verify_phase_count(schedule)


def verify_schedule_for_pairs(
    schedule: PhasedSchedule,
    pairs: AbstractSet[Message],
    *,
    forbidden_edges: AbstractSet[FrozenSet[str]] = frozenset(),
) -> None:
    """Verify a schedule that realises an arbitrary pair set.

    The repair path (:mod:`repro.faults.repair`) re-partitions a
    *residual* pair set rather than the full AAPC pattern, so the
    full-pattern completeness and phase-count-optimality checks do not
    apply.  What must still hold on the degraded topology:

    * completeness against *pairs* — each exactly once, nothing extra;
    * endpoint discipline — one send, one receive per machine per phase;
    * contention freedom on the surviving links;
    * no scheduled path crosses a *forbidden* (dead) link.
    """
    verify_pair_set(schedule, pairs, "pending")
    verify_endpoint_discipline(schedule)
    verify_contention_free(schedule)
    if forbidden_edges:
        oracle = PathOracle(schedule.topology)
        for sm in schedule.all_messages():
            for u, v in oracle.path_edges(sm.src, sm.dst):
                if frozenset((u, v)) in forbidden_edges:
                    raise VerificationError(
                        f"message {sm.message} (phase {sm.phase}) crosses "
                        f"dead link {u}<->{v}"
                    )


def max_edge_concurrency(schedule: PhasedSchedule) -> int:
    """Highest per-phase usage count of any directed edge.

    1 for a contention-free schedule; baselines' phase decompositions
    (used by the ablation benchmarks) report how badly they overload
    links.
    """
    oracle = PathOracle(schedule.topology)
    worst = 0
    for phase in schedule.phases():
        counts: Dict[Edge, int] = {}
        for sm in phase:
            for edge in oracle.path_edges(sm.src, sm.dst):
                counts[edge] = counts.get(edge, 0) + 1
        if counts:
            worst = max(worst, max(counts.values()))
    return worst
