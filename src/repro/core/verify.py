"""Ground-truth schedule verification (the paper's Theorem, checked).

These checkers work on the *real* tree — they read every message's path
from the schedule's integer table (:meth:`PhasedSchedule.table`) and
count directed-edge usage — so they validate the scheduling pipeline
independently of the two-level-view arguments used to build it.  Each
check is one ``np.unique`` over integer keys: (phase, edge id) for
contention, (phase, sender) and (phase, receiver) for endpoints, and
``src * N + dst`` for completeness.  Only a failing check turns indices
back into messages for its error text.

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

from typing import AbstractSet, FrozenSet, List, Optional, Tuple

import numpy as np

from repro.errors import VerificationError
from repro.core.message_table import MessageTable
from repro.core.pattern import Message
from repro.core.schedule import PhasedSchedule
from repro.topology.analysis import aapc_load


def _first_repeat(keys: np.ndarray) -> Optional[Tuple[int, int]]:
    """The earliest repeated key of *keys*, as ``(first, repeat)`` positions.

    ``repeat`` is the lowest position whose key occurred before, and
    ``first`` is where that key occurred first.  None when all differ.
    """
    counts = np.unique(keys, return_counts=True)[1]
    if counts.max(initial=0) <= 1:
        return None
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    repeats = np.flatnonzero(ordered[1:] == ordered[:-1]) + 1
    repeat = repeats[np.argmin(order[repeats])]
    first = np.searchsorted(ordered, ordered[repeat])
    return int(order[first]), int(order[repeat])


def _phase_edge_keys(table: MessageTable) -> np.ndarray:
    """One ``(phase, edge id)`` key per path entry, in ``path_edges`` order."""
    phases = np.repeat(table.phase.astype(np.int64), np.diff(table.path_ptr))
    return phases * table.num_edge_ids + table.path_edges


def verify_contention_free(schedule: PhasedSchedule) -> None:
    """Raise :class:`VerificationError` if any phase has edge contention."""
    table = schedule.table()
    clash = _first_repeat(_phase_edge_keys(table))
    if clash is not None:
        first, repeat = clash
        messages = schedule.all_messages()
        holder = messages[table.owner_of(first)]
        sm = messages[table.owner_of(repeat)]
        raise VerificationError(
            f"phase {sm.phase}: messages {holder.message} and {sm.message} "
            f"contend on edge {table.rooting.edge(table.path_edges[repeat])}"
        )


def _pair_keys(table: MessageTable) -> np.ndarray:
    """One ``src * N + dst`` key per message (``N`` machines)."""
    return table.src.astype(np.int64) * table.num_machines + table.dst


def _key_names(schedule: PhasedSchedule, keys: np.ndarray) -> List[str]:
    """The messages of pair *keys*, as sorted strings."""
    machines = schedule.topology.machines
    n = len(machines)
    return sorted(
        str(Message(machines[k // n], machines[k % n])) for k in keys.tolist()
    )


def _verify_pair_keys(
    schedule: PhasedSchedule, expected: np.ndarray, what: str
) -> None:
    """Raise unless the schedule's pair keys equal the sorted unique *expected*."""
    keys = _pair_keys(schedule.table())
    present, counts = np.unique(keys, return_counts=True)
    if present.size < keys.size:
        raise VerificationError(
            f"duplicated messages: {_key_names(schedule, present[counts > 1])}"
        )
    if present.size == expected.size and np.array_equal(present, expected):
        return
    missing = np.setdiff1d(expected, present, assume_unique=True)
    if missing.size:
        raise VerificationError(
            f"missing {missing.size} {what} message(s), e.g. "
            f"{_key_names(schedule, missing)[:5]}"
        )
    extra = np.setdiff1d(present, expected, assume_unique=True)
    raise VerificationError(
        f"non-{what} messages scheduled: {_key_names(schedule, extra)[:5]}"
    )


def verify_pair_set(
    schedule: PhasedSchedule, expected: AbstractSet[Message], what: str
) -> None:
    """Raise unless *schedule* holds exactly the *expected* messages, once each.

    *what* names the pattern in the error text ("AAPC", "pending", ...).
    """
    rank = {m: i for i, m in enumerate(schedule.topology.machines)}
    n = len(rank)
    try:
        keys = np.fromiter(
            (rank[m.src] * n + rank[m.dst] for m in expected),
            dtype=np.int64,
            count=len(expected),
        )
    except KeyError as exc:
        raise VerificationError(
            f"{what} pattern names {exc.args[0]!r}, which is not a machine"
        ) from None
    _verify_pair_keys(schedule, np.sort(keys), what)


def verify_complete(schedule: PhasedSchedule) -> None:
    """Raise unless the schedule realises the AAPC pattern exactly once each.

    The AAPC keys are every off-diagonal ``src * N + dst``.
    """
    n = schedule.topology.num_machines
    keys = np.arange(n * n, dtype=np.int64)
    _verify_pair_keys(schedule, keys[keys // n != keys % n], "AAPC")


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
    table = schedule.table()
    phases = table.phase.astype(np.int64) * table.num_machines
    sends = _first_repeat(phases + table.src)
    recvs = _first_repeat(phases + table.dst)
    # A message's send is checked before its receive.
    if sends is not None and (recvs is None or sends[1] <= recvs[1]):
        messages = schedule.all_messages()
        first, sm = messages[sends[0]], messages[sends[1]]
        raise VerificationError(
            f"phase {sm.phase}: machine {sm.src} sends both "
            f"{first.message} and {sm.message}"
        )
    if recvs is not None:
        messages = schedule.all_messages()
        first, sm = messages[recvs[0]], messages[recvs[1]]
        raise VerificationError(
            f"phase {sm.phase}: machine {sm.dst} receives both "
            f"{first.message} and {sm.message}"
        )


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
        table = schedule.table()
        dead = [
            eid
            for link in forbidden_edges
            if len(link) == 2
            for eid in table.rooting.link_ids(*link)
        ]
        crossing = np.flatnonzero(np.isin(table.path_edges, dead))
        if crossing.size:
            u, v = table.rooting.edge(table.path_edges[crossing[0]])
            sm = schedule.all_messages()[table.owner_of(crossing[0])]
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
    counts = np.unique(_phase_edge_keys(schedule.table()), return_counts=True)[1]
    return int(counts.max(initial=0))
