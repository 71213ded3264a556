"""Pair-wise synchronization planning (paper Section 5).

To preserve the contention-free schedule without per-phase barriers, the
generated routine inserts *pair-wise synchronizations*: when messages
``a -> b`` (phase ``p``) and ``c -> d`` (phase ``q > p``) contend, a
small control message from ``a`` to ``c`` delays ``c -> d`` until
``a -> b`` has finished.  Synchronizations derivable from others are
*redundant* and removed.

Implementation notes
--------------------

* **Conflict dependences.**  Within a phase the schedule is contention
  free, so each directed tree edge is used by at most one message per
  phase.  Ordering the *consecutive* users of each tree edge is enough:
  transitivity then orders every conflicting pair on that edge.  This is
  a sound sparse subset of the paper's "every communication vs. every
  later communication" dependence graph.
* **Program-order elision.**  The generated code (and our executor)
  completes all of a rank's phase-``p`` operations before starting phase
  ``q > p``.  Hence a dependence whose later sender already participated
  in the earlier message (``src(m2) ∈ {src(m1), dst(m1)}``) needs no
  sync message.  These free orderings — and their propagation along each
  rank's participation chain — are modelled as zero-cost edges.
* **Redundant-sync elimination.**  A dependence edge is redundant when
  an alternative path (free edges plus other dependences) already orders
  the pair; removing all such edges at once yields the unique transitive
  reduction of the DAG.
* **Chain-cover reachability.**  Phases are contention free and every
  machine is a leaf, so a rank's sends (which all cross its uplink)
  fall in distinct phases, and consecutive sends are joined by a graph
  edge (a send-chain free edge, or the conflict dependence on the
  uplink).  What a node reaches on one sender's chain is therefore a
  suffix of that chain, stored as one position.  The index is an
  ``M x N`` matrix of small integers (``M`` messages, ``N`` senders)
  instead of an ``M x M`` closure, and both the reduction and
  :func:`verify_sync_plan` read it.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field, replace
from itertools import groupby
from typing import Callable, Dict, List, Sequence, Set, Tuple

import numpy as np

from repro.errors import SchedulingError
from repro.obs.metrics_registry import add_counters, pipeline_span
from repro.core.schedule import PhasedSchedule, ScheduledMessage
from repro.topology.graph import Edge
from repro.topology.paths import PathOracle


@dataclass(frozen=True)
class SyncMessage:
    """A control message enforcing ``after`` finishes before ``before`` starts.

    ``src`` is the sender of the earlier data message (it knows when its
    transmission completed); ``dst`` is the sender of the later data
    message (it must not post before hearing the sync).
    """

    after: ScheduledMessage
    before: ScheduledMessage

    @property
    def src(self) -> str:
        return self.after.src

    @property
    def dst(self) -> str:
        return self.before.src

    def __str__(self) -> str:
        return f"sync[{self.after.message} => {self.before.message}]"


@dataclass
class SyncStats:
    """Bookkeeping for the ablation benchmarks."""

    num_messages: int = 0
    num_conflict_deps: int = 0
    num_program_order_free: int = 0
    num_before_reduction: int = 0
    num_after_reduction: int = 0

    @property
    def removed_by_reduction(self) -> int:
        return self.num_before_reduction - self.num_after_reduction


@dataclass
class SyncPlan:
    """The synchronization messages for a phased schedule."""

    schedule: PhasedSchedule
    syncs: List[SyncMessage]
    stats: SyncStats = field(default_factory=SyncStats)

    def syncs_into(self, message: ScheduledMessage) -> List[SyncMessage]:
        """Syncs that must arrive before *message* may start."""
        return [s for s in self.syncs if s.before == message]

    def syncs_after(self, message: ScheduledMessage) -> List[SyncMessage]:
        """Syncs to send once *message* completes."""
        return [s for s in self.syncs if s.after == message]


def build_sync_plan(
    schedule: PhasedSchedule,
    *,
    elide_program_order: bool = True,
    remove_redundant: bool = True,
) -> SyncPlan:
    """Compute the pair-wise synchronization plan for *schedule*.

    Parameters
    ----------
    elide_program_order:
        Skip syncs already enforced by each rank's phased program order.
    remove_redundant:
        Apply redundant-synchronization elimination (transitive
        reduction).  Disabling both flags reproduces the naive
        "synchronize every conflicting pair of consecutive edge users"
        plan that the ablation benchmark compares against.
    """
    with pipeline_span("sync_plan"):
        oracle = PathOracle(schedule.topology)
        messages = schedule.all_messages()
        stats = SyncStats(num_messages=len(messages))

        with pipeline_span("dependence_graph"):
            deps = _conflict_dependences(messages, oracle)
            free = _program_order_edges(messages)
            add_counters(
                graph_nodes=len(messages),
                conflict_edges=len(deps),
                program_order_edges=len(free),
            )
        stats.num_conflict_deps = len(deps)

        needs_sync = [
            dep
            for dep in deps
            if not (
                elide_program_order
                and _directly_free(messages[dep[0]], messages[dep[1]])
            )
        ]
        stats.num_program_order_free = len(deps) - len(needs_sync)
        stats.num_before_reduction = len(needs_sync)

        if remove_redundant and needs_sync:
            with pipeline_span("transitive_reduction"):
                kept = _transitive_reduction(
                    messages,
                    needs_sync,
                    free if elide_program_order else _edge_array([]),
                )
                add_counters(
                    syncs_before_reduction=len(needs_sync),
                    syncs_after_reduction=len(kept),
                )
        else:
            kept = needs_sync
        stats.num_after_reduction = len(kept)
        add_counters(
            syncs_before_reduction=stats.num_before_reduction,
            syncs_after_reduction=stats.num_after_reduction,
        )

        syncs = [SyncMessage(messages[a], messages[b]) for a, b in kept]
        syncs.sort(key=lambda s: (s.after.phase, s.before.phase, s.after.src))
        return SyncPlan(schedule=schedule, syncs=syncs, stats=stats)


def split_sync_plan(
    plan: SyncPlan,
    deliverable: Callable[[SyncMessage], bool],
) -> Tuple[SyncPlan, List[SyncMessage]]:
    """Partition a sync plan into deliverable syncs and dropped ones.

    The relaxed repair tier (:mod:`repro.faults.repair`) runs a schedule
    whose sync plan omits control messages a degraded topology cannot
    deliver (e.g. any sync whose path crosses a permanently failed
    link).  Dropping a sync removes both its ``SYNC_SEND`` and its
    ``SYNC_RECV`` from the lowered programs — they stay statically valid
    — but leaves the corresponding conflicting pair unordered, i.e. the
    schedule may serialize on the shared link instead of staying
    contention free.  The caller is responsible for bounding that cost.

    Returns ``(kept_plan, dropped)``; ``kept_plan`` shares the schedule
    and carries stats whose ``num_after_reduction`` reflects the kept
    set, so downstream accounting stays consistent.
    """
    kept = [s for s in plan.syncs if deliverable(s)]
    dropped = [s for s in plan.syncs if not deliverable(s)]
    stats = replace(plan.stats, num_after_reduction=len(kept))
    return SyncPlan(schedule=plan.schedule, syncs=kept, stats=stats), dropped


# ----------------------------------------------------------------------
def _edge_users(
    messages: Sequence[ScheduledMessage], oracle: PathOracle
) -> Dict[Edge, List[int]]:
    """Indices of the messages crossing each directed edge.

    *messages* must be in phase order, so each edge's users are too.
    """
    users: Dict[Edge, List[int]] = {}
    for i, sm in enumerate(messages):
        for edge in oracle.path_edges(sm.src, sm.dst):
            users.setdefault(edge, []).append(i)
    return users


def _phase_groups(
    messages: Sequence[ScheduledMessage], indices: List[int]
) -> List[List[int]]:
    """*indices* (in phase order) split into runs of one phase each."""
    return [list(g) for _, g in groupby(indices, key=lambda i: messages[i].phase)]


def _conflict_dependences(
    messages: Sequence[ScheduledMessage], oracle: PathOracle
) -> List[Tuple[int, int]]:
    """Deduplicated (earlier, later) index pairs of consecutive users per edge."""
    deps: Set[Tuple[int, int]] = set()
    for edge, indices in _edge_users(messages, oracle).items():
        for a, b in zip(indices, indices[1:]):
            earlier, later = messages[a], messages[b]
            if earlier.phase == later.phase:
                raise SchedulingError(
                    f"messages {earlier.message} and {later.message} share "
                    f"edge {edge} in phase {earlier.phase}; schedule is not "
                    "contention free"
                )
            deps.add((a, b))
    return sorted(deps)


def _directly_free(m1: ScheduledMessage, m2: ScheduledMessage) -> bool:
    """True when phased program order alone enforces ``m1 before m2``.

    The later message's *sender* must know ``m1`` finished without a
    control message: it either sent ``m1`` itself (it waited for the
    send to complete before advancing past ``m1``'s phase) or received
    it.  The paper makes the same assumption — it inserts syncs even for
    consecutive messages *into* the same node ("contention in end
    nodes"), i.e. it does not rely on receiver-side pacing.
    """
    return m2.src in (m1.src, m1.dst)


def _program_order_edges(messages: Sequence[ScheduledMessage]) -> np.ndarray:
    """Sparse generators of the sender-anchored happens-before relation.

    Returns the sorted ``(earlier, later)`` index pairs into *messages*
    (which must be in phase order) as an ``(E, 2)`` array.

    What phased execution guarantees without control messages: a rank
    completes all of its phase-``p`` operations before *posting*
    anything at a later phase.  Hence, for each rank ``r``:

    * ``r``'s send at phase ``p`` finishes before ``r``'s sends at later
      phases start (send-group chain), and
    * a message received by ``r`` at phase ``p`` finishes before ``r``'s
      first send at a later phase starts (receive -> next send).

    Receiving does **not** order later *receives* at the same rank —
    that would require receiver-side (rendezvous) pacing, which the
    paper's generated code does not rely on.

    The transitive closure of these edges is exactly the ordering
    knowledge that propagates to senders, so redundancy decisions made
    against it are sound for the generated programs.
    """
    sends_by_rank: Dict[str, List[int]] = {}
    recvs_by_rank: Dict[str, List[int]] = {}
    for i, sm in enumerate(messages):  # phase order
        sends_by_rank.setdefault(sm.src, []).append(i)
        recvs_by_rank.setdefault(sm.dst, []).append(i)

    edges: Set[Tuple[int, int]] = set()
    for rank, sends in sends_by_rank.items():
        # group same-phase sends (posted together: mutually unordered)
        groups = _phase_groups(messages, sends)
        group_phases = [messages[g[0]].phase for g in groups]
        for g1, g2 in zip(groups, groups[1:]):
            for a in g1:
                for b in g2:
                    edges.add((a, b))
        # each receive chains into the first strictly-later send group
        for recv in recvs_by_rank.get(rank, ()):
            k = bisect_right(group_phases, messages[recv].phase)
            if k < len(groups):
                for b in groups[k]:
                    edges.add((recv, b))
    return _edge_array(sorted(edges))


class _ChainIndex:
    """Chain-cover reachability index of a DAG over phase-ordered messages.

    Message ``i`` is the ``pos[i]``-th send on sender chain ``chain[i]``,
    and ``creach[v, c]`` is the lowest position on chain ``c`` that ``v``
    reaches (``v`` included), or the dtype's maximum when it reaches
    none.  This is exact as long as consecutive sends of each rank are
    joined by an edge: what ``v`` reaches on a chain is then a suffix of
    it, so ``v`` reaches ``b`` iff ``creach[v, chain[b]] <= pos[b]``.
    The matrix takes ``M x N`` small integers for ``M`` messages and
    ``N`` senders.

    *messages* must be in phase order (as
    :meth:`PhasedSchedule.all_messages` returns them); the edges are
    ``(E, 2)`` integer arrays of ``(earlier, later)`` pairs.  Every edge
    strictly increases the phase, so reverse index order is a
    topological order.
    """

    def __init__(
        self, messages: Sequence[ScheduledMessage], *edges: np.ndarray
    ) -> None:
        chain_of: Dict[str, int] = {}
        last: List[ScheduledMessage] = []  # latest send per chain
        counts: List[int] = []
        self.chain: List[int] = []
        self.pos: List[int] = []
        for sm in messages:
            c = chain_of.setdefault(sm.src, len(chain_of))
            if c == len(counts):
                counts.append(0)
                last.append(sm)
            elif last[c].phase == sm.phase:
                raise SchedulingError(
                    f"messages {last[c].message} and {sm.message} are both "
                    f"sent in phase {sm.phase}; schedule is not contention free"
                )
            last[c] = sm
            self.chain.append(c)
            self.pos.append(counts[c])
            counts[c] += 1

        self.ptr, self.targets = _csr(len(messages), np.concatenate(edges))
        fits = max(counts, default=0) < np.iinfo(np.int16).max
        dtype = np.int16 if fits else np.int32
        creach = np.full(
            (len(messages), len(counts)), np.iinfo(dtype).max, dtype=dtype
        )
        for v in range(len(messages) - 1, -1, -1):
            row = creach[v]
            for s in self.successors(v):
                np.minimum(row, creach[s], out=row)
            row[self.chain[v]] = self.pos[v]
        self.creach = creach

    def successors(self, v: int) -> List[int]:
        return self.targets[self.ptr[v]:self.ptr[v + 1]].tolist()

    def reaches(self, v: int, b: int) -> bool:
        """True when there is a path from *v* to *b* (or ``v == b``)."""
        return bool(self.creach[v, self.chain[b]] <= self.pos[b])


def _csr(n: int, pairs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Successor lists of nodes ``0..n-1`` in CSR form ``(ptr, targets)``.

    Node ``v``'s successors are ``targets[ptr[v]:ptr[v + 1]]``.
    """
    by_source = np.argsort(pairs[:, 0], kind="stable")
    ptr = np.searchsorted(pairs[by_source, 0], np.arange(n + 1))
    return ptr, pairs[by_source, 1]


def _edge_array(pairs: Sequence[Tuple[int, int]]) -> np.ndarray:
    """``(earlier, later)`` index pairs as an ``(E, 2)`` array."""
    return np.array(pairs, dtype=np.int32).reshape(-1, 2)


def _transitive_reduction(
    messages: Sequence[ScheduledMessage],
    deps: List[Tuple[int, int]],
    free: np.ndarray,
) -> List[Tuple[int, int]]:
    """Drop dependences with an alternative path (unique DAG reduction).

    ``(a, b)`` is redundant iff another successor of ``a`` reaches ``b``.
    """
    reach = _ChainIndex(messages, _edge_array(deps), free)
    kept: List[Tuple[int, int]] = []
    for a, b in deps:
        if not any(s != b and reach.reaches(s, b) for s in reach.successors(a)):
            kept.append((a, b))
    return kept


def verify_sync_plan(plan: SyncPlan) -> None:
    """Check that every conflicting cross-phase pair is ordered by the plan.

    Orderings may come from kept syncs or phased program order.  Raises
    :class:`SchedulingError` on the first uncovered pair, or when a rank
    sends twice in one phase (such a schedule is not contention free and
    :func:`build_sync_plan` rejects it too).  Two messages conflict when
    they share a directed edge.  It suffices that each user of an edge
    in one phase reaches each user in the edge's next used phase:
    transitivity then orders every later user too.
    """
    schedule = plan.schedule
    oracle = PathOracle(schedule.topology)
    messages = schedule.all_messages()
    index = {m: i for i, m in enumerate(messages)}
    reach = _ChainIndex(
        messages,
        _program_order_edges(messages),
        _edge_array([(index[s.after], index[s.before]) for s in plan.syncs]),
    )

    for edge_users in _edge_users(messages, oracle).values():
        groups = _phase_groups(messages, edge_users)
        for earlier, later in zip(groups, groups[1:]):
            for a in earlier:
                for b in later:
                    if not reach.reaches(a, b):
                        ma, mb = messages[a], messages[b]
                        raise SchedulingError(
                            f"conflicting pair unordered by sync plan: {ma.message} "
                            f"(phase {ma.phase}) vs {mb.message} (phase {mb.phase})"
                        )
