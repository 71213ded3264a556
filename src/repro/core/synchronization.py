"""Pair-wise synchronization planning (paper Section 5).

To preserve the contention-free schedule without per-phase barriers, the
generated routine inserts *pair-wise synchronizations*: when messages
``a -> b`` (phase ``p``) and ``c -> d`` (phase ``q > p``) contend, a
small control message from ``a`` to ``c`` delays ``c -> d`` until
``a -> b`` has finished.  Synchronizations derivable from others are
*redundant* and removed.

Implementation notes
--------------------

* **Array passes over the path table.**  Every step reads the
  schedule's integer table (:meth:`PhasedSchedule.table`): sender,
  receiver and phase per message, and each path as directed edge ids.
  The dependences, the program-order edges and the elision filter are
  sorts and masks over those arrays; no per-message path walk happens
  in Python.
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
  suffix of that chain, stored as one position: a row of ``N`` small
  integers per message (``N`` senders) instead of an ``M x M`` closure.
* **Live band.**  Rows are built in reverse index order, and row ``v``
  is read only while ``v``'s predecessors are built.  So the index
  keeps its rows in a slot pool and frees row ``v`` once its
  lowest-index predecessor is built.  About ``2N`` rows are live at
  once (``N x 2N`` small integers, not ``M x N``).  The reduction and
  :func:`verify_sync_plan` ask each query while the rows it reads are
  live: right after the source message's row is built.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator, List, Sequence, Tuple

import numpy as np

from repro.errors import SchedulingError
from repro.obs.metrics_registry import add_counters, pipeline_span
from repro.core.message_table import MessageTable
from repro.core.schedule import PhasedSchedule, ScheduledMessage


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
        table = schedule.table()
        messages = schedule.all_messages()
        stats = SyncStats(num_messages=len(messages))

        with pipeline_span("dependence_graph"):
            deps = _conflict_dependences(table, messages)
            free = _program_order_edges(table, messages)
            add_counters(
                graph_nodes=len(messages),
                conflict_edges=len(deps),
                program_order_edges=len(free),
            )
        stats.num_conflict_deps = len(deps)

        needs_sync = deps
        if elide_program_order:
            needs_sync = deps[~_directly_free(table, deps)]
        stats.num_program_order_free = len(deps) - len(needs_sync)
        stats.num_before_reduction = len(needs_sync)

        if remove_redundant and len(needs_sync):
            with pipeline_span("transitive_reduction"):
                kept = _transitive_reduction(
                    table,
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

        syncs = [SyncMessage(messages[a], messages[b]) for a, b in kept.tolist()]
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
def _edge_runs(table: MessageTable) -> Tuple[np.ndarray, np.ndarray]:
    """Every path entry grouped by edge, users in phase order.

    Returns ``(edges, users)``: the edge id and the message index of
    each entry, sorted by (edge id, message index).
    """
    entries = np.argsort(table.path_edges, kind="stable")
    return table.path_edges[entries], table.path_owner()[entries]


def _first_use_order(
    table: MessageTable, edges: np.ndarray, a: np.ndarray, b: np.ndarray
) -> int:
    """The ``k`` whose pair ``(a[k], b[k])`` on edge ``edges[k]`` comes first
    when edges are walked in first-use order and each edge's pairs in
    index order (the order error messages report).
    """
    first = np.full(table.num_edge_ids, len(table.path_edges), dtype=np.int64)
    np.minimum.at(first, table.path_edges, np.arange(len(table.path_edges)))
    return int(np.lexsort((b, a, first[edges]))[0])


def _unique_pairs(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """The distinct ``(a[k], b[k])`` pairs, sorted, as an ``(E, 2)`` array."""
    keys = np.sort(a.astype(np.int64) * n + b)
    distinct = np.ones(keys.size, dtype=bool)
    distinct[1:] = keys[1:] != keys[:-1]
    keys = keys[distinct]
    return np.stack([keys // n, keys % n], axis=1).astype(np.int32).reshape(-1, 2)


def _conflict_dependences(
    table: MessageTable, messages: Sequence[ScheduledMessage]
) -> np.ndarray:
    """Sorted distinct (earlier, later) pairs of consecutive users per edge."""
    edges, users = _edge_runs(table)
    same = edges[1:] == edges[:-1]
    a, b, edges = users[:-1][same], users[1:][same], edges[1:][same]
    clash = np.flatnonzero(table.phase[a] == table.phase[b])
    if clash.size:
        k = clash[_first_use_order(table, edges[clash], a[clash], b[clash])]
        earlier, later = messages[a[k]], messages[b[k]]
        raise SchedulingError(
            f"messages {earlier.message} and {later.message} share "
            f"edge {table.rooting.edge(edges[k])} in phase {earlier.phase}; "
            "schedule is not contention free"
        )
    return _unique_pairs(a, b, len(table))


def _directly_free(table: MessageTable, deps: np.ndarray) -> np.ndarray:
    """Which deps phased program order alone enforces, as a mask.

    ``m1 before m2`` is free when the later message's *sender* knows
    ``m1`` finished without a control message: it either sent ``m1``
    itself (it waited for the send to complete before advancing past
    ``m1``'s phase) or received it.  The paper makes the same assumption
    — it inserts syncs even for consecutive messages *into* the same
    node ("contention in end nodes"), i.e. it does not rely on
    receiver-side pacing.
    """
    later_src = table.src[deps[:, 1]]
    return (later_src == table.src[deps[:, 0]]) | (later_src == table.dst[deps[:, 0]])


def _send_order(
    table: MessageTable, messages: Sequence[ScheduledMessage]
) -> np.ndarray:
    """Message indices sorted by (sender, phase): each rank's send chain.

    Raises :class:`SchedulingError` when a rank sends twice in one phase
    (both sends would cross its uplink, so the schedule is not
    contention free).
    """
    order = np.argsort(table.src, kind="stable")
    same = (table.src[order[1:]] == table.src[order[:-1]]) & (
        table.phase[order[1:]] == table.phase[order[:-1]]
    )
    twice = np.flatnonzero(same)
    if twice.size:
        k = twice[np.argmin(order[1:][twice])]
        first, second = messages[order[k]], messages[order[k + 1]]
        raise SchedulingError(
            f"messages {first.message} and {second.message} are both "
            f"sent in phase {second.phase}; schedule is not contention free"
        )
    return order


def _program_order_edges(
    table: MessageTable, messages: Sequence[ScheduledMessage]
) -> np.ndarray:
    """Sparse generators of the sender-anchored happens-before relation.

    Returns the sorted ``(earlier, later)`` message index pairs as an
    ``(E, 2)`` array.

    What phased execution guarantees without control messages: a rank
    completes all of its phase-``p`` operations before *posting*
    anything at a later phase.  Hence, for each rank ``r``:

    * ``r``'s send at phase ``p`` finishes before ``r``'s next send
      starts (send chain), and
    * a message received by ``r`` at phase ``p`` finishes before ``r``'s
      first send at a later phase starts (receive -> next send).

    Receiving does **not** order later *receives* at the same rank —
    that would require receiver-side (rendezvous) pacing, which the
    paper's generated code does not rely on.

    The transitive closure of these edges is exactly the ordering
    knowledge that propagates to senders, so redundancy decisions made
    against it are sound for the generated programs.
    """
    order = _send_order(table, messages)
    chained = table.src[order[1:]] == table.src[order[:-1]]
    # The first send of rank dst[r] after phase[r]: the next (sender,
    # phase) key of the send chains past (dst[r], phase[r]).
    span = int(table.phase.max(initial=0)) + 1
    send_keys = table.src[order].astype(np.int64) * span + table.phase[order]
    recv_keys = table.dst.astype(np.int64) * span + table.phase
    nxt = np.searchsorted(send_keys, recv_keys, side="right")
    ok = nxt < len(order)
    recvs = np.flatnonzero(ok)
    nxt = order[nxt[ok]]
    has_send = table.src[nxt] == table.dst[recvs]
    return _unique_pairs(
        np.concatenate([order[:-1][chained], recvs[has_send]]),
        np.concatenate([order[1:][chained], nxt[has_send]]),
        len(table),
    )


class _ChainIndex:
    """Chain-cover reachability over a DAG of phase-ordered messages,
    holding only the live band of its rows.

    Message ``i`` is the ``pos[i]``-th send on its sender's chain
    ``chain[i]``, and row ``v`` holds, per chain, the lowest position
    that ``v`` reaches (``v`` included), or the dtype's maximum when it
    reaches none.  This is exact as long as consecutive sends of each
    rank are joined by an edge: what ``v`` reaches on a chain is then a
    suffix of it, so ``v`` reaches ``b`` iff ``row(v)[chain[b]] <=
    pos[b]``.

    The edges are ``(E, 2)`` integer arrays of ``(earlier, later)``
    pairs.  Every edge strictly increases the phase, so :meth:`sweep`
    builds the rows in reverse index order, each from its successors'
    rows.  Row ``v`` is read only while its predecessors are built, so
    it goes back to a slot pool once its lowest-index predecessor is
    done.  About ``2N`` rows of ``N`` small integers are live at once,
    instead of all ``M``.  Queries must therefore be asked inside the
    sweep: right after row ``v`` is built, the rows of ``v`` and of its
    successors are live.
    """

    def __init__(
        self,
        table: MessageTable,
        messages: Sequence[ScheduledMessage],
        *edges: np.ndarray,
    ) -> None:
        m = len(table)
        order = _send_order(table, messages)
        starts = np.ones(m, dtype=bool)
        starts[1:] = table.src[order[1:]] != table.src[order[:-1]]
        index = np.arange(m)
        pos = np.empty(m, dtype=np.intc)
        pos[order] = index - np.maximum.accumulate(np.where(starts, index, 0))
        pairs = np.concatenate(edges)
        # An edge that does not point forward in index order orders
        # nothing the reverse sweep could use.
        pairs = pairs[pairs[:, 0] < pairs[:, 1]]
        ptr, targets = _csr(m, pairs)
        # Row v is last read when its lowest-index predecessor is built.
        last_reader = index.copy()
        np.minimum.at(last_reader, pairs[:, 1], pairs[:, 0])
        release_ptr, release = _csr(m, np.stack([last_reader, index], axis=1))
        self.chain = _int_array(table.src)
        self.pos = _int_array(pos)
        self._ptr, self._targets = _int_array(ptr), _int_array(targets)
        self._release_ptr = _int_array(release_ptr)
        self._release = _int_array(release)
        fits = int(pos.max(initial=0)) < np.iinfo(np.int16).max
        self._dtype = np.int16 if fits else np.int32
        self._rows = np.empty((0, table.num_machines), dtype=self._dtype)
        self._slot: List[int] = [-1] * m
        #: The most rows live at once during the last sweep.
        self.peak_rows = 0

    def sweep(self) -> Iterator[int]:
        """Build every row, yielding each ``v`` while its band is live."""
        unreached = np.iinfo(self._dtype).max
        slot_of, ptr, targets = self._slot, self._ptr, self._targets
        chain, pos = self.chain, self.pos
        release, release_ptr = self._release, self._release_ptr
        minimum = np.minimum
        free: List[int] = []
        rows = self._rows
        peak = 0
        for v in range(len(slot_of) - 1, -1, -1):
            if not free:
                size = len(rows)
                grown = max(size, 64)
                free.extend(range(size + grown - 1, size - 1, -1))
                rows = self._rows = np.concatenate(
                    [rows, np.empty((grown, rows.shape[1]), self._dtype)]
                )
            slot = slot_of[v] = free.pop()
            row = rows[slot]
            succ = targets[ptr[v]:ptr[v + 1]]
            if len(succ) > 1:
                minimum(rows[slot_of[succ[0]]], rows[slot_of[succ[1]]], out=row)
                for s in succ[2:]:
                    minimum(row, rows[slot_of[s]], out=row)
            elif succ:
                row[:] = rows[slot_of[succ[0]]]
            else:
                row.fill(unreached)
            row[chain[v]] = pos[v]
            if len(rows) - len(free) > peak:
                peak = self.peak_rows = len(rows) - len(free)
            yield v
            for u in release[release_ptr[v]:release_ptr[v + 1]]:
                free.append(slot_of[u])
                slot_of[u] = -1

    def reaches(self, v: int, b: int) -> bool:
        """True when there is a path from *v* to *b* (or ``v == b``).

        Row ``v`` must be live.
        """
        return self._rows.item(self._slot[v], self.chain[b]) <= self.pos[b]

    def bypasses(self, a: int, b: int) -> bool:
        """True when a successor of *a* other than *b* reaches *b*.

        The rows of *a*'s successors must be live (as they are while
        row *a* is).
        """
        rows, slot_of = self._rows, self._slot
        c, p = self.chain[b], self.pos[b]
        for s in self._targets[self._ptr[a]:self._ptr[a + 1]]:
            if s != b and rows.item(slot_of[s], c) <= p:
                return True
        return False


def _int_array(values: np.ndarray) -> array:
    """*values* as a compact ``array('i')``.

    Indexing it is nearly as fast as a list's, but each entry takes 4
    bytes instead of a pointer plus an ``int`` object.
    """
    out = array("i")
    out.frombytes(np.ascontiguousarray(values, dtype=np.intc).tobytes())
    return out


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
    table: MessageTable,
    messages: Sequence[ScheduledMessage],
    deps: np.ndarray,
    free: np.ndarray,
) -> np.ndarray:
    """Drop dependences with an alternative path (unique DAG reduction).

    ``(a, b)`` is redundant iff another successor of ``a`` reaches ``b``.
    *deps* is sorted, and so is the kept subset returned.
    """
    reach = _ChainIndex(table, messages, deps, free)
    dep_ptr = _int_array(np.searchsorted(deps[:, 0], np.arange(len(table) + 1)))
    later = _int_array(deps[:, 1])
    kept = np.ones(len(deps), dtype=bool)
    for a in reach.sweep():
        for k in range(dep_ptr[a], dep_ptr[a + 1]):
            if reach.bypasses(a, later[k]):
                kept[k] = False
    add_counters(chain_index_peak_rows=reach.peak_rows)
    return deps[kept]


def _cross_phase_pairs(
    table: MessageTable,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each user of an edge in one phase against each in its next used phase.

    Returns ``(edges, a, b)`` arrays, one entry per ordered pair.
    """
    edges, users = _edge_runs(table)
    phase = table.phase[users]
    starts = np.flatnonzero(
        np.r_[True, (edges[1:] != edges[:-1]) | (phase[1:] != phase[:-1])]
    )
    sizes = np.diff(np.r_[starts, len(users)])
    g = np.flatnonzero(edges[starts[1:]] == edges[starts[:-1]])  # group g, g + 1
    n1, n2 = sizes[g], sizes[g + 1]
    count = n1 * n2
    group = np.repeat(g, count)
    k = np.arange(int(count.sum())) - np.repeat(np.cumsum(count) - count, count)
    width = np.repeat(n2, count)
    a = users[starts[group] + k // width]
    b = users[starts[group + 1] + k % width]
    return edges[starts[group]], a, b


def verify_sync_plan(plan: SyncPlan) -> None:
    """Check that every conflicting cross-phase pair is ordered by the plan.

    Orderings may come from kept syncs or phased program order.  Raises
    :class:`SchedulingError` on the first uncovered pair, or when a rank
    sends twice in one phase (such a schedule is not contention free and
    :func:`build_sync_plan` rejects it too).  Two messages conflict when
    they share a directed edge.  It suffices that each user of an edge
    in one phase reaches each user in the edge's next used phase:
    transitivity then orders every later user too.  Each pair is asked
    right after its earlier message's row is built.
    """
    schedule = plan.schedule
    table = schedule.table()
    messages = schedule.all_messages()
    index = {m: i for i, m in enumerate(messages)}
    reach = _ChainIndex(
        table,
        messages,
        _program_order_edges(table, messages),
        _edge_array([(index[s.after], index[s.before]) for s in plan.syncs]),
    )
    edges, a, b = _cross_phase_pairs(table)
    by_earlier = np.argsort(a, kind="stable")
    ptr = _int_array(np.searchsorted(a[by_earlier], np.arange(len(table) + 1)))
    pairs, later = _int_array(by_earlier), _int_array(b)
    unordered = np.zeros(len(a), dtype=bool)
    for v in reach.sweep():
        for k in pairs[ptr[v]:ptr[v + 1]]:
            if not reach.reaches(v, later[k]):
                unordered[k] = True
    bad = np.flatnonzero(unordered)
    if bad.size:
        k = bad[_first_use_order(table, edges[bad], a[bad], b[bad])]
        ma, mb = messages[a[k]], messages[b[k]]
        raise SchedulingError(
            f"conflicting pair unordered by sync plan: {ma.message} "
            f"(phase {ma.phase}) vs {mb.message} (phase {mb.phase})"
        )
