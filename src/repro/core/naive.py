"""First-fit contention-free phase packing.

:func:`first_fit` is the one loop that packs messages into
contention-free phases by edge-disjointness.  The paper's scheduler
does not need it (its phases come from the Section 4 construction), but
three other callers do:

* the ablation baseline here: the paper's scheduler is *optimal*, its
  phase count equals the bottleneck load, and :func:`greedy_phases`
  measures how much that optimality buys over the obvious approach.
  Greedy packing is correct but can exceed the optimal phase count —
  each extra phase is an extra round of bottleneck-link time.
  :func:`random_order_phases` uses a seeded shuffle, which is the
  fairest version of "no scheduling insight at all";
* the alltoallv packer, :func:`repro.core.irregular.schedule_irregular`,
  which narrows the phases a message may join with a size window;
* the schedule-repair packer, :func:`repro.core.scheduler.schedule_pairs`,
  which seeds each message with the phase a template gave it.
"""

from __future__ import annotations

import random
from typing import Callable, Iterable, List, Mapping, Optional, Sequence

import numpy as np

from repro.core.message_table import edge_paths
from repro.core.pattern import Message, aapc_messages
from repro.core.schedule import MessageKind, PhasedSchedule
from repro.errors import TopologyError
from repro.topology.graph import Topology


def first_fit(
    topology: Topology,
    messages: Iterable[Message],
    *,
    hints: Optional[Mapping[Message, int]] = None,
    admits: Optional[Callable[[List[Message], Message], bool]] = None,
) -> List[List[Message]]:
    """Pack *messages* first-fit into contention-free phases.

    Each message, in the given order, joins the first phase whose
    members share none of its directed edges and that *admits* accepts;
    a new phase opens when none fits.  A message with an entry in
    *hints* tries its hinted phase first, opening empty phases up to it
    when needed.

    ``admits(phase, message)`` is asked only of non-empty phases that
    are edge-disjoint from *message*.  A phase it refuses is closed to
    every later message, so it must refuse those too: a size window
    over messages sorted largest first does.

    Every machine is a leaf, so edge-disjoint phases also give each
    machine at most one send and one receive per phase.
    """
    messages = list(messages)
    rooting = topology.rooting
    try:
        ends = np.array(
            [(rooting.index[m.src], rooting.index[m.dst]) for m in messages],
            dtype=np.int32,
        ).reshape(-1, 2)
    except KeyError as exc:
        raise TopologyError(f"unknown node: {exc.args[0]!r}") from None
    ptr, edges = edge_paths(rooting, ends[:, 0], ends[:, 1])
    bounds = ptr.tolist()
    edges = edges.tolist()
    closed = (1 << rooting.num_edge_ids) - 1
    used: List[int] = []  # per phase: bitmask of the directed edges taken
    phases: List[List[Message]] = []
    # Per edge id: every phase before this one carries the edge already.
    free_from = [0] * rooting.num_edge_ids

    def fits(p: int, mask: int, message: Message) -> bool:
        if mask & used[p]:
            return False
        if admits is None or not phases[p] or admits(phases[p], message):
            return True
        used[p] = closed
        return False

    for k, message in enumerate(messages):
        path = edges[bounds[k]:bounds[k + 1]]
        mask = 0
        for i in path:
            mask |= 1 << i
        p = None if hints is None else hints.get(message)
        if p is None or (p < len(phases) and not fits(p, mask, message)):
            for p in range(max(free_from[i] for i in path), len(phases)):
                if fits(p, mask, message):
                    break
            else:
                p = len(phases)
        while len(phases) <= p:
            used.append(0)
            phases.append([])
        used[p] |= mask
        phases[p].append(message)
        for i in path:
            q = free_from[i]
            while q < len(used) and used[q] >> i & 1:
                q += 1
            free_from[i] = q
    return phases


def greedy_phases(
    topology: Topology,
    messages: Optional[Sequence[Message]] = None,
) -> PhasedSchedule:
    """First-fit contention-free phase packing of *messages*.

    Messages default to the canonical AAPC enumeration.  The result is
    always contention free and complete, but generally uses more than
    the optimal ``|M_0| * (|M| - |M_0|)`` phases.
    """
    if messages is None:
        messages = aapc_messages(topology)
    phases = first_fit(topology, messages)
    schedule = PhasedSchedule(topology, len(phases))
    for p, phase in enumerate(phases):
        for message in phase:
            schedule.add(p, message, MessageKind.GLOBAL)
    return schedule


def random_order_phases(
    topology: Topology,
    *,
    seed: int = 0,
) -> PhasedSchedule:
    """Greedy packing over a seeded random message order."""
    messages = aapc_messages(topology)
    random.Random(seed).shuffle(messages)
    return greedy_phases(topology, messages)
