"""Naive contention-free phase decompositions, for comparison.

The paper's scheduler is *optimal*: its phase count equals the
bottleneck load.  A natural question (and our ablation) is how much
that optimality buys over the obvious approach: greedily pack messages
into phases first-fit, keeping each phase contention free.  Greedy
packing is correct but can exceed the optimal phase count — each extra
phase is an extra round of bottleneck-link time.

:func:`greedy_phases` implements first-fit packing over a configurable
message order; :func:`random_order_phases` uses a seeded shuffle, which
is the fairest version of "no scheduling insight at all".
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence

from repro.core.pattern import Message, aapc_messages
from repro.core.schedule import MessageKind, PhasedSchedule
from repro.topology.graph import Topology
from repro.topology.paths import PathOracle


def greedy_phases(
    topology: Topology,
    messages: Optional[Sequence[Message]] = None,
) -> PhasedSchedule:
    """First-fit contention-free phase packing of *messages*.

    Messages default to the canonical AAPC enumeration.  Every message
    goes into the first phase whose edge set it does not intersect; a
    new phase opens when none fits.  The result is always contention
    free and complete, but generally uses more than the optimal
    ``|M_0| * (|M| - |M_0|)`` phases.
    """
    oracle = PathOracle(topology)
    if messages is None:
        messages = aapc_messages(topology)
    phase_edges: List[set] = []
    placements: List[List[Message]] = []
    for message in messages:
        edges = frozenset(oracle.path_edges(message.src, message.dst))
        for edge_set, bucket in zip(phase_edges, placements):
            if not (edges & edge_set):
                edge_set.update(edges)
                bucket.append(message)
                break
        else:
            phase_edges.append(set(edges))
            placements.append([message])
    schedule = PhasedSchedule(topology, len(placements))
    for p, bucket in enumerate(placements):
        for message in bucket:
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
