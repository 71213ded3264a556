"""A phased schedule's messages as integer arrays.

:class:`MessageTable` is the columnar form of a
:class:`~repro.core.schedule.PhasedSchedule` that the verifiers and the
sync planner read: one row per message, in
:meth:`~repro.core.schedule.PhasedSchedule.all_messages` order, with
each message's tree path as directed edge ids in CSR form.

Node and edge ids are those of the topology's one rooting
(:class:`~repro.topology.graph.Rooting`, made by validation): node
``x``'s up-edge ``x -> parent(x)`` has id ``2x``, its down-edge
``parent(x) -> x`` id ``2x + 1``.  A path climbs from the source to the
lowest common ancestor, then descends to the destination, so
:func:`edge_paths` finds every path with one pass per tree level over
all messages at once; no per-message walk happens in Python.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Sequence, Tuple

import numpy as np

from repro.errors import TopologyError
from repro.topology.graph import Rooting, Topology

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.schedule import ScheduledMessage


@dataclass(frozen=True)
class MessageTable:
    """Integer columns of a schedule's messages, in (phase, insertion) order.

    ``src`` and ``dst`` are machine ranks and ``phase`` the phase index
    (all ``int32``).  Message ``i``'s path edge ids, in traversal order,
    are ``path_edges[path_ptr[i]:path_ptr[i + 1]]``.  Node ids number the
    machines first, in rank order, so a rank is also its node id.
    """

    src: np.ndarray
    dst: np.ndarray
    phase: np.ndarray
    path_ptr: np.ndarray
    path_edges: np.ndarray
    #: The topology's rooting: node names, parent ids and edge ids.
    rooting: Rooting

    def __len__(self) -> int:
        return len(self.src)

    @property
    def nodes(self) -> Tuple[str, ...]:
        """Node names by id; the first ``num_machines`` are the machines."""
        return self.rooting.nodes

    @property
    def parent(self) -> np.ndarray:
        """Parent node id of each node under the rooting (-1 at the root)."""
        return self.rooting.parent

    @property
    def num_machines(self) -> int:
        return self.rooting.num_machines

    @property
    def num_edge_ids(self) -> int:
        return self.rooting.num_edge_ids

    def path_owner(self) -> np.ndarray:
        """The message index of each entry of ``path_edges``."""
        return np.repeat(
            np.arange(len(self.src), dtype=np.int32), np.diff(self.path_ptr)
        )

    def owner_of(self, entry: int) -> int:
        """The message whose path holds ``path_edges[entry]``."""
        return int(np.searchsorted(self.path_ptr, entry, side="right")) - 1


def build_message_table(
    topology: Topology, phases: Sequence[Sequence["ScheduledMessage"]]
) -> MessageTable:
    """The :class:`MessageTable` of *phases* (a schedule's phase lists)."""
    rooting = topology.rooting
    rank: Dict[str, int] = {m: i for i, m in enumerate(topology.machines)}
    count = sum(len(phase) for phase in phases)
    src = np.empty(count, dtype=np.int32)
    dst = np.empty(count, dtype=np.int32)
    try:
        src[:] = [rank[sm.message.src] for phase in phases for sm in phase]
        dst[:] = [rank[sm.message.dst] for phase in phases for sm in phase]
    except KeyError as exc:
        raise TopologyError(f"{exc.args[0]!r} is not a machine") from None
    phase = np.repeat(
        np.arange(len(phases), dtype=np.int32), [len(p) for p in phases]
    )
    path_ptr, path_edges = edge_paths(rooting, src, dst)
    return MessageTable(src, dst, phase, path_ptr, path_edges, rooting)


def edge_paths(
    rooting: Rooting, src: np.ndarray, dst: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Every ``src -> dst`` path as edge ids in CSR form ``(ptr, edges)``.

    *src* and *dst* are node ids.  ``anc[x, k]`` is ``x``'s ancestor at
    depth ``k``.  Ancestors agree up to the LCA's depth and differ below
    it, so counting the agreeing levels gives the LCA depth of all
    messages in one pass per level.
    """
    parent, depth = rooting.parent, rooting.depth
    levels = int(depth.max(initial=0)) + 1
    anc = np.full((len(parent), levels), -1, dtype=np.int32)
    for x in rooting.order.tolist():  # parents before children
        if parent[x] >= 0:
            anc[x] = anc[parent[x]]
        anc[x, depth[x]] = x
    du, dv = depth[src], depth[dst]
    lca_depth = np.full(len(src), -1, dtype=np.int32)
    for k in range(levels):
        lca_depth += (anc[src, k] == anc[dst, k]) & (anc[src, k] >= 0)
    ups = du - lca_depth
    downs = dv - lca_depth
    ptr = np.zeros(len(src) + 1, dtype=np.int64)
    np.cumsum(ups + downs, out=ptr[1:])
    edges = np.empty(int(ptr[-1]), dtype=np.int32)
    start = ptr[:-1]
    for j in range(int(ups.max(initial=0))):  # nearest up-edge first
        m = np.flatnonzero(ups > j)
        edges[start[m] + j] = 2 * anc[src[m], du[m] - j]
    for j in range(int(downs.max(initial=0))):  # then root-side first
        m = np.flatnonzero(downs > j)
        edges[start[m] + ups[m] + j] = 2 * anc[dst[m], lca_depth[m] + 1 + j] + 1
    return ptr, edges
