"""A phased schedule's messages as integer arrays.

:class:`MessageTable` is the columnar form of a
:class:`~repro.core.schedule.PhasedSchedule` that the verifiers and the
sync planner read: one row per message, in
:meth:`~repro.core.schedule.PhasedSchedule.all_messages` order, with
each message's tree path as directed edge ids in CSR form.

Edge ids come from parent pointers.  The tree is rooted once (BFS from
the first machine) and node ``x``'s up-edge ``x -> parent(x)`` gets id
``2x``, its down-edge ``parent(x) -> x`` id ``2x + 1``.  A path climbs
from the source to the lowest common ancestor, then descends to the
destination, so one pass per tree level over all messages at once
yields every path; no per-message walk happens in Python.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

import numpy as np

from repro.errors import TopologyError
from repro.topology.graph import Edge, Topology

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
    #: Node names by node id; the first ``num_machines`` are the machines.
    nodes: Tuple[str, ...]
    num_machines: int
    #: Parent node id of each node under the rooting (-1 at the root).
    parent: np.ndarray

    def __len__(self) -> int:
        return len(self.src)

    @property
    def num_edge_ids(self) -> int:
        return 2 * len(self.nodes)

    def path_owner(self) -> np.ndarray:
        """The message index of each entry of ``path_edges``."""
        return np.repeat(
            np.arange(len(self.src), dtype=np.int32), np.diff(self.path_ptr)
        )

    def owner_of(self, entry: int) -> int:
        """The message whose path holds ``path_edges[entry]``."""
        return int(np.searchsorted(self.path_ptr, entry, side="right")) - 1

    def edge(self, eid: int) -> Edge:
        """The directed edge with id *eid*, as node names."""
        child, down = divmod(int(eid), 2)
        up = (self.nodes[child], self.nodes[self.parent[child]])
        return (up[1], up[0]) if down else up

    def link_ids(self, u: str, v: str) -> Tuple[int, ...]:
        """Both directed edge ids of the physical link ``u <-> v``.

        Empty when the two nodes are not adjacent in the tree.
        """
        index = {name: i for i, name in enumerate(self.nodes)}
        x, y = index.get(u), index.get(v)
        if x is None or y is None:
            return ()
        if self.parent[x] == y:
            return (2 * x, 2 * x + 1)
        if self.parent[y] == x:
            return (2 * y, 2 * y + 1)
        return ()


def build_message_table(
    topology: Topology, phases: Sequence[Sequence["ScheduledMessage"]]
) -> MessageTable:
    """The :class:`MessageTable` of *phases* (a schedule's phase lists)."""
    if not topology.validated:
        topology.validate()
    nodes, parent, depth = _rooted_tree(topology)
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
    path_ptr, path_edges = _paths(parent, depth, src, dst)
    return MessageTable(
        src, dst, phase, path_ptr, path_edges, nodes, len(rank), parent
    )


def _rooted_tree(
    topology: Topology,
) -> Tuple[Tuple[str, ...], np.ndarray, np.ndarray]:
    """Node names (machines first), parent ids and depths of a BFS rooting."""
    nodes = tuple(topology.machines) + tuple(topology.switches)
    index = {name: i for i, name in enumerate(nodes)}
    parent = np.full(len(nodes), -1, dtype=np.int32)
    depth = np.zeros(len(nodes), dtype=np.int32)
    seen = [False] * len(nodes)
    seen[0] = True
    frontier: List[int] = [0]
    while frontier:
        nxt: List[int] = []
        for u in frontier:
            for name in topology.neighbors(nodes[u]):
                v = index[name]
                if not seen[v]:
                    seen[v] = True
                    parent[v] = u
                    depth[v] = depth[u] + 1
                    nxt.append(v)
        frontier = nxt
    return nodes, parent, depth


def _paths(
    parent: np.ndarray, depth: np.ndarray, src: np.ndarray, dst: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Every ``src -> dst`` path as edge ids in CSR form ``(ptr, edges)``.

    ``anc[x, k]`` is ``x``'s ancestor at depth ``k``.  Ancestors agree
    up to the LCA's depth and differ below it, so counting the agreeing
    levels gives the LCA depth of all messages in one pass per level.
    """
    levels = int(depth.max(initial=0)) + 1
    anc = np.full((len(parent), levels), -1, dtype=np.int32)
    for x in np.argsort(depth, kind="stable"):  # parents before children
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
