"""Unique-path queries on tree topologies.

On a tree there is exactly one simple path between any two nodes, so the
paper can speak of *the* path ``path(u, v)`` — the set of directed edges
from ``u`` to ``v`` (Section 3).  :class:`PathOracle` answers those
queries in O(path length).  It reads the tree's one rooting
(:attr:`Topology.rooting`, made by validation) and walks nothing
itself, so every consumer builds its own oracle from the topology it
holds, and nothing is memoised per pair.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import TopologyError
from repro.topology.graph import Edge, Topology


class PathOracle:
    """Answers ``path(u, v)`` queries on a validated :class:`Topology`.

    The oracle reads each node's parent and depth from the topology's
    rooting and records, parents first, its directed edges to and from
    the root.  Any path is then two tuple slices cut at the LCA depth:
    the node's up-edges, then the other node's down-edges.  Nothing is
    cached per pair: a caller that queries a pair repeatedly keeps the
    result itself.

    Example
    -------
    >>> from repro.topology import paper_example_cluster
    >>> topo = paper_example_cluster()
    >>> oracle = PathOracle(topo)
    >>> oracle.path_nodes("n0", "n3")
    ('n0', 's0', 's1', 's3', 'n3')
    """

    def __init__(self, topology: Topology) -> None:
        self.topology = topology
        rooting = topology.rooting
        nodes = rooting.nodes
        parent = rooting.parent.tolist()
        self._parent: Dict[str, Optional[str]] = {
            v: nodes[p] if p >= 0 else None for v, p in zip(nodes, parent)
        }
        self._depth: Dict[str, int] = dict(zip(nodes, rooting.depth.tolist()))
        root = nodes[0]
        #: Directed edges from a node up to the root, nearest first.
        self._up: Dict[str, Tuple[Edge, ...]] = {root: ()}
        #: Directed edges from the root down to a node, root first.
        self._down: Dict[str, Tuple[Edge, ...]] = {root: ()}
        for x in rooting.order[1:].tolist():
            v, u = nodes[x], nodes[parent[x]]
            self._up[v] = ((v, u),) + self._up[u]
            self._down[v] = self._down[u] + ((u, v),)

    # ------------------------------------------------------------------
    def lca(self, u: str, v: str) -> str:
        """Lowest common ancestor of *u* and *v* under the rooting."""
        du, dv = self._depth_of(u), self._depth_of(v)
        while du > dv:
            u = self._parent[u]  # type: ignore[assignment]
            du -= 1
        while dv > du:
            v = self._parent[v]  # type: ignore[assignment]
            dv -= 1
        while u != v:
            u = self._parent[u]  # type: ignore[assignment]
            v = self._parent[v]  # type: ignore[assignment]
        return u

    def _depth_of(self, u: str) -> int:
        try:
            return self._depth[u]
        except KeyError:
            raise TopologyError(f"unknown node: {u!r}") from None

    def path_nodes(self, u: str, v: str) -> Tuple[str, ...]:
        """The node sequence of the unique path from *u* to *v* (inclusive)."""
        if u == v:
            return (u,)
        anc = self.lca(u, v)
        up: List[str] = []
        node = u
        while node != anc:
            up.append(node)
            node = self._parent[node]  # type: ignore[assignment]
        up.append(anc)
        down: List[str] = []
        node = v
        while node != anc:
            down.append(node)
            node = self._parent[node]  # type: ignore[assignment]
        return tuple(up + list(reversed(down)))

    def path_edges(self, u: str, v: str) -> Tuple[Edge, ...]:
        """The directed edges of ``path(u, v)``, in traversal order."""
        if u == v:
            return ()
        da = self._depth[self.lca(u, v)]
        return self._up[u][: self._depth[u] - da] + self._down[v][da:]

    def hops(self, u: str, v: str) -> int:
        """Number of directed edges on ``path(u, v)``."""
        anc = self.lca(u, v)
        return (self._depth_of(u) - self._depth[anc]) + (
            self._depth_of(v) - self._depth[anc]
        )

    def messages_conflict(self, a: Tuple[str, str], b: Tuple[str, str]) -> bool:
        """True when messages ``a = u1→v1`` and ``b = u2→v2`` share a directed edge.

        This is the paper's definition of *contention* between two
        messages.
        """
        return not set(self.path_edges(*a)).isdisjoint(self.path_edges(*b))
