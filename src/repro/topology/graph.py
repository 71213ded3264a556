"""The tree network model from Section 3 of the paper.

A cluster is a directed graph ``G = (V, E)`` where ``V = S ∪ M`` —
switches and machines — and every physical link ``(u, v)`` contributes
two unidirectional edges ``(u, v)`` and ``(v, u)`` (full-duplex
Ethernet).  The spanning-tree protocol guarantees the physical topology
is a tree, so there is a unique path between any two nodes and machines
can only be leaves.

:class:`Topology` enforces these structural invariants on
:meth:`Topology.validate` and offers the queries the scheduling core
needs: neighbours, subtree decomposition and the machine↔rank mapping
used by the MPI-style layers.  Validation roots the tree once, in the
walk that checks connectivity; that :class:`Rooting` is what unique
paths, subtree counts, subtree decomposition and the message table read.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import TopologyError

#: A unidirectional channel between two adjacent nodes.
Edge = Tuple[str, str]


class NodeKind(enum.Enum):
    """Kind of a node in the cluster graph."""

    MACHINE = "machine"
    SWITCH = "switch"


@dataclass(frozen=True)
class Node:
    """A named node in the cluster graph.

    Attributes
    ----------
    name:
        Unique identifier, e.g. ``"n0"`` or ``"s1"``.
    kind:
        Whether the node is a compute machine (leaf) or a switch.
    """

    name: str
    kind: NodeKind

    @property
    def is_machine(self) -> bool:
        return self.kind is NodeKind.MACHINE

    @property
    def is_switch(self) -> bool:
        return self.kind is NodeKind.SWITCH


@dataclass(frozen=True, eq=False)
class Rooting:
    """A validated tree rooted at its first machine, as integer arrays.

    Node ids number the machines first, in rank order, then the
    switches in insertion order, so a machine's rank is its node id.
    Node ``x``'s up-edge ``x -> parent(x)`` has directed edge id ``2x``
    and its down-edge ``parent(x) -> x`` id ``2x + 1``; the root's two
    ids are unused.
    """

    nodes: Tuple[str, ...]
    num_machines: int
    index: Dict[str, int]
    #: Parent id of each node (-1 at the root), and its depth.
    parent: np.ndarray
    depth: np.ndarray
    #: Node ids breadth first from the root, neighbours in link order:
    #: parents come before children.
    order: np.ndarray

    @property
    def num_edge_ids(self) -> int:
        return 2 * len(self.nodes)

    def edge(self, eid: int) -> Edge:
        """The directed edge with id *eid*, as node names."""
        child, down = divmod(int(eid), 2)
        up = (self.nodes[child], self.nodes[self.parent[child]])
        return (up[1], up[0]) if down else up

    def link_ids(self, u: str, v: str) -> Tuple[int, ...]:
        """Both directed edge ids of the physical link ``u <-> v``.

        Empty when the two nodes are not adjacent in the tree.
        """
        x, y = self.index.get(u), self.index.get(v)
        if x is None or y is None:
            return ()
        if self.parent[x] == y:
            return (2 * x, 2 * x + 1)
        if self.parent[y] == x:
            return (2 * y, 2 * y + 1)
        return ()

    def side(self, u: str, v: str) -> np.ndarray:
        """Ids of the nodes on *u*'s side of link ``u <-> v``, ascending."""
        eids = self.link_ids(u, v)
        if not eids:
            raise TopologyError(f"no link between {u!r} and {v!r}")
        child = eids[0] // 2
        level = self.depth[child]
        up = np.arange(len(self.nodes))
        for _ in range(int(self.depth.max()) - level):  # climb to that level
            up = np.where(self.depth[up] > level, self.parent[up], up)
        below = up == child
        return np.flatnonzero(below if child == self.index[u] else ~below)


class Topology:
    """A switched-Ethernet cluster modelled as an undirected tree.

    Nodes are added with :meth:`add_machine` / :meth:`add_switch` and
    connected with :meth:`add_link`.  Machines are assigned contiguous
    MPI-style ranks in insertion order.  Call :meth:`validate` (or build
    through :mod:`repro.topology.builder`) before handing a topology to
    the scheduler; validation checks the tree invariants once so that all
    later queries can assume them.

    Example
    -------
    >>> topo = Topology()
    >>> topo.add_switch("s0")
    >>> topo.add_machine("n0"); topo.add_machine("n1"); topo.add_machine("n2")
    >>> for m in ("n0", "n1", "n2"):
    ...     topo.add_link("s0", m)
    >>> topo.validate()
    >>> topo.num_machines
    3
    """

    def __init__(self) -> None:
        self._nodes: Dict[str, Node] = {}
        self._adj: Dict[str, List[str]] = {}
        self._machines: List[str] = []
        self._switches: List[str] = []
        self._links: List[Tuple[str, str]] = []
        self._rooting: Optional[Rooting] = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_machine(self, name: str) -> None:
        """Add a compute machine (must end up a leaf of the tree)."""
        self._add_node(name, NodeKind.MACHINE)
        self._machines.append(name)

    def add_switch(self, name: str) -> None:
        """Add an Ethernet switch (interior node)."""
        self._add_node(name, NodeKind.SWITCH)
        self._switches.append(name)

    def _add_node(self, name: str, kind: NodeKind) -> None:
        if not name:
            raise TopologyError("node name must be non-empty")
        if name in self._nodes:
            raise TopologyError(f"duplicate node name: {name!r}")
        self._nodes[name] = Node(name, kind)
        self._adj[name] = []
        self._rooting = None

    def add_link(self, u: str, v: str) -> None:
        """Add a full-duplex physical link between nodes *u* and *v*.

        The link contributes the directed edges ``(u, v)`` and ``(v, u)``.
        """
        for name in (u, v):
            if name not in self._nodes:
                raise TopologyError(f"unknown node: {name!r}")
        if u == v:
            raise TopologyError(f"self-link on node {u!r}")
        if v in self._adj[u]:
            raise TopologyError(f"duplicate link between {u!r} and {v!r}")
        self._adj[u].append(v)
        self._adj[v].append(u)
        self._links.append((u, v))
        self._rooting = None

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------
    @property
    def machines(self) -> Sequence[str]:
        """Machine names in rank order."""
        return tuple(self._machines)

    @property
    def switches(self) -> Sequence[str]:
        """Switch names in insertion order."""
        return tuple(self._switches)

    @property
    def num_machines(self) -> int:
        return len(self._machines)

    @property
    def num_switches(self) -> int:
        return len(self._switches)

    @property
    def links(self) -> Sequence[Tuple[str, str]]:
        """Physical (undirected) links in insertion order."""
        return tuple(self._links)

    def nodes(self) -> Iterator[Node]:
        return iter(self._nodes.values())

    def node(self, name: str) -> Node:
        try:
            return self._nodes[name]
        except KeyError:
            raise TopologyError(f"unknown node: {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._nodes

    def is_machine(self, name: str) -> bool:
        return self.node(name).is_machine

    def is_switch(self, name: str) -> bool:
        return self.node(name).is_switch

    def neighbors(self, name: str) -> Sequence[str]:
        """Neighbours of *name* in link-insertion order."""
        if name not in self._adj:
            raise TopologyError(f"unknown node: {name!r}")
        return tuple(self._adj[name])

    def degree(self, name: str) -> int:
        return len(self.neighbors(name))

    def directed_edges(self) -> Iterator[Edge]:
        """Iterate over every unidirectional channel."""
        for u, v in self._links:
            yield (u, v)
            yield (v, u)

    # ------------------------------------------------------------------
    # rank mapping
    # ------------------------------------------------------------------
    def rank_of(self, machine: str) -> int:
        """MPI-style rank of a machine (insertion order)."""
        node = self.node(machine)
        if not node.is_machine:
            raise TopologyError(f"{machine!r} is a switch, not a machine")
        return self._machines.index(machine)

    def machine_of(self, rank: int) -> str:
        """Machine name for an MPI-style rank."""
        if not 0 <= rank < len(self._machines):
            raise TopologyError(
                f"rank {rank} out of range [0, {len(self._machines)})"
            )
        return self._machines[rank]

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check the Section 3 invariants; raise :class:`TopologyError` if violated.

        The invariants: at least one machine exists, the graph is
        connected, it is acyclic (``#links == #nodes - 1`` with
        connectivity), and every machine is a leaf.  The connectivity
        walk roots the tree at the first machine; the result is kept as
        :attr:`rooting` until the next ``add_*`` call.
        """
        if not self._machines:
            raise TopologyError("topology has no machines")
        n_nodes = len(self._nodes)
        if len(self._links) != n_nodes - 1:
            raise TopologyError(
                f"not a tree: {n_nodes} nodes but {len(self._links)} links "
                f"(a tree needs exactly {n_nodes - 1})"
            )
        nodes = tuple(self._machines) + tuple(self._switches)
        index = {name: i for i, name in enumerate(nodes)}
        parent = [-1] * n_nodes
        depth = [0] * n_nodes
        seen = [False] * n_nodes
        seen[0] = True
        order = [0]
        for x in order:  # breadth first; the list grows as it is read
            for name in self._adj[nodes[x]]:
                y = index[name]
                if not seen[y]:
                    seen[y] = True
                    parent[y] = x
                    depth[y] = depth[x] + 1
                    order.append(y)
        if len(order) != n_nodes:
            raise TopologyError(
                f"not connected: reached {len(order)} of {n_nodes} nodes"
            )
        for m in self._machines:
            if len(self._adj[m]) != 1:
                raise TopologyError(
                    f"machine {m!r} has degree {len(self._adj[m])}; machines "
                    "must be leaves attached to exactly one switch"
                )
            # A machine may attach directly to another machine only in the
            # degenerate 2-node cluster; the paper assumes |M| >= 3 with
            # switches, but we only require the peer to exist.
        self._rooting = Rooting(
            nodes,
            len(self._machines),
            index,
            *(np.array(a, dtype=np.int32) for a in (parent, depth, order)),
        )

    @property
    def validated(self) -> bool:
        return self._rooting is not None

    @property
    def rooting(self) -> Rooting:
        """The tree rooted at the first machine (validates on first use)."""
        if self._rooting is None:
            self.validate()
        return self._rooting  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # subtree decomposition
    # ------------------------------------------------------------------
    def component_without_edge(self, u: str, v: str) -> FrozenSet[str]:
        """Nodes of the connected component containing *u* when link (u, v) is removed.

        This is ``G_u`` from Section 3: removing a tree link splits the
        graph into exactly two components.
        """
        rooting = self.rooting
        return frozenset(rooting.nodes[x] for x in rooting.side(u, v).tolist())

    def subtree_machines(self, root: str, branch: str) -> List[str]:
        """Machines in the subtree of *root* through *branch*, rank order."""
        ids = self.rooting.side(branch, root)
        return [self._machines[x] for x in ids[ids < self.num_machines]]

    # ------------------------------------------------------------------
    # dunder helpers
    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Topology(machines={len(self._machines)}, "
            f"switches={len(self._switches)}, links={len(self._links)})"
        )

    def copy(self) -> "Topology":
        """Deep-ish copy (nodes are immutable)."""
        other = Topology()
        for name in self._nodes:
            node = self._nodes[name]
            if node.is_machine:
                other.add_machine(name)
            else:
                other.add_switch(name)
        for u, v in self._links:
            other.add_link(u, v)
        if self._rooting is not None:
            other.validate()
        return other

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Topology):
            return NotImplemented
        return (
            self._machines == other._machines
            and self._switches == other._switches
            and set(map(frozenset, self._links)) == set(map(frozenset, other._links))
        )

    def __hash__(self) -> int:  # topologies are mutable; identity hash
        return id(self)
