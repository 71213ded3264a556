"""IEEE 802.1D-style spanning tree computation.

Section 3 of the paper rests on one fact: "The switches use a spanning
tree algorithm to determine forwarding paths that follow a tree
structure [16]. Thus, the physical topology of the network is always a
tree."  Real machine rooms are wired with redundant links; what the
scheduler sees is the *active* forwarding topology after the bridges
block the loops.

This module models that step so the library can start from the physical
wiring (an arbitrary connected multigraph of switches plus machine
attachments) and derive the forwarding tree the paper's algorithm
needs:

* every switch has a **bridge ID** (priority, then a tie-breaking
  identifier — the MAC address in real bridges, the name here);
* the **root bridge** is the switch with the smallest bridge ID;
* every other switch keeps the port on its least-cost path to the root
  (cost = sum of link costs, ties broken by the neighbour's bridge ID
  and then the port's link ID, mirroring 802.1D's designated-bridge and
  port-priority tie-breaks);
* all other switch-to-switch links are **blocked**;
* machine attachment links are always forwarding (edge ports).

The result is returned both as the set of active links and as a ready
:class:`~repro.topology.graph.Topology`.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import TopologyError
from repro.obs.metrics_registry import add_counters, pipeline_span
from repro.topology.graph import Topology

#: Default 802.1D path cost for 100 Mbps Ethernet.
DEFAULT_LINK_COST = 19


@dataclass(frozen=True, order=True)
class BridgeId:
    """An 802.1D bridge identifier: (priority, tie-break name)."""

    priority: int
    name: str

    def __str__(self) -> str:
        return f"{self.priority}.{self.name}"


@dataclass
class PhysicalNetwork:
    """Physical wiring: switches, machines, and possibly-redundant links.

    Unlike :class:`Topology`, cycles and parallel switch links are
    allowed — that is the point.  Machines still attach to exactly one
    switch (an edge port).
    """

    switch_priority: Dict[str, int] = field(default_factory=dict)
    machine_attachment: Dict[str, str] = field(default_factory=dict)
    #: (switch_a, switch_b, cost) — parallel links allowed.
    switch_links: List[Tuple[str, str, int]] = field(default_factory=list)

    # ------------------------------------------------------------------
    def add_switch(self, name: str, priority: int = 32768) -> None:
        """Add a switch with an 802.1D priority (default 32768)."""
        if name in self.switch_priority or name in self.machine_attachment:
            raise TopologyError(f"duplicate node name: {name!r}")
        self.switch_priority[name] = priority

    def add_machine(self, name: str, switch: str) -> None:
        """Attach a machine to a switch edge port."""
        if name in self.switch_priority or name in self.machine_attachment:
            raise TopologyError(f"duplicate node name: {name!r}")
        if switch not in self.switch_priority:
            raise TopologyError(f"unknown switch: {switch!r}")
        self.machine_attachment[name] = switch

    def add_link(self, a: str, b: str, cost: int = DEFAULT_LINK_COST) -> None:
        """Add a switch-to-switch link; parallel links are legal."""
        for name in (a, b):
            if name not in self.switch_priority:
                raise TopologyError(f"unknown switch: {name!r}")
        if a == b:
            raise TopologyError(f"self-link on switch {a!r}")
        if cost <= 0:
            raise TopologyError("link cost must be positive")
        self.switch_links.append((a, b, cost))

    def bridge_id(self, switch: str) -> BridgeId:
        return BridgeId(self.switch_priority[switch], switch)


@dataclass(frozen=True)
class SpanningTreeResult:
    """Outcome of the protocol run."""

    root_bridge: str
    #: Active switch links as (a, b, cost), in stable order.
    forwarding_links: Tuple[Tuple[str, str, int], ...]
    #: Blocked switch links as (a, b, cost).
    blocked_links: Tuple[Tuple[str, str, int], ...]
    #: Least path cost from each switch to the root bridge.
    root_path_cost: Dict[str, int]
    #: The resulting forwarding topology (machines included).
    topology: Topology


def compute_spanning_tree(network: PhysicalNetwork) -> SpanningTreeResult:
    """Run the 802.1D election and return the forwarding tree.

    Raises :class:`TopologyError` for an empty or disconnected switch
    fabric (a partitioned network has no single spanning tree).
    """
    with pipeline_span("spanning_tree"):
        return _compute_spanning_tree(network)


def _compute_spanning_tree(network: PhysicalNetwork) -> SpanningTreeResult:
    switches = sorted(network.switch_priority)
    if not switches:
        raise TopologyError("no switches in the physical network")

    root = min(switches, key=network.bridge_id)

    # Dijkstra from the root over (cost, designated bridge id, link index)
    # lexicographic distances — exactly 802.1D's tie-break order:
    # least root path cost, then lowest upstream bridge ID, then lowest
    # port (here: link declaration index).
    adjacency: Dict[str, List[Tuple[str, int, int]]] = {s: [] for s in switches}
    for idx, (a, b, cost) in enumerate(network.switch_links):
        adjacency[a].append((b, cost, idx))
        adjacency[b].append((a, cost, idx))

    best: Dict[str, Tuple[int, BridgeId, int]] = {}
    parent_link: Dict[str, int] = {}
    root_key = (0, network.bridge_id(root), -1)
    best[root] = root_key
    heap: List[Tuple[int, BridgeId, int, str]] = [(0, network.bridge_id(root), -1, root)]
    visited: Set[str] = set()
    while heap:
        cost, via_bridge, via_link, node = heapq.heappop(heap)
        if node in visited:
            continue
        visited.add(node)
        for neighbor, link_cost, link_idx in adjacency[node]:
            if neighbor in visited:
                continue
            candidate = (cost + link_cost, network.bridge_id(node), link_idx)
            if neighbor not in best or candidate < best[neighbor]:
                best[neighbor] = candidate
                parent_link[neighbor] = link_idx
                heapq.heappush(
                    heap, (candidate[0], candidate[1], link_idx, neighbor)
                )

    unreachable = [s for s in switches if s not in visited]
    if unreachable:
        raise TopologyError(
            f"switch fabric is partitioned; unreachable from root "
            f"{root!r}: {unreachable}"
        )

    active_indices = set(parent_link.values())
    forwarding = tuple(
        link
        for idx, link in enumerate(network.switch_links)
        if idx in active_indices
    )
    blocked = tuple(
        link
        for idx, link in enumerate(network.switch_links)
        if idx not in active_indices
    )

    topology = Topology()
    for s in switches:
        topology.add_switch(s)
    for a, b, _cost in forwarding:
        topology.add_link(a, b)
    # machines keep their declaration order, which fixes MPI ranks
    for machine in network.machine_attachment:
        topology.add_machine(machine)
        topology.add_link(network.machine_attachment[machine], machine)
    topology.validate()

    add_counters(
        switches=len(switches),
        forwarding_links=len(forwarding),
        blocked_links=len(blocked),
    )
    return SpanningTreeResult(
        root_bridge=root,
        forwarding_links=forwarding,
        blocked_links=blocked,
        root_path_cost={s: best[s][0] for s in switches},
        topology=topology,
    )
