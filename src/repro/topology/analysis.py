"""Load and bottleneck analysis (Section 3 of the paper).

The *load* of an edge under a communication pattern is the number of
messages whose path uses the edge; the *load of the pattern* is the load
of a most-loaded (bottleneck) edge.  For AAPC on a tree the load of the
physical link ``(u, v)`` is ``|M_u| * |M_v|`` — the machine counts of the
two components the link separates — identical in both directions, so the
paper speaks of link loads.

The peak aggregate throughput bound from Section 3::

    |M| * (|M| - 1) * B / (|M_u| * |M_v|)        (bottleneck link (u, v))

is what the scheduling algorithm provably attains, and what the
benchmark harness plots as the "Peak" line.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from repro.errors import TopologyError
from repro.topology.graph import Edge, Topology
from repro.topology.paths import PathOracle


def subtree_machine_counts(topology: Topology) -> Dict[Tuple[str, str], int]:
    """For every physical link ``(u, v)``, the number of machines on *v*'s side.

    Returned keys are ordered pairs in both orientations:
    ``counts[(u, v)]`` is ``|M_v|`` for the component containing ``v``
    when the link is removed, and ``counts[(u, v)] + counts[(v, u)] ==
    |M|`` for every link.

    One pass over the topology's rooting, children before parents,
    accumulates each node's machine count below it (O(V)).
    """
    rooting = topology.rooting
    nodes = rooting.nodes
    parent = rooting.parent.tolist()
    order = rooting.order[1:].tolist()
    total = topology.num_machines
    below = [1] * total + [0] * (len(nodes) - total)
    for x in reversed(order):
        below[parent[x]] += below[x]
    counts: Dict[Tuple[str, str], int] = {}
    for x in order:
        child, par = nodes[x], nodes[parent[x]]
        counts[(par, child)] = below[x]
        counts[(child, par)] = total - below[x]
    return counts


def aapc_edge_loads(topology: Topology) -> Dict[Edge, int]:
    """AAPC load of every directed edge: ``|M_u| * |M_v|`` per Section 3."""
    counts = subtree_machine_counts(topology)
    return {
        edge: counts[edge] * (topology.num_machines - counts[edge])
        for edge in counts
    }


def pattern_edge_loads(
    topology: Topology,
    messages: Iterable[Tuple[str, str]],
) -> Dict[Edge, int]:
    """Load of every directed edge under an arbitrary message pattern.

    Unlike :func:`aapc_edge_loads` this walks each message's path, so it
    works for partial patterns (used to cross-check the closed form and
    to analyse baseline algorithms' per-step contention).
    """
    oracle = PathOracle(topology)
    loads: Dict[Edge, int] = {edge: 0 for edge in topology.directed_edges()}
    for src, dst in messages:
        if src == dst:
            raise TopologyError(f"message {src!r} -> itself is not allowed")
        for edge in oracle.path_edges(src, dst):
            loads[edge] += 1
    return loads


def aapc_load(topology: Topology) -> int:
    """The load of the AAPC pattern: the load of a bottleneck edge."""
    loads = aapc_edge_loads(topology)
    if not loads:
        return 0
    return max(loads.values())


def bottleneck_edges(topology: Topology) -> List[Edge]:
    """All directed edges whose AAPC load equals the pattern load."""
    loads = aapc_edge_loads(topology)
    if not loads:
        return []
    peak = max(loads.values())
    return [edge for edge, load in loads.items() if load == peak]


def peak_aggregate_throughput(topology: Topology, bandwidth: float) -> float:
    """Section 3's peak aggregate AAPC throughput bound, in bytes/second.

    ``|M| * (|M|-1) * B / load`` where *load* is the bottleneck load and
    *bandwidth* ``B`` is the per-link bandwidth in bytes/second.
    """
    m = topology.num_machines
    if m < 2:
        raise TopologyError("AAPC needs at least two machines")
    return m * (m - 1) * bandwidth / aapc_load(topology)


def best_case_completion_time(
    topology: Topology, msize: int, bandwidth: float
) -> float:
    """Section 3's lower bound on AAPC completion time, in seconds.

    ``|M_u| * |M_v| * msize / B`` for a bottleneck link — i.e. the time
    to push the bottleneck link's traffic through at full bandwidth.
    """
    if msize < 0:
        raise TopologyError("message size must be non-negative")
    return aapc_load(topology) * msize / bandwidth


# ----------------------------------------------------------------------
# Heterogeneous-bandwidth extension (the paper assumes uniform B; real
# clusters often have faster trunks).  The time-based generalisation:
# the binding edge maximises load_e / B_e, not load_e.
# ----------------------------------------------------------------------
def _edge_bandwidth(link_bandwidths, edge, default: float) -> float:
    if not link_bandwidths:
        return default
    u, v = edge
    return link_bandwidths.get((u, v), link_bandwidths.get((v, u), default))


def weighted_bottleneck_edges(
    topology: Topology,
    bandwidth: float,
    link_bandwidths=None,
) -> List[Edge]:
    """Directed edges maximising ``load / bandwidth`` (time bottlenecks)."""
    loads = aapc_edge_loads(topology)
    if not loads:
        return []
    times = {
        e: load / _edge_bandwidth(link_bandwidths, e, bandwidth)
        for e, load in loads.items()
    }
    peak = max(times.values())
    return [e for e, t in times.items() if t >= peak * (1 - 1e-12)]


def weighted_best_case_completion_time(
    topology: Topology,
    msize: int,
    bandwidth: float,
    link_bandwidths=None,
) -> float:
    """AAPC completion lower bound with per-link bandwidth overrides."""
    if msize < 0:
        raise TopologyError("message size must be non-negative")
    loads = aapc_edge_loads(topology)
    return max(
        load * msize / _edge_bandwidth(link_bandwidths, e, bandwidth)
        for e, load in loads.items()
    )


def weighted_peak_aggregate_throughput(
    topology: Topology,
    bandwidth: float,
    link_bandwidths=None,
) -> float:
    """Section 3's throughput bound generalised to heterogeneous links."""
    m = topology.num_machines
    if m < 2:
        raise TopologyError("AAPC needs at least two machines")
    per_byte = weighted_best_case_completion_time(
        topology, 1, bandwidth, link_bandwidths
    )
    return m * (m - 1) / per_byte
