"""Bit-exact output of every query that reads the tree's rooting.

Five queries depend on how the tree is rooted and walked: the unique
paths of :class:`PathOracle`, the per-link machine counts of
:func:`subtree_machine_counts`, the subtree decomposition of
:meth:`Topology.subtree_machines` and :meth:`Topology.component_without_edge`,
and the :class:`MessageTable` columns of a built schedule (its parent
pointers, node order and path edge ids).  One digest below hashes all of
them, topology by topology.  It was recorded while each query still
rooted the tree with its own traversal, so it holds that reading one
shared rooting changed no path, count, subtree, edge id or dict order.

The cases run on the paper's Figure 1 cluster, topologies (a), (b) and
(c), a depth-3 switch hierarchy and 20 seeded random trees.
"""

import hashlib
import random

from repro.core.scheduler import schedule_aapc
from repro.topology.analysis import subtree_machine_counts
from repro.topology.builder import (
    paper_example_cluster,
    random_tree,
    topology_a,
    topology_b,
    topology_c,
    tree_of_switches,
)
from repro.topology.paths import PathOracle

GOLDEN = (
    "13a5c0b97ed42972ca9ea5784ede97a1b1139dc83070667babb205a24db74773"
)


def _topologies():
    yield "fig1", paper_example_cluster()
    yield "a", topology_a()
    yield "b", topology_b()
    yield "c", topology_c()
    yield "tree-3-3-3", tree_of_switches(3, 3, 3)
    rng = random.Random(33)
    for seed in range(20):
        yield (
            f"random-{seed}",
            random_tree(rng.randint(3, 16), rng.randint(1, 6), seed=seed),
        )


def _hash_topology(h, label, topo):
    h.update(f"== {label}\n".encode())
    oracle = PathOracle(topo)
    machines = topo.machines
    for u in machines:
        for v in machines:
            if u != v:
                h.update(f"path {u} {v} {oracle.path_edges(u, v)}\n".encode())
    h.update(f"counts {list(subtree_machine_counts(topo).items())}\n".encode())
    for u in topo.switches:
        for w in topo.neighbors(u):
            h.update(f"subtree {u} {w} {topo.subtree_machines(u, w)}\n".encode())
    for a, b in topo.links:
        for u, v in ((a, b), (b, a)):
            part = sorted(topo.component_without_edge(u, v))
            h.update(f"component {u} {v} {part}\n".encode())
    table = schedule_aapc(topo).table()
    h.update(f"nodes {table.nodes}\n".encode())
    for column in (table.parent, table.path_ptr, table.path_edges):
        h.update(f"{column.dtype} {column.tolist()}\n".encode())


def test_rooting_digest():
    h = hashlib.sha256()
    for label, topo in _topologies():
        _hash_topology(h, label, topo)
    assert h.hexdigest() == GOLDEN
