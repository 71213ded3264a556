"""The built schedule certifies Section 3's load bound, edge for edge.

Section 3 gives the AAPC load of every directed edge in closed form,
``|M_u| * |M_v|`` from the machine counts on the link's two sides
(:func:`aapc_edge_loads`).  A built schedule carries every message once,
so counting the edge ids on its messages' paths must reproduce that
closed form on every edge, and the busiest edge's count must equal the
schedule's phase count: one message per edge per phase, no more phases
than the bottleneck needs.  The count and the closed form meet through
the edge ids of the topology's one rooting.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.scheduler import schedule_aapc
from repro.topology.analysis import aapc_edge_loads
from repro.topology.builder import random_tree, star_of_switches, tree_of_switches

random_trees = st.builds(
    lambda m, s, seed: random_tree(m, s, seed=seed),
    st.integers(2, 24),
    st.integers(1, 8),
    st.integers(0, 10_000),
)
deep_trees = st.builds(
    tree_of_switches, st.integers(1, 3), st.integers(2, 4), st.integers(1, 3)
)
star_trees = st.builds(
    star_of_switches, st.lists(st.integers(1, 6), min_size=1, max_size=6)
)


def _certify(topo):
    schedule = schedule_aapc(topo)
    table = schedule.table()
    counted = np.bincount(table.path_edges, minlength=table.num_edge_ids)
    closed = np.zeros(table.num_edge_ids, dtype=np.int64)
    rooting = table.rooting
    for (u, v), load in aapc_edge_loads(topo).items():
        up, down = rooting.link_ids(u, v)
        closed[up if rooting.edge(up) == (u, v) else down] = load
    assert counted.tolist() == closed.tolist()
    assert counted.max() == schedule.num_phases


@settings(max_examples=40, deadline=None)
@given(random_trees)
def test_random_trees(topo):
    _certify(topo)


@settings(max_examples=15, deadline=None)
@given(deep_trees)
def test_deep_trees(topo):
    _certify(topo)


@settings(max_examples=20, deadline=None)
@given(star_trees)
def test_star_trees(topo):
    _certify(topo)
