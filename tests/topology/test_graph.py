"""Unit tests for the tree topology model (paper Section 3)."""

import pytest

from repro.errors import TopologyError
from repro.topology.graph import NodeKind, Topology


def build_line():
    """n0 - s0 - s1 - n1"""
    topo = Topology()
    topo.add_switch("s0")
    topo.add_switch("s1")
    topo.add_machine("n0")
    topo.add_machine("n1")
    topo.add_link("n0", "s0")
    topo.add_link("s0", "s1")
    topo.add_link("s1", "n1")
    return topo


class TestConstruction:
    def test_counts(self):
        topo = build_line()
        assert topo.num_machines == 2
        assert topo.num_switches == 2
        assert len(topo.links) == 3

    def test_node_kinds(self):
        topo = build_line()
        assert topo.node("s0").kind is NodeKind.SWITCH
        assert topo.node("n0").kind is NodeKind.MACHINE
        assert topo.node("n0").is_machine
        assert topo.node("s0").is_switch
        assert topo.is_machine("n1")
        assert topo.is_switch("s1")

    def test_contains(self):
        topo = build_line()
        assert "n0" in topo
        assert "nope" not in topo

    def test_duplicate_node_rejected(self):
        topo = Topology()
        topo.add_switch("s0")
        with pytest.raises(TopologyError, match="duplicate"):
            topo.add_machine("s0")

    def test_empty_name_rejected(self):
        topo = Topology()
        with pytest.raises(TopologyError, match="non-empty"):
            topo.add_switch("")

    def test_unknown_node_in_link(self):
        topo = Topology()
        topo.add_switch("s0")
        with pytest.raises(TopologyError, match="unknown node"):
            topo.add_link("s0", "ghost")

    def test_self_link_rejected(self):
        topo = Topology()
        topo.add_switch("s0")
        with pytest.raises(TopologyError, match="self-link"):
            topo.add_link("s0", "s0")

    def test_duplicate_link_rejected(self):
        topo = build_line()
        with pytest.raises(TopologyError, match="duplicate link"):
            topo.add_link("s1", "s0")

    def test_unknown_node_query(self):
        topo = build_line()
        with pytest.raises(TopologyError, match="unknown node"):
            topo.node("ghost")
        with pytest.raises(TopologyError, match="unknown node"):
            topo.neighbors("ghost")


class TestValidation:
    def test_valid_tree(self):
        topo = build_line()
        topo.validate()
        assert topo.validated

    def test_no_machines(self):
        topo = Topology()
        topo.add_switch("s0")
        with pytest.raises(TopologyError, match="no machines"):
            topo.validate()

    def test_cycle_detected(self):
        topo = Topology()
        for s in ("s0", "s1", "s2"):
            topo.add_switch(s)
        topo.add_machine("n0")
        topo.add_link("s0", "s1")
        topo.add_link("s1", "s2")
        topo.add_link("s2", "s0")
        topo.add_link("s0", "n0")
        with pytest.raises(TopologyError, match="not a tree"):
            topo.validate()

    def test_disconnected_detected(self):
        topo = Topology()
        topo.add_switch("s0")
        topo.add_switch("s1")
        topo.add_machine("n0")
        topo.add_machine("n1")
        topo.add_link("s0", "n0")
        # second component: s1 - n1, plus an extra edge to keep the
        # link count at nodes - 1 is impossible; use 2 components with
        # n-2 links and check connectivity error comes from the count.
        with pytest.raises(TopologyError, match="not a tree"):
            topo.validate()

    def test_disconnected_with_right_link_count(self):
        # Two components but |links| == |nodes| - 1 (one component has a
        # cycle): 5 nodes, 4 links.
        topo = Topology()
        for s in ("s0", "s1", "s2"):
            topo.add_switch(s)
        topo.add_machine("n0")
        topo.add_machine("n1")
        topo.add_link("s0", "s1")
        topo.add_link("s1", "s2")
        topo.add_link("s2", "s0")
        topo.add_link("n0", "n1")
        with pytest.raises(TopologyError, match="not connected"):
            topo.validate()

    def test_machine_must_be_leaf(self):
        topo = Topology()
        topo.add_switch("s0")
        topo.add_machine("n0")
        topo.add_machine("n1")
        topo.add_link("s0", "n0")
        topo.add_link("n0", "n1")
        with pytest.raises(TopologyError, match="leaves"):
            topo.validate()

    def test_mutation_resets_validation(self):
        topo = build_line()
        topo.validate()
        topo.add_machine("n2")
        assert not topo.validated


class TestRankMapping:
    def test_rank_order_is_insertion_order(self):
        topo = build_line()
        assert topo.machines == ("n0", "n1")
        assert topo.rank_of("n0") == 0
        assert topo.rank_of("n1") == 1
        assert topo.machine_of(0) == "n0"
        assert topo.machine_of(1) == "n1"

    def test_rank_of_switch_rejected(self):
        topo = build_line()
        with pytest.raises(TopologyError, match="switch"):
            topo.rank_of("s0")

    def test_rank_out_of_range(self):
        topo = build_line()
        with pytest.raises(TopologyError, match="out of range"):
            topo.machine_of(2)
        with pytest.raises(TopologyError, match="out of range"):
            topo.machine_of(-1)


class TestStructureQueries:
    def test_directed_edges_both_orientations(self):
        topo = build_line()
        edges = set(topo.directed_edges())
        assert ("n0", "s0") in edges
        assert ("s0", "n0") in edges
        assert len(edges) == 2 * len(topo.links)

    def test_component_without_edge(self):
        topo = build_line()
        left = topo.component_without_edge("s0", "s1")
        right = topo.component_without_edge("s1", "s0")
        assert left == {"s0", "n0"}
        assert right == {"s1", "n1"}

    def test_component_requires_link(self):
        topo = build_line()
        with pytest.raises(TopologyError, match="no link"):
            topo.component_without_edge("n0", "n1")

    def test_subtree_machines(self):
        topo = build_line()
        assert topo.subtree_machines("s0", "s1") == ["n1"]
        assert topo.subtree_machines("s0", "n0") == ["n0"]

    def test_degree(self):
        topo = build_line()
        assert topo.degree("s0") == 2
        assert topo.degree("n0") == 1


class TestCopyAndEquality:
    def test_copy_equal_but_independent(self):
        topo = build_line()
        topo.validate()
        other = topo.copy()
        assert other == topo
        assert other.validated
        other.add_machine("n2")
        other.add_link("s1", "n2")
        assert other != topo
        assert topo.num_machines == 2

    def test_equality_ignores_link_orientation(self):
        a = build_line()
        b = Topology()
        b.add_switch("s0")
        b.add_switch("s1")
        b.add_machine("n0")
        b.add_machine("n1")
        b.add_link("s0", "n0")  # reversed endpoint order
        b.add_link("s1", "s0")
        b.add_link("n1", "s1")
        assert a == b

    def test_equality_with_non_topology(self):
        assert build_line() != object()
