"""Tests for unique-path queries and the contention predicate."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import TopologyError
from repro.topology.builder import paper_example_cluster, random_tree
from repro.topology.paths import PathOracle


@pytest.fixture
def oracle(fig1):
    return PathOracle(fig1)


class TestPaperExample:
    def test_path_n0_n3_matches_paper(self, oracle):
        """Section 3: path(n0, n3) = {(n0,s0),(s0,s1),(s1,s3),(s3,n3)}."""
        assert oracle.path_edges("n0", "n3") == (
            ("n0", "s0"),
            ("s0", "s1"),
            ("s1", "s3"),
            ("s3", "n3"),
        )

    def test_path_nodes(self, oracle):
        assert oracle.path_nodes("n0", "n3") == ("n0", "s0", "s1", "s3", "n3")

    def test_reverse_path_is_reversed(self, oracle):
        fwd = oracle.path_edges("n0", "n3")
        back = oracle.path_edges("n3", "n0")
        assert back == tuple((v, u) for (u, v) in reversed(fwd))

    def test_trivial_path(self, oracle):
        assert oracle.path_nodes("n0", "n0") == ("n0",)
        assert oracle.path_edges("n0", "n0") == ()

    def test_hops(self, oracle):
        assert oracle.hops("n0", "n3") == 4
        assert oracle.hops("n0", "n0") == 0
        assert oracle.hops("n5", "s1") == 1

    def test_unknown_node(self, oracle):
        with pytest.raises(TopologyError):
            oracle.path_nodes("n0", "ghost")


class TestConflicts:
    def test_same_direction_share_edge(self, oracle):
        # both cross (s0, s1)
        assert oracle.messages_conflict(("n0", "n3"), ("n1", "n5"))

    def test_opposite_directions_do_not_conflict(self, oracle):
        # duplex link: (s0, s1) vs (s1, s0)
        assert not oracle.messages_conflict(("n0", "n3"), ("n3", "n1"))

    def test_disjoint_paths(self, oracle):
        assert not oracle.messages_conflict(("n1", "n2"), ("n3", "n4"))

    def test_lemma3_into_and_out_of_same_node(self, oracle):
        """Lemma 3: path(x, y) and path(y, z) are edge-disjoint."""
        machines = ["n0", "n1", "n2", "n3", "n4", "n5"]
        for x in machines:
            for y in machines:
                for z in machines:
                    if len({x, y, z}) != 3:
                        continue
                    assert not oracle.messages_conflict((x, y), (y, z)), (
                        f"path({x},{y}) and path({y},{z}) share an edge"
                    )

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), data=st.data())
    def test_conflict_is_path_edge_intersection(self, seed, data):
        """``messages_conflict`` is exactly "the two paths share a directed
        edge", checked pair by pair against the node walks on random trees."""
        topo = random_tree(
            data.draw(st.integers(2, 10)), data.draw(st.integers(1, 4)), seed=seed
        )
        oracle = PathOracle(topo)
        machines = list(topo.machines)
        pairs = [(u, v) for u in machines for v in machines if u != v]

        def walk(pair):
            nodes = oracle.path_nodes(*pair)
            return list(zip(nodes, nodes[1:]))

        for a in data.draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=8)):
            for b in pairs:
                shared = any(e == f for e in walk(a) for f in walk(b))
                assert oracle.messages_conflict(a, b) == shared
                assert oracle.messages_conflict(b, a) == shared


class TestPathProperties:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), data=st.data())
    def test_paths_on_random_trees(self, seed, data):
        topo = random_tree(
            data.draw(st.integers(2, 12)), data.draw(st.integers(1, 5)), seed=seed
        )
        oracle = PathOracle(topo)
        machines = list(topo.machines)
        u = data.draw(st.sampled_from(machines))
        v = data.draw(st.sampled_from(machines))
        nodes = oracle.path_nodes(u, v)
        # endpoints, no repeats (simple path), consecutive adjacency
        assert nodes[0] == u and nodes[-1] == v
        assert len(set(nodes)) == len(nodes)
        for a, b in zip(nodes, nodes[1:]):
            assert b in topo.neighbors(a)
        assert oracle.hops(u, v) == len(nodes) - 1

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), data=st.data())
    def test_path_edges_match_node_walk(self, seed, data):
        """The sliced edge paths equal the pairwise zip of the node walk."""
        topo = random_tree(
            data.draw(st.integers(2, 12)), data.draw(st.integers(1, 5)), seed=seed
        )
        oracle = PathOracle(topo)
        names = [node.name for node in topo.nodes()]
        for u in names:
            assert oracle.path_edges(u, u) == ()
            for v in names:
                nodes = oracle.path_nodes(u, v)
                assert oracle.path_edges(u, v) == tuple(zip(nodes, nodes[1:]))
        known = data.draw(st.sampled_from(names))
        for u, v in ((known, "ghost"), ("ghost", known), ("ghost", "phantom")):
            with pytest.raises(TopologyError):
                oracle.path_edges(u, v)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_lca_symmetry(self, seed):
        topo = random_tree(6, 3, seed=seed)
        oracle = PathOracle(topo)
        machines = list(topo.machines)
        for u in machines[:4]:
            for v in machines[:4]:
                assert oracle.lca(u, v) == oracle.lca(v, u)
