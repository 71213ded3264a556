"""Tests for the alltoallv algorithm implementations."""

import pytest

from repro.algorithms.irregular import (
    PostAllAlltoallv,
    ScheduledAlltoallv,
    expected_blocks_for,
)
from repro.core.irregular import schedule_irregular, uniform_sizes
from repro.core.program import OpKind
from repro.core.synchronization import build_sync_plan
from repro.sim.executor import run_programs
from repro.sim.params import NetworkParams
from repro.topology.builder import chain_of_switches, single_switch
from repro.units import kib


@pytest.fixture
def topo():
    return single_switch(5)


@pytest.fixture
def skewed_sizes(topo):
    """A hot-spot pattern: n0 fans out big data, others trickle."""
    sizes = {}
    machines = list(topo.machines)
    for dst in machines[1:]:
        sizes[("n0", dst)] = kib(256)
    for i, src in enumerate(machines[1:], start=1):
        sizes[(src, machines[(i + 1) % len(machines)])] = kib(4 * i)
    return {k: v for k, v in sizes.items() if k[0] != k[1]}


def run(topo, algorithm, sizes, params):
    programs = algorithm.build_programs(topo, sizes)
    return run_programs(
        topo,
        programs,
        msize=0,  # all ops carry explicit nbytes
        params=params,
        expected_blocks=expected_blocks_for(topo, sizes),
    )


def assert_explicit_sizes(programs, sizes):
    """Every pair's send and receive carry the pair's byte count."""
    seen = {OpKind.ISEND: set(), OpKind.IRECV: set()}
    for prog in programs.values():
        for op in prog.ops:
            if op.kind in seen:
                assert op.nbytes == sizes[op.blocks[0]]
                seen[op.kind].add(op.blocks[0])
    assert seen[OpKind.ISEND] == seen[OpKind.IRECV] == set(sizes)


class TestExpectedBlocks:
    def test_expectation_matches_pattern(self, topo):
        sizes = {("n0", "n1"): 10, ("n2", "n1"): 20}
        expected = expected_blocks_for(topo, sizes)
        assert expected["n1"] == {("n0", "n1"), ("n2", "n1")}
        assert expected["n0"] == set()


class TestPostAll:
    def test_delivers_skewed_pattern(self, topo, skewed_sizes, quiet_params):
        run(topo, PostAllAlltoallv(), skewed_sizes, quiet_params)

    def test_ops_carry_explicit_sizes(self, topo, skewed_sizes):
        programs = PostAllAlltoallv().build_programs(topo, skewed_sizes)
        assert_explicit_sizes(programs, skewed_sizes)

    def test_empty_pattern(self, topo, quiet_params):
        run(topo, PostAllAlltoallv(), {}, quiet_params)


class TestScheduled:
    def test_delivers_skewed_pattern(self, topo, skewed_sizes, quiet_params):
        result = run(topo, ScheduledAlltoallv(), skewed_sizes, quiet_params)
        assert result.max_edge_multiplexing == 1  # contention-free runtime

    def test_ops_carry_explicit_sizes(self, topo, skewed_sizes):
        programs = ScheduledAlltoallv().build_programs(topo, skewed_sizes)
        assert_explicit_sizes(programs, skewed_sizes)

    def test_sync_ops_match_plan(self, topo, skewed_sizes):
        programs = ScheduledAlltoallv().build_programs(topo, skewed_sizes)
        plan = build_sync_plan(schedule_irregular(topo, skewed_sizes).schedule)
        syncs = sum(p.count(OpKind.SYNC_SEND) for p in programs.values())
        assert syncs == len(plan.syncs) > 0

    def test_no_sync_variant(self, topo, skewed_sizes, quiet_params):
        algorithm = ScheduledAlltoallv(sync=False)
        programs = algorithm.build_programs(topo, skewed_sizes)
        assert all(
            p.count(OpKind.SYNC_SEND) == 0 for p in programs.values()
        )
        run(topo, algorithm, skewed_sizes, quiet_params)

    def test_uniform_pattern_delivers(self, topo, quiet_params):
        sizes = uniform_sizes(topo, kib(64))
        run(topo, ScheduledAlltoallv(), sizes, quiet_params)

    def test_beats_postall_on_bottleneck_hotspot(self):
        """Cross-trunk hot spot: scheduling big flows apart wins."""
        topo = chain_of_switches([3, 3])
        machines = list(topo.machines)
        sizes = {}
        # all-to-all of 96KB across the trunk plus local chatter
        for src in machines[:3]:
            for dst in machines[3:]:
                sizes[(src, dst)] = kib(96)
                sizes[(dst, src)] = kib(96)
        params = NetworkParams(seed=0)
        slow = run(topo, PostAllAlltoallv(), sizes, params)
        fast = run(topo, ScheduledAlltoallv(), sizes, params)
        assert fast.completion_time < slow.completion_time
