"""Tests for irregular (alltoallv) scheduling."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.irregular import (
    IrregularSchedule,
    bandwidth_lower_bound,
    edge_byte_loads,
    schedule_irregular,
    uniform_sizes,
    validate_sizes,
    verify_irregular,
)
from repro.core.pattern import Message
from repro.core.schedule import MessageKind, PhasedSchedule
from repro.errors import SchedulingError, VerificationError
from repro.topology.builder import random_tree, single_switch
from repro.units import kib, mbps


@pytest.fixture
def topo():
    return single_switch(4)


class TestValidation:
    def test_drops_zero_sizes(self, topo):
        clean = validate_sizes(topo, {("n0", "n1"): 0, ("n0", "n2"): 5})
        assert clean == {("n0", "n2"): 5}

    def test_rejects_unknown_machine(self, topo):
        with pytest.raises(SchedulingError, match="unknown machine"):
            validate_sizes(topo, {("n0", "ghost"): 1})

    def test_rejects_self_message(self, topo):
        with pytest.raises(SchedulingError, match="self-message"):
            validate_sizes(topo, {("n0", "n0"): 1})

    def test_rejects_negative(self, topo):
        with pytest.raises(SchedulingError, match="negative"):
            validate_sizes(topo, {("n0", "n1"): -1})


class TestByteLoads:
    def test_loads_accumulate_along_paths(self, fig1):
        sizes = {("n0", "n3"): 100, ("n1", "n3"): 50, ("n3", "n0"): 10}
        loads = edge_byte_loads(fig1, sizes)
        assert loads[("s1", "s3")] == 150
        assert loads[("s3", "n3")] == 150
        assert loads[("s3", "s1")] == 10
        assert loads[("n0", "s0")] == 100

    def test_lower_bound(self, fig1):
        sizes = {("n0", "n3"): 1_000_000}
        bound = bandwidth_lower_bound(fig1, sizes, mbps(100))
        assert bound == pytest.approx(1_000_000 / 12.5e6)

    def test_empty_pattern(self, fig1):
        assert bandwidth_lower_bound(fig1, {}, mbps(100)) == 0.0


class TestScheduling:
    def test_verifies_on_skewed_pattern(self, topo):
        sizes = {
            ("n0", "n1"): kib(256),
            ("n0", "n2"): kib(8),
            ("n1", "n2"): kib(64),
            ("n2", "n3"): kib(64),
            ("n3", "n0"): kib(4),
            ("n1", "n0"): kib(128),
        }
        result = schedule_irregular(topo, sizes)
        verify_irregular(result)

    def test_conflicting_messages_split_phases(self, topo):
        sizes = {("n0", "n2"): 100, ("n1", "n2"): 100}
        result = schedule_irregular(topo, sizes)
        assert result.num_phases == 2

    def test_disjoint_same_size_share_phase(self, topo):
        sizes = {("n0", "n1"): 100, ("n2", "n3"): 100}
        result = schedule_irregular(topo, sizes)
        assert result.num_phases == 1

    def test_balance_window_separates_extreme_sizes(self, topo):
        # disjoint messages but 100x size gap: bucketing splits them
        sizes = {("n0", "n1"): kib(100), ("n2", "n3"): kib(1)}
        result = schedule_irregular(topo, sizes, balance=2.0)
        assert result.num_phases == 2
        # with bucketing off they pack together
        loose = schedule_irregular(topo, sizes, balance=float("inf"))
        assert loose.num_phases == 1

    def test_makespan_accounts_dominating_sizes(self, topo):
        sizes = {("n0", "n1"): 100, ("n0", "n2"): 70}  # share n0's uplink
        result = schedule_irregular(topo, sizes)
        assert result.num_phases == 2
        assert result.makespan_bytes() == 170

    def test_balance_below_one_rejected(self, topo):
        with pytest.raises(SchedulingError, match="balance"):
            schedule_irregular(topo, {}, balance=0.5)

    def test_uniform_pattern_round_trips(self, topo):
        sizes = uniform_sizes(topo, kib(8))
        result = schedule_irregular(topo, sizes)
        verify_irregular(result)
        assert len(result.schedule) == 12

    def test_deterministic(self, topo):
        sizes = uniform_sizes(topo, kib(8))
        a = schedule_irregular(topo, sizes)
        b = schedule_irregular(topo, sizes)
        assert a.phase_sizes == b.phase_sizes
        assert [len(p) for p in a.schedule.phases()] == [
            len(p) for p in b.schedule.phases()
        ]


class TestVerifierCatches:
    def test_phase_size_mismatch(self, topo):
        result = schedule_irregular(topo, {("n0", "n1"): 100})
        result.phase_sizes[0] = 7
        with pytest.raises(VerificationError, match="dominating size"):
            verify_irregular(result)

    def test_contending_messages_in_one_phase(self, topo):
        # n0->n2 and n1->n2 share n2's downlink
        sizes = {("n0", "n2"): 100, ("n1", "n2"): 100}
        schedule = PhasedSchedule(topo, 1)
        for src, dst in sizes:
            schedule.add(0, Message(src, dst), MessageKind.GLOBAL)
        result = IrregularSchedule(
            schedule=schedule, sizes=sizes, phase_sizes=[100]
        )
        with pytest.raises(VerificationError, match="contend"):
            verify_irregular(result)

    def test_missing_message(self, topo):
        result = schedule_irregular(topo, {("n0", "n1"): 100})
        result.sizes[("n2", "n3")] = 50  # claims a pair never scheduled
        with pytest.raises(VerificationError, match="missing"):
            verify_irregular(result)


class TestRandomPatterns:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000), data=st.data())
    def test_random_patterns_verify(self, seed, data):
        topo = random_tree(
            data.draw(st.integers(3, 8)), data.draw(st.integers(1, 3)), seed=seed
        )
        machines = list(topo.machines)
        sizes = {}
        n_msgs = data.draw(st.integers(0, 15))
        for _ in range(n_msgs):
            src = data.draw(st.sampled_from(machines))
            dst = data.draw(st.sampled_from(machines))
            if src != dst:
                sizes[(src, dst)] = data.draw(st.integers(1, 1 << 20))
        result = schedule_irregular(topo, sizes)
        verify_irregular(result)
        # makespan never beats the per-phase-max sum lower bound trivially
        assert result.makespan_bytes() >= max(sizes.values(), default=0)
