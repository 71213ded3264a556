"""Tests that the verifiers actually catch broken schedules."""

import re
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.pattern import Message, aapc_messages
from repro.core.schedule import MessageKind, PhasedSchedule
from repro.core.scheduler import schedule_aapc
from repro.core.verify import (
    max_edge_concurrency,
    verify_complete,
    verify_contention_free,
    verify_endpoint_discipline,
    verify_phase_count,
    verify_schedule,
)
from repro.errors import VerificationError
from repro.topology.builder import random_tree, single_switch, tree_from_spec
from repro.topology.paths import PathOracle


@pytest.fixture
def topo():
    return single_switch(4)


def empty_schedule(topo, phases):
    return PhasedSchedule(topo, phases)


class TestContentionFree:
    def test_detects_shared_edge(self, fig1):
        s = empty_schedule(fig1, 1)
        # both messages cross (s0, s1)
        s.add(0, Message("n0", "n3"), MessageKind.GLOBAL)
        s.add(0, Message("n1", "n5"), MessageKind.GLOBAL)
        with pytest.raises(VerificationError, match="contend"):
            verify_contention_free(s)

    def test_detects_shared_machine_link(self, topo):
        s = empty_schedule(topo, 1)
        s.add(0, Message("n0", "n2"), MessageKind.GLOBAL)
        s.add(0, Message("n1", "n2"), MessageKind.GLOBAL)
        with pytest.raises(VerificationError, match="contend"):
            verify_contention_free(s)

    def test_duplex_is_fine(self, topo):
        s = empty_schedule(topo, 1)
        s.add(0, Message("n0", "n1"), MessageKind.GLOBAL)
        s.add(0, Message("n1", "n0"), MessageKind.GLOBAL)
        verify_contention_free(s)  # no exception

    def test_cross_phase_is_fine(self, topo):
        s = empty_schedule(topo, 2)
        s.add(0, Message("n0", "n2"), MessageKind.GLOBAL)
        s.add(1, Message("n1", "n2"), MessageKind.GLOBAL)
        verify_contention_free(s)


class TestCompleteness:
    def test_missing_message(self, topo):
        s = empty_schedule(topo, 12)
        msgs = aapc_messages(topo)
        for p, m in enumerate(msgs[:-1]):
            s.add(p % 12, m, MessageKind.GLOBAL)
        with pytest.raises(VerificationError, match="missing"):
            verify_complete(s)

    def test_extra_message_rejected_by_container(self, topo):
        s = empty_schedule(topo, 2)
        s.add(0, Message("n0", "n1"), MessageKind.GLOBAL)
        # container itself refuses duplicates
        with pytest.raises(Exception, match="already scheduled"):
            s.add(1, Message("n0", "n1"), MessageKind.GLOBAL)

    def test_full_aapc_passes(self, topo):
        verify_complete(schedule_aapc(topo, verify=False))


class TestEndpointDiscipline:
    def test_double_send(self, topo):
        s = empty_schedule(topo, 1)
        s.add(0, Message("n0", "n1"), MessageKind.GLOBAL)
        s.add(0, Message("n0", "n2"), MessageKind.GLOBAL)
        with pytest.raises(VerificationError, match="sends both"):
            verify_endpoint_discipline(s)

    def test_double_receive(self, topo):
        s = empty_schedule(topo, 1)
        s.add(0, Message("n1", "n0"), MessageKind.GLOBAL)
        s.add(0, Message("n2", "n0"), MessageKind.GLOBAL)
        with pytest.raises(VerificationError, match="receives both"):
            verify_endpoint_discipline(s)


class TestPhaseCount:
    def test_too_many_phases(self, topo):
        s = empty_schedule(topo, 5)  # load is 3
        for m in aapc_messages(topo):
            s.add(0, m, MessageKind.GLOBAL)
        with pytest.raises(VerificationError, match="optimality"):
            verify_phase_count(s)

    def test_trivial_two_machine_expectation(self):
        topo = tree_from_spec(("s0", ["n0", "n1"]))
        s = empty_schedule(topo, 1)
        s.add(0, Message("n0", "n1"), MessageKind.LOCAL)
        s.add(0, Message("n1", "n0"), MessageKind.LOCAL)
        verify_phase_count(s)


class TestVerifyScheduleAggregate:
    def test_good_schedule_passes(self, fig1):
        verify_schedule(schedule_aapc(fig1, verify=False))

    def test_reports_first_failure(self, topo):
        s = empty_schedule(topo, 3)
        with pytest.raises(VerificationError, match="missing"):
            verify_schedule(s)


class TestMaxEdgeConcurrency:
    def test_contention_free_is_one(self, fig1):
        assert max_edge_concurrency(schedule_aapc(fig1, verify=False)) == 1

    def test_overloaded_phase_counts(self, topo):
        s = empty_schedule(topo, 1)
        s.add(0, Message("n0", "n3"), MessageKind.GLOBAL)
        s.add(0, Message("n1", "n3"), MessageKind.GLOBAL)
        s.add(0, Message("n2", "n3"), MessageKind.GLOBAL)
        assert max_edge_concurrency(s) == 3

    def test_empty_schedule(self, topo):
        assert max_edge_concurrency(empty_schedule(topo, 0)) == 0


# ----------------------------------------------------------------------
# The table-based checks against a brute-force per-phase count.
def _uses(oracle, sm):
    """What a message occupies in its phase: directed edges and endpoints."""
    return [("edge", e) for e in oracle.path_edges(sm.src, sm.dst)] + [
        ("sends", sm.src),
        ("receives", sm.dst),
    ]


def _rebuilt(schedule, phase_of):
    """A copy of *schedule* with message ``i`` placed at ``phase_of(i, sm)``."""
    copy = PhasedSchedule(schedule.topology, schedule.num_phases, schedule.root_info)
    for i, sm in enumerate(schedule.all_messages()):
        copy.add(phase_of(i, sm), sm.message, sm.kind, sm.group)
    return copy


class TestTableVerify:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        nm=st.integers(3, 9),
        ns=st.integers(1, 4),
        data=st.data(),
    )
    def test_moved_message_fails_exactly_on_a_clash(self, seed, nm, ns, data):
        """Move one message to another phase: verify raises exactly when a
        brute-force count finds a shared edge or endpoint, and names the
        moved message and one it clashes with."""
        base = schedule_aapc(random_tree(nm, ns, seed=seed), verify=False)
        messages = base.all_messages()
        i = data.draw(st.integers(0, len(messages) - 1))
        k = data.draw(st.integers(0, base.num_phases - 2))
        target = k if k < messages[i].phase else k + 1
        moved = _rebuilt(base, lambda j, sm: target if j == i else sm.phase)

        oracle = PathOracle(moved.topology)
        counts = Counter(
            (sm.phase, use) for sm in moved.all_messages() for use in _uses(oracle, sm)
        )
        mover = messages[i]
        mine = set(_uses(oracle, mover))
        partners = {
            str(sm.message)
            for sm in moved.phase(target)
            if sm.message != mover.message and mine & set(_uses(oracle, sm))
        }
        assert bool(partners) == (max(counts.values()) > 1)
        if not partners:
            verify_schedule(moved)
            return
        with pytest.raises(VerificationError) as err:
            verify_schedule(moved)
        named = re.findall(r"\w+->\w+", str(err.value))
        assert len(named) == 2
        assert str(mover.message) in named
        assert set(named) - {str(mover.message)} <= partners

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000), nm=st.integers(2, 8), ns=st.integers(1, 4))
    def test_add_invalidates_the_table(self, seed, nm, ns):
        """A table built before ``add()`` is not reused after it."""
        base = schedule_aapc(random_tree(nm, ns, seed=seed), verify=False)
        *kept, last = base.all_messages()
        schedule = PhasedSchedule(base.topology, base.num_phases, base.root_info)
        for sm in kept:
            schedule.add(sm.phase, sm.message, sm.kind, sm.group)
        table = schedule.table()
        assert schedule.table() is table
        with pytest.raises(VerificationError, match="missing 1 AAPC"):
            verify_schedule(schedule)

        schedule.add(last.phase, last.message, last.kind, last.group)
        assert schedule.table() is not table
        assert len(schedule.table()) == len(base)
        verify_schedule(schedule)
