"""Tests for pair-wise synchronization planning (Section 5)."""

import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.scheduler import schedule_aapc
from repro.obs.metrics_registry import MetricsRegistry
from repro.core.synchronization import (
    SyncMessage,
    SyncPlan,
    build_sync_plan,
    verify_sync_plan,
)
from repro.errors import SchedulingError
from repro.topology.builder import random_tree, single_switch, star_of_switches
from repro.topology.paths import PathOracle


@pytest.fixture
def fig1_plan(fig1):
    return build_sync_plan(schedule_aapc(fig1, root="s1"))


class TestPlanStructure:
    def test_sync_endpoints_are_the_senders(self, fig1_plan):
        """Paper: the sync goes from node a (sender of the earlier message)
        to node c (sender of the later message)."""
        for s in fig1_plan.syncs:
            assert s.src == s.after.src
            assert s.dst == s.before.src

    def test_syncs_point_forward_in_time(self, fig1_plan):
        for s in fig1_plan.syncs:
            assert s.after.phase < s.before.phase

    def test_no_self_syncs(self, fig1_plan):
        """Program order already covers same-sender dependences."""
        for s in fig1_plan.syncs:
            assert s.src != s.dst

    def test_stats_consistent(self, fig1_plan):
        stats = fig1_plan.stats
        assert stats.num_messages == 30
        assert stats.num_after_reduction == len(fig1_plan.syncs)
        assert stats.num_after_reduction <= stats.num_before_reduction
        assert (
            stats.num_before_reduction + stats.num_program_order_free
            == stats.num_conflict_deps
        )

    def test_queries(self, fig1_plan):
        some = fig1_plan.syncs[0]
        assert some in fig1_plan.syncs_after(some.after)
        assert some in fig1_plan.syncs_into(some.before)

    def test_deterministic(self, fig1):
        s = schedule_aapc(fig1, root="s1")
        a = build_sync_plan(s)
        b = build_sync_plan(s)
        assert [(str(x.after.message), str(x.before.message)) for x in a.syncs] == [
            (str(x.after.message), str(x.before.message)) for x in b.syncs
        ]


class TestReduction:
    def test_reduction_helps(self, fig1):
        schedule = schedule_aapc(fig1, root="s1")
        reduced = build_sync_plan(schedule, remove_redundant=True)
        naive = build_sync_plan(schedule, remove_redundant=False)
        assert len(reduced.syncs) < len(naive.syncs)

    def test_reduced_plan_still_covers_all_conflicts(self, fig1):
        plan = build_sync_plan(schedule_aapc(fig1, root="s1"))
        verify_sync_plan(plan)  # raises if any conflicting pair unordered

    def test_naive_plan_covers_too(self, fig1):
        plan = build_sync_plan(
            schedule_aapc(fig1, root="s1"), remove_redundant=False
        )
        verify_sync_plan(plan)

    def test_without_program_order_elision(self, fig1):
        schedule = schedule_aapc(fig1, root="s1")
        plan = build_sync_plan(schedule, elide_program_order=False)
        verify_sync_plan(plan)
        # eliding can only reduce the number of explicit syncs
        elided = build_sync_plan(schedule, elide_program_order=True)
        assert len(elided.syncs) <= len(plan.syncs)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000), nm=st.integers(3, 9), ns=st.integers(1, 4))
    def test_reduced_plans_cover_random_trees(self, seed, nm, ns):
        topo = random_tree(nm, ns, seed=seed)
        plan = build_sync_plan(schedule_aapc(topo, verify=False))
        verify_sync_plan(plan)

    def test_single_switch_ring_needs_no_chained_syncs(self):
        """On one switch, consecutive phases conflict only at endpoints."""
        topo = single_switch(5)
        plan = build_sync_plan(schedule_aapc(topo))
        verify_sync_plan(plan)
        # every dependency is between consecutive phases here
        for s in plan.syncs:
            assert s.before.phase - s.after.phase == 1


class TestVerifyCatchesGaps:
    def test_dropping_a_sync_is_detected(self, fig1):
        plan = build_sync_plan(schedule_aapc(fig1, root="s1"))
        plan.syncs.pop()  # corrupt the plan
        with pytest.raises(SchedulingError, match="unordered"):
            verify_sync_plan(plan)

    def test_empty_plan_on_conflicting_schedule_fails(self, fig1):
        plan = build_sync_plan(schedule_aapc(fig1, root="s1"))
        plan.syncs = []
        with pytest.raises(SchedulingError, match="unordered"):
            verify_sync_plan(plan)


class TestSyncMessageRepr:
    def test_str(self, fig1_plan):
        text = str(fig1_plan.syncs[0])
        assert "sync[" in text and "=>" in text


# ----------------------------------------------------------------------
# Brute-force reference: the dependence graph rebuilt from the schedule,
# reduced over a dense bitset closure (O(M^2) bits).
def _reference_program_order(messages):
    """Send-group chain plus receive -> next send group, per rank."""
    edges = set()
    for rank in {m.src for m in messages}:
        sends = sorted((i for i, m in enumerate(messages) if m.src == rank),
                       key=lambda i: messages[i].phase)
        phases = sorted({messages[i].phase for i in sends})
        groups = [[i for i in sends if messages[i].phase == p] for p in phases]
        for g1, g2 in zip(groups, groups[1:]):
            edges.update((a, b) for a in g1 for b in g2)
        for r, m in enumerate(messages):
            if m.dst != rank:
                continue
            later = [g for p, g in zip(phases, groups) if p > m.phase]
            if later:
                edges.update((r, b) for b in later[0])
    return edges


def _reference_closure(n, edges):
    """Bitset of the nodes each node reaches (itself included)."""
    succ = [[] for _ in range(n)]
    for a, b in edges:
        succ[a].append(b)
    reach = [0] * n
    for v in reversed(range(n)):  # messages are in phase order
        reach[v] = 1 << v
        for s in succ[v]:
            reach[v] |= reach[s]
    return reach


def _reference_kept(schedule, elide_program_order):
    """The kept syncs as (after, before) message pairs."""
    messages = schedule.all_messages()
    oracle = PathOracle(schedule.topology)
    users = {}
    for i, m in enumerate(messages):
        for edge in oracle.path_edges(m.src, m.dst):
            users.setdefault(edge, []).append(i)
    deps = {(a, b) for idx in users.values() for a, b in zip(idx, idx[1:])}
    if elide_program_order:
        deps = {(a, b) for a, b in deps
                if messages[b].src not in (messages[a].src, messages[a].dst)}
        free = _reference_program_order(messages)
    else:
        free = set()
    graph = deps | free
    succ = {}
    for a, b in graph:
        succ.setdefault(a, set()).add(b)
    reach = _reference_closure(len(messages), graph)
    return {
        (messages[a].message, messages[b].message)
        for a, b in deps
        if not any(s != b and reach[s] >> b & 1 for s in succ[a])
    }


def _reference_unordered(plan):
    """Whether the old all-pairs check finds a conflicting unordered pair."""
    schedule = plan.schedule
    oracle = PathOracle(schedule.topology)
    messages = schedule.all_messages()
    index = {m: i for i, m in enumerate(messages)}
    edges = _reference_program_order(messages)
    edges |= {(index[s.after], index[s.before]) for s in plan.syncs}
    reach = _reference_closure(len(messages), edges)
    return any(
        ma.phase < mb.phase
        and oracle.messages_conflict(ma.message.as_tuple(), mb.message.as_tuple())
        and not reach[a] >> b & 1
        for a, ma in enumerate(messages)
        for b, mb in enumerate(messages)
    )


def _kept(plan):
    return {(s.after.message, s.before.message) for s in plan.syncs}


class TestAgainstDenseReference:
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        nm=st.integers(2, 12),
        ns=st.integers(1, 5),
        elide=st.booleans(),
    )
    def test_kept_set_matches_bitset_reduction(self, seed, nm, ns, elide):
        schedule = schedule_aapc(random_tree(nm, ns, seed=seed), verify=False)
        plan = build_sync_plan(schedule, elide_program_order=elide)
        assert _kept(plan) == _reference_kept(schedule, elide)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        nm=st.integers(2, 10),
        ns=st.integers(1, 4),
        drop=st.lists(st.integers(0, 10_000), max_size=3),
    )
    def test_verify_matches_all_pairs_check(self, seed, nm, ns, drop):
        schedule = schedule_aapc(random_tree(nm, ns, seed=seed), verify=False)
        syncs = build_sync_plan(schedule).syncs
        dropped = {i % len(syncs) for i in drop} if syncs else set()
        plan = SyncPlan(
            schedule=schedule,
            syncs=[s for i, s in enumerate(syncs) if i not in dropped],
        )
        if _reference_unordered(plan):
            with pytest.raises(SchedulingError, match="unordered"):
                verify_sync_plan(plan)
        else:
            verify_sync_plan(plan)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000), nm=st.integers(3, 7), ns=st.integers(1, 4))
    def test_every_kept_sync_is_load_bearing(self, seed, nm, ns):
        plan = build_sync_plan(schedule_aapc(random_tree(nm, ns, seed=seed)))
        for i in range(len(plan.syncs)):
            pruned = SyncPlan(
                schedule=plan.schedule,
                syncs=plan.syncs[:i] + plan.syncs[i + 1:],
            )
            with pytest.raises(SchedulingError, match="unordered"):
                verify_sync_plan(pruned)


def test_sync_plan_memory_is_far_below_a_dense_closure():
    """128 ranks: a dense reachability closure alone takes M^2/8 bytes
    (31.5 MiB), and a dense M x N int16 chain index 4 MiB.  The index
    keeps only its live band, so the whole plan peaks at about 250
    bytes per message (3.8 MiB)."""
    schedule = schedule_aapc(star_of_switches([32] * 4), verify=False)
    m = len(schedule)
    tracemalloc.start()
    try:
        build_sync_plan(schedule)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 512 * m


@pytest.mark.parametrize(
    "topology",
    [
        pytest.param(lambda: star_of_switches([32] * 4), id="star-128"),
        pytest.param(lambda: random_tree(160, 24, seed=5), id="random-160"),
    ],
)
def test_chain_index_keeps_only_its_live_band(topology):
    """About 2N rows of the chain index are live at once, never M."""
    topo = topology()
    schedule = schedule_aapc(topo, verify=False)
    registry = MetricsRegistry()
    with registry.activate():
        build_sync_plan(schedule)
    span = registry.report().span("transitive_reduction")
    peak = span.counters["chain_index_peak_rows"]
    assert 0 < peak <= 4 * topo.num_machines
