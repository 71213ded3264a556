"""Property test: a lone-flow start is exactly the settle it skips.

Under the incremental allocator, a flow that starts while every edge of
its path is idle takes its rate at once (:meth:`FlowNetwork._start_lone`)
and never enters a settle.  That is exact only if

* its rate is what :meth:`IncrementalAllocator._solve_single` (and the
  python filler, on a one-flow component) would have given it, and its
  deadline entry is ``now + size / rate``, pushed at the end of the
  instant like a settle's;
* a flow that starts on one of its edges later in the same instant
  still re-rates both through the settle's scope walk, so the rates
  after the instant agree with the reference allocator's full solve.

Hypothesis drives random trees with batches of same-instant starts; a
finishing flow may start the next one at its own completion instant,
so starts and finishes share instants too.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.allocator import ReferenceAllocator
from repro.sim.engine import Engine
from repro.sim.network import FlowNetwork
from repro.sim.params import NetworkParams
from repro.topology.builder import random_tree, single_switch

_SIZES = [2048.0, 65536.0, float(1 << 20)]

_BATCHES = st.lists(
    st.tuples(
        st.sampled_from([0.0, 0.0, 1e-4, 2e-3]),  # gap before the batch
        st.lists(
            st.tuples(st.integers(0, 10**6), st.sampled_from(_SIZES)),
            min_size=1,
            max_size=4,
        ),
    ),
    min_size=1,
    max_size=8,
)


def _reference_rates(net, now):
    """The reference allocator's full max-min solve, leaving *net* as
    it was."""
    saved = {fid: flow.rate for fid, flow in net._flows.items()}
    peak = net.max_edge_multiplexing
    ReferenceAllocator(net).solve(dict(net._flows), now)
    rates = {fid: flow.rate for fid, flow in net._flows.items()}
    for fid, rate in saved.items():
        net._flows[fid].rate = rate
    net.max_edge_multiplexing = peak
    return rates


class _Observed:
    """Wraps one network's lone starts, solves and settles with checks."""

    def __init__(self, net):
        self.net = net
        self.alloc = net._allocator
        self.lone_now = []  # lone flows started at the current instant
        self.solved_now = set()
        self.lone_total = 0
        self.shared_same_instant = 0
        start_lone = net._start_lone
        solve = self.alloc.solve
        settle = net._settle

        def start_lone_checked(flow, now):
            start_lone(flow, now)
            self._check_lone_start(flow, now)

        def solve_recorded(scope, now):
            self.solved_now.update(scope)
            return solve(scope, now)

        def settle_checked():
            settle()
            self._check_settled()

        net._start_lone = start_lone_checked
        self.alloc.solve = solve_recorded
        net._settle = settle_checked

    def _check_lone_start(self, flow, now):
        alloc = self.alloc
        rate = flow.rate
        assert rate > 0.0
        alloc._solve_single(flow, now)
        assert flow.rate == rate
        alloc._solve_python({flow.fid: flow}, sorted(flow.eids), now)
        assert flow.rate == rate
        flow.rate = rate
        assert self.net._lone_pushes[-1] == (
            now + flow.size / rate, flow.fid, flow.gen
        )
        self.lone_now.append((flow, flow.gen, now + flow.size / rate))
        self.lone_total += 1

    def _check_settled(self):
        net = self.net
        now = net.engine.now
        flows = net._flows
        for flow, gen, deadline in self.lone_now:
            if flows.get(flow.fid) is not flow:
                continue
            shared = any(
                len(net._edge_flows[e]) > 1 for e in flow.eids
            )
            if shared:
                # A same-instant start on one of its edges: the scope
                # walk re-rated it together with the newcomer.
                assert flow.fid in self.solved_now
                self.shared_same_instant += 1
            else:
                assert flow.gen == gen
                assert (deadline, flow.fid, gen) in net._deadlines
        self.lone_now = []
        self.solved_now = set()
        reference = _reference_rates(net, now)
        for fid, flow in flows.items():
            assert flow.rate == pytest.approx(reference[fid], rel=1e-9)
            if flow.rate > 0.0:
                assert any(
                    entry[1] == fid and entry[2] == flow.gen
                    for entry in net._deadlines
                ), f"flow {fid} has no live deadline"


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    batches=_BATCHES,
    chained=st.integers(min_value=0, max_value=6),
)
def test_lone_start_is_the_skipped_settle(seed, batches, chained):
    rng = random.Random(seed)
    topo = random_tree(
        rng.randrange(4, 12), rng.randrange(2, 5), seed=rng.randrange(10**6)
    )
    machines = list(topo.machines)
    engine = Engine()
    net = FlowNetwork(engine, topo, NetworkParams(seed=seed))
    observed = _Observed(net)
    done = []
    budget = [chained]

    def pair(key):
        r = random.Random(key)
        return r.sample(machines, 2)

    def on_done(flow):
        done.append(flow.fid)
        if budget[0] > 0:
            # Start another flow at this very completion instant.
            budget[0] -= 1
            src, dst = pair(flow.fid * 7919 + budget[0])
            engine.schedule(0.0, lambda: start(src, dst, _SIZES[1]))

    started = []

    def start(src, dst, size):
        started.append(net.start_flow(src, dst, size, on_done).fid)

    t = 0.0
    for gap, specs in batches:
        t += gap
        for key, size in specs:
            src, dst = pair(key)
            engine.schedule(t, lambda s=src, d=dst, n=size: start(s, d, n))
    engine.run()
    assert sorted(done) == sorted(started)
    assert not net._flows
    assert observed.lone_total > 0


def test_same_instant_start_on_a_shared_edge_rerates_both():
    """Deterministic instance of the property: a lone start, then a
    start from the same host in the same instant."""
    engine = Engine()
    net = FlowNetwork(engine, single_switch(4), NetworkParams())
    observed = _Observed(net)
    flows = []

    def both():
        flows.append(net.start_flow("n0", "n1", 65536.0, lambda f: None))
        flows.append(net.start_flow("n0", "n2", 65536.0, lambda f: None))

    engine.schedule(0.0, both)
    engine.run(until=1e-9)
    first, second = flows
    assert observed.lone_total == 1
    assert observed.shared_same_instant == 1
    # The shared uplink halves each flow's rate.
    params = net.params
    expected = params.effective_capacity(2, 65536.0, True) / 2
    assert first.rate == second.rate == pytest.approx(expected, rel=1e-12)
