"""Property test: the incremental allocator re-solves exactly the closure.

:meth:`IncrementalAllocator.collect_scope` must hand the solver every
flow linked to a dirty edge — directly, or through other flows that
share edges — and nothing else; after a fault boundary
(``note_all_dirty``) it must hand over every active flow.  A smaller
scope would leave stale rates behind; a larger one re-solves flows no
change could reach.

A flow that starts on idle edges is rated at once (a lone-flow start)
and dirties nothing, so every started flow is either rated at its
start or lands in the next scope.  The model dirties a start's path
only when another active flow already crossed one of its edges.

Hypothesis drives random flow starts, completions and fault boundaries
against a :class:`FlowNetwork` whose engine never runs, so the test
alone decides when a scope is collected.  The expected scope comes from
a brute-force fixpoint over all active flows.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.sim.engine import Engine
from repro.sim.network import FlowNetwork
from repro.sim.params import NetworkParams
from repro.topology.builder import random_tree, single_switch, star_of_switches


def _topology(rng):
    kind = rng.randrange(3)
    if kind == 0:
        return single_switch(rng.randrange(3, 9))
    if kind == 1:
        return star_of_switches([rng.randrange(2, 4) for _ in range(4)])
    return random_tree(rng.randrange(6, 16), rng.randrange(2, 5), seed=rng.randrange(10**6))


def _brute_force_closure(flows, dirty_edges):
    """Flows reachable from *dirty_edges* through shared edges."""
    reached = set(dirty_edges)
    closure = set()
    grew = True
    while grew:
        grew = False
        for fid, flow in flows.items():
            if fid not in closure and reached.intersection(flow.edges):
                closure.add(fid)
                reached.update(flow.edges)
                grew = True
    return closure


_OPS = st.lists(
    st.tuples(
        st.sampled_from(["start", "start", "finish", "boundary"]),
        st.integers(min_value=1, max_value=8),
        st.booleans(),
    ),
    min_size=1,
    max_size=30,
)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6), ops=_OPS)
def test_collect_scope_is_exactly_the_closure(seed, ops):
    rng = random.Random(seed)
    topo = _topology(rng)
    machines = list(topo.machines)
    net = FlowNetwork(Engine(), topo, NetworkParams(allocator="incremental"))
    alloc = net._allocator
    dirty = set()
    all_dirty = False

    def collect_and_check():
        nonlocal all_dirty
        scope = {}
        alloc.collect_scope(scope)
        if all_dirty:
            expected = set(net._flows)
        else:
            expected = _brute_force_closure(net._flows, dirty)
        assert set(scope) == expected
        assert all(scope[fid] is net._flows[fid] for fid in scope)
        dirty.clear()
        all_dirty = False
        # The dirty set was consumed: nothing is left to collect.
        again = {}
        alloc.collect_scope(again)
        assert again == {}

    for kind, count, collect in ops:
        if kind == "start":
            for _ in range(count):
                src, dst = rng.sample(machines, 2)
                path = set(net.oracle.path_edges(src, dst))
                busy = any(path.intersection(f.edges) for f in net._flows.values())
                flow = net.start_flow(src, dst, 4096.0, lambda f: None)
                # Rated at its start exactly when it started alone.
                assert (flow.rate > 0.0) is not busy
                if busy:
                    dirty.update(flow.edges)
        elif kind == "finish":
            active = sorted(net._flows)
            for fid in rng.sample(active, min(count, len(active))):
                # As the completion timer does: retire, then dirty.
                flow = net._flows[fid]
                edges, eids = flow.edges, flow.eids
                net._complete_flow(flow)
                alloc.note_edges_dirty(eids)
                dirty.update(edges)
        else:
            alloc.note_all_dirty()
            all_dirty = True
        if collect:
            collect_and_check()
    collect_and_check()
