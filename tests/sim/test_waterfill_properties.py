"""Property-based invariants of the max-min waterfill.

Hypothesis drives seeded random scenarios (topology, flow set, pause
instant) through :class:`FlowNetwork` and checks, for **both**
allocators, the properties any max-min allocation must satisfy at any
instant:

* **Capacity**: on every edge, the rate sum of the flows crossing it
  stays within the edge's effective capacity.
* **Max-min certificate**: every active flow has a *bottleneck* edge —
  one that is saturated and on which no other flow gets a strictly
  higher rate.  (A flow without such an edge could be sped up without
  hurting anyone poorer, so the allocation would not be max-min.)
* **Conservation**: after ``sync_progress()``, delivered bytes never
  exceed injected bytes, and once every flow completed the two agree
  to float tolerance; per-edge transported bytes agree with per-flow
  sizes.
* **Maintained state**: the network's per-edge flow sets and largest
  in-flight sizes equal a brute-force recount from the active flows'
  paths, and the deadline heap holds at most twice the active flows.
* **Every flow is rated**: each started flow is either rated at its
  start, alone on idle edges (a lone-flow start, incremental allocator
  only), or re-solved by a settle.
* **Counter identity**: with a metrics registry active,
  ``network.resolves_total >= network.flow_set_changes`` — the settle
  loop consumes at least one re-solve per dirty transition — and the
  network saw a flow-set change exactly when some flow did not start
  alone (a flow that only ever ran alone starts and finishes without
  dirtying anything).

The ``*_numpy_filler`` variants rerun the incremental allocator with
the filler crossover at zero edges, so every multi-flow component
takes the numpy waterfill instead of the python filler.
"""

import random
from contextlib import contextmanager

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs.metrics_registry import MetricsRegistry
from repro.sim import allocator as allocator_module
from repro.sim.engine import Engine
from repro.sim.network import FlowNetwork
from repro.sim.params import NetworkParams
from repro.topology.builder import (
    chain_of_switches,
    random_tree,
    single_switch,
    star_of_switches,
)

#: Relative slack for float comparisons on rate sums and byte ledgers.
REL = 1e-9


def _topology(rng):
    kind = rng.randrange(4)
    if kind == 0:
        return single_switch(rng.randrange(3, 8))
    if kind == 1:
        return chain_of_switches([rng.randrange(2, 4) for _ in range(3)])
    if kind == 2:
        return star_of_switches([rng.randrange(2, 4) for _ in range(3)])
    return random_tree(rng.randrange(5, 12), rng.randrange(2, 4), seed=rng.randrange(10**6))


def _build_scenario(seed, allocator):
    rng = random.Random(seed)
    topo = _topology(rng)
    params = NetworkParams(seed=seed, allocator=allocator)
    engine = Engine()
    net = FlowNetwork(engine, topo, params)
    machines = list(topo.machines)
    specs = []
    t = 0.0
    for i in range(rng.randrange(2, 25)):
        src, dst = rng.sample(machines, 2)
        nbytes = float(rng.choice([2048, 65536, 1 << 20])) * rng.uniform(0.5, 2.0)
        if rng.random() < 0.4:
            t += rng.uniform(0.0, 3e-3)
        specs.append((src, dst, nbytes, t))
    done = []
    for src, dst, nbytes, start in specs:
        engine.schedule(
            start,
            lambda src=src, dst=dst, nbytes=nbytes: net.start_flow(
                src, dst, nbytes, lambda f: done.append(f.fid)
            ),
        )
    return engine, net, specs, done


def _edge_flow_sets(net):
    """Active flow ids per directed edge, recounted from flow paths."""
    fids_by_edge = {}
    for fid, flow in net._flows.items():
        for e in flow.edges:
            fids_by_edge.setdefault(e, set()).add(fid)
    return fids_by_edge


def _edge_capacity(net, e, fids, now):
    largest = max(net._flows[fid].size for fid in fids)
    u, v = e
    cap = net.params.effective_capacity(
        len(fids),
        largest,
        net.topology.is_machine(u) or net.topology.is_machine(v),
        line_bandwidth=net._edge_bandwidth.get(e),
    )
    if net.injector is not None:
        cap *= net.injector.link_factor(e, now)
    return cap


def _check_maintained_state(net):
    """The edge table and the deadline heap against a brute-force recount."""
    fids_by_edge = _edge_flow_sets(net)
    assert set(fids_by_edge) <= set(net._edges)
    for flow in net._flows.values():
        assert tuple(net._edges[eid] for eid in flow.eids) == flow.edges
    for eid, e in enumerate(net._edges):
        fids = fids_by_edge.get(e, set())
        assert net._edge_flows[eid] == fids, f"edge {e} flow set"
        largest = max((net._flows[fid].size for fid in fids), default=0.0)
        assert net._edge_largest[eid] == largest, f"edge {e} largest size"
    assert len(net._deadlines) <= 2 * len(net._flows)


def _check_rate_invariants(net, now):
    """Capacity + max-min bottleneck certificate on the live rate vector."""
    edge_flows = _edge_flow_sets(net)
    caps = {}
    for e, fids in edge_flows.items():
        caps[e] = _edge_capacity(net, e, fids, now)
        rate_sum = sum(net._flows[fid].rate for fid in fids)
        assert rate_sum <= caps[e] * (1 + REL) + 1e-6, (
            f"edge {e} over capacity: {rate_sum} > {caps[e]}"
        )
    for flow in net._flows.values():
        if flow.rate == 0.0:
            continue
        has_bottleneck = False
        for e in flow.edges:
            fids = edge_flows[e]
            rate_sum = sum(net._flows[fid].rate for fid in fids)
            saturated = rate_sum >= caps[e] * (1 - REL) - 1e-6
            if not saturated:
                continue
            top = max(net._flows[fid].rate for fid in fids)
            if flow.rate >= top * (1 - REL):
                has_bottleneck = True
                break
        assert has_bottleneck, (
            f"flow {flow.fid} ({flow.src}->{flow.dst}, rate {flow.rate}) "
            "has no saturated bottleneck edge: not max-min"
        )


@contextmanager
def _numpy_filler():
    """Send every multi-flow incremental solve to the numpy waterfill."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(allocator_module, "_VECTORIZE_EDGES", 0)
        yield


def _record_rating(net):
    """Record which flows start alone and which a settle re-solves."""
    lone, solved = set(), set()
    start_lone = net._start_lone
    solve = net._allocator.solve

    def recording_start_lone(flow, now):
        lone.add(flow.fid)
        start_lone(flow, now)

    def recording_solve(scope, now):
        solved.update(scope)
        return solve(scope, now)

    net._start_lone = recording_start_lone
    net._allocator.solve = recording_solve
    return lone, solved


def _check_waterfill_invariants(seed, allocator):
    registry = MetricsRegistry()
    with registry.activate():
        engine, net, specs, done = _build_scenario(seed, allocator)
        lone, solved = _record_rating(net)
        # Pause mid-run at a seeded instant: invariants must hold on the
        # in-flight rate vector, not just at quiescence.
        pause = random.Random(seed ^ 0xA5A5).uniform(1e-4, 5e-2)
        engine.run(until=pause)
        net.sync_progress()
        _check_maintained_state(net)
        if net._flows:
            _check_rate_invariants(net, engine.now)
        assert net.bytes_delivered <= net.bytes_injected * (1 + REL)
        engine.run()
        net.sync_progress()

    # Every flow completed, and byte conservation holds exactly-ish.
    assert len(done) == len(specs)
    assert not net._flows
    total = sum(nbytes for _, _, nbytes, _ in specs)
    assert net.bytes_injected == pytest.approx(total, rel=REL)
    assert net.bytes_delivered == pytest.approx(total, rel=REL)
    # Per-edge transported bytes match the per-flow path sizes.
    expected_edge = {}
    oracle_paths = {}
    for src, dst, nbytes, _ in specs:
        key = (src, dst)
        if key not in oracle_paths:
            oracle_paths[key] = net.oracle.path_edges(src, dst)
        for e in oracle_paths[key]:
            expected_edge[e] = expected_edge.get(e, 0.0) + nbytes
    assert set(net.edge_bytes) <= set(expected_edge)
    for e, nbytes in net.edge_bytes.items():
        assert nbytes == pytest.approx(expected_edge[e], rel=1e-6)

    # Every started flow was rated: alone at its start, or by a settle.
    started = set(range(len(specs)))
    assert lone | solved == started
    if allocator == "reference":
        assert lone == set()

    # Counter identity: one dirty transition never consumes more than
    # one re-solve, so resolves >= flow-set changes.  Only a flow that
    # met another dirties the network.
    resolves = registry.get("network.resolves_total")
    changes = registry.get("network.flow_set_changes")
    assert resolves is not None and changes is not None
    assert (changes > 0) == (lone != started)
    assert resolves >= changes


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6), allocator=st.sampled_from(["incremental", "reference"]))
def test_waterfill_invariants(seed, allocator):
    _check_waterfill_invariants(seed, allocator)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_waterfill_invariants_numpy_filler(seed):
    with _numpy_filler():
        _check_waterfill_invariants(seed, "incremental")


def _final_clock(seed, allocator):
    engine, net, specs, done = _build_scenario(seed, allocator)
    engine.run()
    assert len(done) == len(specs)
    return engine.now


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_allocators_agree_on_final_clock(seed):
    """Cheap cross-check: both allocators end the scenario at one instant."""
    ref = _final_clock(seed, "reference")
    assert _final_clock(seed, "incremental") == pytest.approx(ref, rel=1e-9)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_allocators_agree_on_final_clock_numpy_filler(seed):
    ref = _final_clock(seed, "reference")
    with _numpy_filler():
        inc = _final_clock(seed, "incremental")
    assert inc == pytest.approx(ref, rel=1e-9)
