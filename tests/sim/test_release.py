"""A contention-free run frees what it finishes.

Finished MPI requests and processes must be freed by reference
counting (no cycle for the collector), drained match queues must not
linger, a finished run must leave its network, engine and pooled flows
to reference counting too, and a flow that starts or finishes alone
on its path must not trigger a re-solve.  A flow that shares an edge
still re-rates the survivor at the instant it finishes:
``test_network.TestSharing``'s
``test_released_capacity_speeds_up_survivor`` checks that path.
"""

import gc

import pytest

from repro.algorithms import get_algorithm
from repro.obs.metrics_registry import MetricsRegistry
from repro.sim import executor
from repro.sim.engine import SimEvent
from repro.sim.executor import run_programs
from repro.sim.mpi import Request, SimMPI
from repro.sim.network import Flow, FlowNetwork
from repro.sim.params import NetworkParams
from repro.topology.builder import star_of_switches
from repro.units import kib


@pytest.fixture
def drained(monkeypatch):
    """The end-of-run state of every :class:`SimMPI` ``run_programs``
    drains: its two match tables and its flow count.

    Only these are kept, not the layer itself, which would keep the
    whole network reachable and hide what it leaves to the collector.
    """
    states = []

    class Recording(SimMPI):
        def assert_drained(self):
            states.append(
                (self._unmatched_sends, self._unmatched_recvs,
                 self.flows_started)
            )
            super().assert_drained()

    monkeypatch.setattr(executor, "SimMPI", Recording)
    return states


def test_generated_run_leaves_no_cyclic_garbage(small_star, drained):
    programs = get_algorithm("generated").build_programs(small_star, kib(64))
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run_programs(small_star, programs, kib(64), NetworkParams(seed=0))
        gc.collect()
        leaked = [o for o in gc.garbage if isinstance(o, (Request, SimEvent))]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert leaked == []
    ((sends, recvs, flows),) = drained
    assert flows > 0
    assert sends == {}
    assert recvs == {}


def test_finished_run_leaves_no_network_to_the_collector():
    """LAM's contended run pools flows; the network and its allocator
    refer to each other until the run ends, then nothing is cyclic."""
    topo = star_of_switches([3, 3, 2])
    programs = get_algorithm("lam").build_programs(topo, kib(64))
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        result = run_programs(topo, programs, kib(64), NetworkParams(seed=0))
        gc.collect()
        leaked = [o for o in gc.garbage if isinstance(o, (Flow, FlowNetwork))]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert result.max_edge_multiplexing > 1
    assert leaked == []


def test_contention_free_run_settles_once_per_flow(small_star, drained):
    """Each flow starts and finishes alone, so neither dirties the
    network: the lone-flow start and the lone-flow finish skip the
    settle's solve."""
    programs = get_algorithm("generated").build_programs(small_star, kib(64))
    registry = MetricsRegistry()
    with registry.activate():
        result = run_programs(
            small_star, programs, kib(64), NetworkParams(seed=0)
        )
    assert result.max_edge_multiplexing == 1
    ((_, _, flows),) = drained
    assert flows > 0
    assert registry.get("network.flow_set_changes") == 0
    assert registry.get("network.resolves_total") == 0

