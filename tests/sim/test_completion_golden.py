"""Bit-exact completion times of contention-heavy executor cells.

The allocator differential suite compares the two allocators to 1e-9;
this file pins the simulated ``completion_time`` itself with ``==``.
Any change to the order or operands of a floating-point operation that
feeds a flow rate or a completion deadline shows up here as a changed
value.  The cells are the paper's baselines (LAM, MPICH) at 16 KiB,
where hundreds of flows share each switch, plus one ``generated``
cell.  The incremental allocator's two fillers and the reference
allocator are each pinned, since each sums in its own order.

The noise-free cells zero every noise source, so ranks run in
lockstep and many flow starts, completions and syncs land on the same
instant.  They pin ``events_processed`` too: a change to how
same-instant work is batched shows up there even when the completion
stays put.  The 64 KiB cells use rendezvous transfers; the 4 KiB cells
on a random tree use buffered ones, whose phases overlap.

Regenerate a value only on purpose: a change that moves one of them
changes every simulated figure that cell's regime feeds.
"""

import pytest

from repro.algorithms import get_algorithm
from repro.sim import allocator as allocator_module
from repro.sim.executor import run_programs
from repro.sim.params import NetworkParams
from repro.topology.builder import (
    random_tree,
    single_switch,
    star_of_switches,
    topology_a,
)
from repro.units import kib

#: (algorithm, topology builder, completion seconds) at 16 KiB, seed 0,
#: default noise, incremental allocator with its default filler crossover.
GOLDEN = [
    ("lam", "single_switch(16)", 0.036078298358295235),
    ("mpich", "single_switch(16)", 0.035857728055453786),
    ("lam", "topology_a()", 0.0550689699048721),
    ("mpich", "topology_a()", 0.054569871409217506),
    ("generated", "topology_a()", 0.0708198223337612),
]

_TOPOLOGIES = {
    "single_switch(16)": lambda: single_switch(16),
    "single_switch(8)": lambda: single_switch(8),
    "topology_a()": topology_a,
}


def _completion(algorithm, topology, params):
    topo = _TOPOLOGIES[topology]()
    programs = get_algorithm(algorithm).build_programs(topo, kib(16))
    return run_programs(topo, programs, kib(16), params).completion_time


@pytest.mark.parametrize("algorithm,topology,expected", GOLDEN)
def test_incremental_completion_is_bit_exact(algorithm, topology, expected):
    assert _completion(algorithm, topology, NetworkParams()) == expected


@pytest.mark.parametrize(
    "algorithm,expected",
    [("lam", 0.01753163663888251), ("mpich", 0.017531636638882513)],
)
def test_numpy_filler_completion_is_bit_exact(monkeypatch, algorithm, expected):
    monkeypatch.setattr(allocator_module, "_VECTORIZE_EDGES", 0)
    assert _completion(algorithm, "single_switch(8)", NetworkParams()) == expected


@pytest.mark.parametrize(
    "algorithm,expected",
    [("lam", 0.017531636638882513), ("mpich", 0.017531636638882513)],
)
def test_reference_completion_is_bit_exact(algorithm, expected):
    params = NetworkParams(allocator="reference")
    assert _completion(algorithm, "single_switch(8)", params) == expected


#: (algorithm, topology, message size, completion seconds, events) with
#: every noise source off, seed 0, incremental allocator.
NOISE_FREE_GOLDEN = [
    ("generated", "star_of_switches([4]*4)", kib(64), 0.35897431999999924, 1248),
    ("lam", "star_of_switches([4]*4)", kib(64), 0.41777279357510566, 820),
    ("generated", "random_tree(40, 8, seed=5)", kib(4), 0.27568185209328017, 9790),
    ("lam", "random_tree(40, 8, seed=5)", kib(4), 0.18702905428016878, 5083),
]

_NOISE_FREE_TOPOLOGIES = {
    "star_of_switches([4]*4)": lambda: star_of_switches([4] * 4),
    "random_tree(40, 8, seed=5)": lambda: random_tree(40, 8, seed=5),
}


@pytest.mark.parametrize(
    "algorithm,topology,msize,expected,events", NOISE_FREE_GOLDEN
)
def test_noise_free_completion_and_events_are_exact(
    algorithm, topology, msize, expected, events
):
    topo = _NOISE_FREE_TOPOLOGIES[topology]()
    params = NetworkParams(jitter=0.0, rank_speed_spread=0.0, stall_prob=0.0)
    programs = get_algorithm(algorithm).build_programs(topo, msize)
    result = run_programs(topo, programs, msize, params)
    assert result.completion_time == expected
    assert result.events_processed == events
