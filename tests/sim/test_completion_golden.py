"""Bit-exact completion times of contention-heavy executor cells.

The allocator differential suite compares the two allocators to 1e-9;
this file pins the simulated ``completion_time`` itself with ``==``.
Any change to the order or operands of a floating-point operation that
feeds a flow rate or a completion deadline shows up here as a changed
value.  The cells are the paper's baselines (LAM, MPICH) at 16 KiB,
where hundreds of flows share each switch, plus one ``generated``
cell.  The incremental allocator's two fillers and the reference
allocator are each pinned, since each sums in its own order.

Regenerate a value only on purpose: a change that moves one of them
changes every simulated figure that cell's regime feeds.
"""

import pytest

from repro.algorithms import get_algorithm
from repro.sim import allocator as allocator_module
from repro.sim.executor import run_programs
from repro.sim.params import NetworkParams
from repro.topology.builder import single_switch, topology_a
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
