"""Bit-exact programs of the scheduled alltoallv.

Each digest hashes every op of every rank (kind, peer, tag, phase,
``nbytes``, blocks) in rank order, the same form the benchmark pins for
the generated routine.  They were recorded before the alltoallv moved
onto the generated routine's lowering, so they hold that the move
changed no op: not the sync tags, not the per-pair byte counts, not the
order within a phase.
"""

import hashlib
import math

import pytest

from repro.algorithms.irregular import ScheduledAlltoallv
from repro.core.irregular import uniform_sizes
from repro.topology.builder import chain_of_switches, single_switch, topology_c
from repro.units import kib

#: (topology, size map, balance, sync) -> programs digest.
PROGRAMS_GOLDEN = {
    ("single_switch", "skewed", 2.0, True):
        "512edc6e201333fbb7e2ec13b33e18dfaff4f8bb0d9a1282c07b421124c3e11d",
    ("single_switch", "skewed", 2.0, False):
        "bdf42646136543422ed4375662889ee6f774dae5c7edaf01200fc2f7c404d0b7",
    ("single_switch", "skewed", math.inf, True):
        "e5d67d24177eae5f5aa183f3e0145ea4a9d6e6ca0c3e2fb2b238521105360e48",
    ("single_switch", "skewed", math.inf, False):
        "b0334b121d8d8a8db1224726ac54ce77e36ef02299a5f2b4efe0fb4a65b6d107",
    ("single_switch", "uniform", 2.0, True):
        "13ecbb2fc8fa4cbf9c1c1e7246b2bf44b2fda895879e64b28a19ef51edf3f3fb",
    ("single_switch", "uniform", 2.0, False):
        "0340611587d7cddc4067dc57a30ee381c3b2b214f74bb80b3d6cb7f8c1fe616a",
    ("single_switch", "uniform", math.inf, True):
        "13ecbb2fc8fa4cbf9c1c1e7246b2bf44b2fda895879e64b28a19ef51edf3f3fb",
    ("single_switch", "uniform", math.inf, False):
        "0340611587d7cddc4067dc57a30ee381c3b2b214f74bb80b3d6cb7f8c1fe616a",
    ("chain_of_switches", "skewed", 2.0, True):
        "fa717fe45d04442325a4bc0931a69c80a2ab7da3afb4f4594b6878d2723b6432",
    ("chain_of_switches", "skewed", 2.0, False):
        "a1d9cff93f6feff97feb3b0e9f21003dd14d21c95db6e246d9f40c869ddd2734",
    ("chain_of_switches", "skewed", math.inf, True):
        "168e607bc356082eb401128c82eb3c4add68b00ee091afbf6c67e79baa3bc8a2",
    ("chain_of_switches", "skewed", math.inf, False):
        "ffc3eadc239afefb916b62fe8ff6b92f2d585e6507d1e277b7fdf72755462465",
    ("chain_of_switches", "uniform", 2.0, True):
        "17a6b2c92f32948be509435a08cf7ec1b76918668f1b343c3108ba73d15890ef",
    ("chain_of_switches", "uniform", 2.0, False):
        "ece809fe5030dcffb70ec41d7737afec86b86990be54bada6d3e7b1f740f70b7",
    ("chain_of_switches", "uniform", math.inf, True):
        "17a6b2c92f32948be509435a08cf7ec1b76918668f1b343c3108ba73d15890ef",
    ("chain_of_switches", "uniform", math.inf, False):
        "ece809fe5030dcffb70ec41d7737afec86b86990be54bada6d3e7b1f740f70b7",
    ("topology_c", "skewed", 2.0, True):
        "80477f179fbcff1069d2bfed3d723cea7f08c6dc63200561aec6543713d95834",
    ("topology_c", "skewed", 2.0, False):
        "cc8db3302f73f5a4df0f0ed89f79479be7dc2ac49f085ace6bc05f538cc54eb7",
    ("topology_c", "skewed", math.inf, True):
        "9e1ba25342fe67f25a0d251c172eeeaee1c6a143450411ad19b3af3ae991252c",
    ("topology_c", "skewed", math.inf, False):
        "b335a2ebb9dc361ebf07d70ba23080cc605c2efff2593b3317ca36039dd5d0d7",
    ("topology_c", "uniform", 2.0, True):
        "87b506e6250d6ee11c5b2c6d046c5617e5c60773ef77a59cad6f8b3f702a53fd",
    ("topology_c", "uniform", 2.0, False):
        "bfea8c15482fc55b8e5c09338dcf029aaafa22967c828ec39de68af58bbfe2a4",
    ("topology_c", "uniform", math.inf, True):
        "87b506e6250d6ee11c5b2c6d046c5617e5c60773ef77a59cad6f8b3f702a53fd",
    ("topology_c", "uniform", math.inf, False):
        "bfea8c15482fc55b8e5c09338dcf029aaafa22967c828ec39de68af58bbfe2a4",
}

_TOPOLOGIES = {
    "single_switch": lambda: single_switch(5),
    "chain_of_switches": lambda: chain_of_switches([3, 3]),
    "topology_c": topology_c,
}


def _skewed(topo):
    """The first machine fans out 256 KiB; each other one trickles on."""
    machines = list(topo.machines)
    sizes = {(machines[0], dst): kib(256) for dst in machines[1:]}
    for i, src in enumerate(machines[1:], start=1):
        sizes[(src, machines[(i + 1) % len(machines)])] = kib(4 * i)
    return sizes


_SIZE_MAPS = {
    "skewed": _skewed,
    "uniform": lambda topo: uniform_sizes(topo, kib(16)),
}


def _programs_digest(programs):
    h = hashlib.sha256()
    for rank in sorted(programs):
        for op in programs[rank].ops:
            h.update(
                f"{rank} {op.kind.value} {op.peer} {op.tag} {op.phase} "
                f"{op.nbytes} {op.blocks}\n".encode()
            )
    return h.hexdigest()


@pytest.mark.parametrize("topology,sizes,balance,sync", sorted(
    PROGRAMS_GOLDEN, key=repr
))
def test_scheduled_alltoallv_programs_pinned(topology, sizes, balance, sync):
    topo = _TOPOLOGIES[topology]()
    algorithm = ScheduledAlltoallv(balance=balance, sync=sync)
    programs = algorithm.build_programs(topo, _SIZE_MAPS[sizes](topo))
    assert _programs_digest(programs) == PROGRAMS_GOLDEN[
        topology, sizes, balance, sync
    ]
