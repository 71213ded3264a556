"""LAM/MPI 6.5.9's MPI_Alltoall (the paper's first baseline).

"LAM/MPI implements all-to-all by simply posting all nonblocking
receives and sends and then waiting for all communications to finish
... the order of communications for node i is i -> 0, i -> 1, ...,
i -> N-1" (paper, Section 6).  Every rank therefore pushes toward rank
0 first, then rank 1, and so on — all ``N-1`` transfers in flight at
once, with no attention to link contention.
"""

from __future__ import annotations

from typing import Dict

from repro.algorithms.base import AlltoallAlgorithm, post_all_programs
from repro.core.program import Program
from repro.sim.engine import gc_paused
from repro.topology.graph import Topology


class LamAlltoall(AlltoallAlgorithm):
    """Post-everything all-to-all in ascending rank order."""

    name = "lam"

    @gc_paused()
    def build_programs(self, topology: Topology, msize: int) -> Dict[str, Program]:
        order = lambda i, n: range(n)  # noqa: E731 - tiny order functions
        return post_all_programs(topology, send_order=order, recv_order=order)
