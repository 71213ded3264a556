"""MPICH's improved MPI_Alltoall algorithms (Thakur et al. [18]).

The paper's second baseline "uses different techniques and adapts based
on the message size and the number of nodes":

* ``msize <= 256`` — the Bruck log-step algorithm
  (:mod:`repro.algorithms.bruck`);
* ``256 < msize <= 32768`` — post all non-blocking operations like LAM,
  but rank ``i`` orders its communications ``i -> i+1, i -> i+2, ...``
  (:class:`OrderedIsendAlltoall`);
* ``msize > 32768`` and N a power of two — the pairwise exclusive-or
  algorithm: at step ``j`` rank ``i`` exchanges with ``i ^ j``
  (:class:`PairwiseAlltoall`);
* ``msize > 32768`` otherwise — the ring algorithm: at step ``j`` rank
  ``i`` sends to ``i + j`` and receives from ``i - j``
  (:class:`RingAlltoall`).

:class:`MpichSelector` reproduces this dispatch so the benchmark
harness can quote a single "MPICH" column like the paper does.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from repro.algorithms.base import (
    AlltoallAlgorithm,
    post_all_programs,
    stepwise_exchange_programs,
)
from repro.algorithms.bruck import BruckAlltoall
from repro.core.program import Program
from repro.errors import SchedulingError
from repro.sim.engine import gc_paused
from repro.topology.graph import Topology

#: MPICH's small/medium crossover (bytes).
BRUCK_THRESHOLD = 256
#: MPICH's medium/large crossover (bytes).
LARGE_THRESHOLD = 32768


def is_power_of_two(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


class OrderedIsendAlltoall(AlltoallAlgorithm):
    """MPICH's medium-message algorithm: staggered post-everything.

    Identical in structure to LAM's algorithm, but rank ``i`` posts
    toward ``(i+1) mod N`` first — a limited form of scheduling that
    spreads instantaneous load over receivers (paper, Section 6).
    """

    name = "mpich-ordered-isend"

    @gc_paused()
    def build_programs(self, topology: Topology, msize: int) -> Dict[str, Program]:
        order = lambda i, n: [(i + j) % n for j in range(1, n)]  # noqa: E731
        return post_all_programs(topology, send_order=order, recv_order=order)


class PairwiseAlltoall(AlltoallAlgorithm):
    """MPICH's large-message algorithm for power-of-two rank counts.

    ``N - 1`` steps; at step ``j`` rank ``i`` sends to and receives from
    ``i ^ j`` (a perfect matching per step).
    """

    name = "mpich-pairwise"

    @gc_paused()
    def build_programs(self, topology: Topology, msize: int) -> Dict[str, Program]:
        n = topology.num_machines
        if not is_power_of_two(n):
            raise SchedulingError(
                f"pairwise alltoall requires a power-of-two rank count, got {n}"
            )

        def peers(i: int, n_: int, step: int) -> Tuple[int, int]:
            peer = i ^ (step + 1)
            return peer, peer

        return stepwise_exchange_programs(topology, peers, n - 1)


class RingAlltoall(AlltoallAlgorithm):
    """MPICH's large-message algorithm for non-power-of-two rank counts.

    ``N - 1`` steps; at step ``j`` rank ``i`` sends to ``(i + j) mod N``
    and receives from ``(i - j) mod N``.
    """

    name = "mpich-ring"

    @gc_paused()
    def build_programs(self, topology: Topology, msize: int) -> Dict[str, Program]:
        n = topology.num_machines

        def peers(i: int, n_: int, step: int) -> Tuple[int, int]:
            j = step + 1
            return (i + j) % n_, (i - j) % n_

        return stepwise_exchange_programs(topology, peers, n - 1)


class MpichSelector(AlltoallAlgorithm):
    """MPICH's size/count-adaptive dispatch (the paper's "MPICH" column)."""

    name = "mpich"

    def __init__(self) -> None:
        self._bruck = BruckAlltoall()
        self._medium = OrderedIsendAlltoall()
        self._pairwise = PairwiseAlltoall()
        self._ring = RingAlltoall()

    def select(self, topology: Topology, msize: int) -> AlltoallAlgorithm:
        """The concrete algorithm MPICH would run."""
        if msize <= BRUCK_THRESHOLD:
            return self._bruck
        if msize <= LARGE_THRESHOLD:
            return self._medium
        if is_power_of_two(topology.num_machines):
            return self._pairwise
        return self._ring

    def build_programs(self, topology: Topology, msize: int) -> Dict[str, Program]:
        return self.select(topology, msize).build_programs(topology, msize)

    def describe(self, topology: Topology, msize: int) -> str:
        return f"mpich({self.select(topology, msize).name})"
