"""High-level, MPI-flavoured front door: :class:`Communicator`.

Downstream users mostly want one object that hides the pipeline::

    from repro.api import Communicator
    from repro.topology import topology_c

    comm = Communicator(topology_c())
    t = comm.alltoall(msize=64 * 1024)               # the paper's routine
    t_lam = comm.alltoall(msize=64 * 1024, algorithm="lam")
    t_ag = comm.allgather(msize=64 * 1024)
    comm.bcast(msize=4096, root=0)

Every call builds the programs, runs the simulator with delivery
verification, and returns the :class:`~repro.sim.executor.RunResult`.
Schedules, sync plans and programs are cached per (algorithm, msize
class) so repeated calls — e.g. inside an application model like
``examples/matrix_transpose.py`` — pay construction once.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.algorithms import get_algorithm
from repro.algorithms.irregular import (
    PostAllAlltoallv,
    ScheduledAlltoallv,
    expected_blocks_for,
)
from repro.collectives import (
    binomial_bcast,
    binomial_gather,
    binomial_scatter,
    recursive_doubling_allgather,
    ring_allgather,
)
from repro.core.irregular import SizeMap
from repro.errors import ReproError
from repro.sim.executor import RunResult, run_programs
from repro.sim.params import NetworkParams
from repro.topology.graph import Topology


class Communicator:
    """A simulated cluster with MPI-style collective entry points."""

    def __init__(
        self,
        topology: Topology,
        params: Optional[NetworkParams] = None,
        *,
        link_bandwidths: Optional[Dict[Tuple[str, str], float]] = None,
    ) -> None:
        if not topology.validated:
            topology.validate()
        self.topology = topology
        self.params = params if params is not None else NetworkParams()
        self.link_bandwidths = link_bandwidths
        self._program_cache: Dict[Tuple[str, int], dict] = {}

    @property
    def size(self) -> int:
        """Number of ranks (machines)."""
        return self.topology.num_machines

    def rank_name(self, rank: int) -> str:
        return self.topology.machine_of(rank)

    # ------------------------------------------------------------------
    def alltoall(
        self,
        msize: int,
        *,
        algorithm: str = "generated",
        seed: Optional[int] = None,
        trace: bool = False,
        telemetry: bool = False,
    ) -> RunResult:
        """Run MPI_Alltoall with *msize* bytes per pair.

        *telemetry* attaches the flight-recorder bundle
        (:class:`~repro.obs.telemetry.RunTelemetry`) to the result.
        """
        key = (algorithm, msize)
        programs = self._program_cache.get(key)
        if programs is None:
            programs = get_algorithm(algorithm).build_programs(
                self.topology, msize
            )
            self._program_cache[key] = programs
        return self._run(programs, msize, seed=seed, trace=trace, telemetry=telemetry)

    def alltoallv(
        self,
        sizes: SizeMap,
        *,
        scheduled: bool = True,
        seed: Optional[int] = None,
    ) -> RunResult:
        """Run MPI_Alltoallv for a per-pair byte map."""
        builder = ScheduledAlltoallv() if scheduled else PostAllAlltoallv()
        programs = builder.build_programs(self.topology, sizes)
        return self._run(
            programs,
            0,
            seed=seed,
            expected=expected_blocks_for(self.topology, sizes),
        )

    def allgather(
        self,
        msize: int,
        *,
        algorithm: str = "ring",
        seed: Optional[int] = None,
    ) -> RunResult:
        """Run MPI_Allgather (``"ring"`` or ``"recursive-doubling"``)."""
        if algorithm == "ring":
            build = ring_allgather(self.topology, msize)
        elif algorithm == "recursive-doubling":
            build = recursive_doubling_allgather(self.topology, msize)
        else:
            raise ReproError(
                f"unknown allgather algorithm {algorithm!r}; "
                "expected 'ring' or 'recursive-doubling'"
            )
        return self._run(
            build.programs, 0, seed=seed, expected=build.expected_blocks
        )

    def bcast(
        self, msize: int, *, root: "int | str" = 0, seed: Optional[int] = None
    ) -> RunResult:
        """Run MPI_Bcast of *msize* bytes from *root*."""
        build = binomial_bcast(self.topology, msize, root=root)
        return self._run(
            build.programs, 0, seed=seed, expected=build.expected_blocks
        )

    def scatter(
        self, msize: int, *, root: "int | str" = 0, seed: Optional[int] = None
    ) -> RunResult:
        """Run MPI_Scatter of one *msize*-byte block per rank."""
        build = binomial_scatter(self.topology, msize, root=root)
        return self._run(
            build.programs, 0, seed=seed, expected=build.expected_blocks
        )

    def gather(
        self, msize: int, *, root: "int | str" = 0, seed: Optional[int] = None
    ) -> RunResult:
        """Run MPI_Gather of one *msize*-byte block per rank."""
        build = binomial_gather(self.topology, msize, root=root)
        return self._run(
            build.programs, 0, seed=seed, expected=build.expected_blocks
        )

    # ------------------------------------------------------------------
    def _run(
        self,
        programs,
        msize: int,
        *,
        seed: Optional[int],
        expected=None,
        trace: bool = False,
        telemetry: bool = False,
    ) -> RunResult:
        params = self.params if seed is None else self.params.with_seed(seed)
        return run_programs(
            self.topology,
            programs,
            msize,
            params,
            expected_blocks=expected,
            link_bandwidths=self.link_bandwidths,
            trace=trace,
            telemetry=telemetry,
        )
