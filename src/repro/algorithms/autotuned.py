"""Empirically auto-tuned MPI_Alltoall selection.

The paper's routine generator is static: it always emits the scheduled
routine, which loses at small message sizes.  The natural production
wrapper — and the direction the authors themselves later took (STAR-MPI,
Faraj/Yuan/Lowenthal 2006) — is *empirical tuning*: run the candidates
on the actual cluster once per (topology, message-size) regime, cache
the winner, and dispatch.

:class:`AutoTunedAlltoall` does exactly that against the simulator:
on first use for a message size it measures every candidate (a few
seeded repetitions), remembers the fastest, and thereafter builds that
winner's programs directly.  Cells are keyed on the topology's text
serialization, so a content-equal topology object shares its cache
entries.  `examples/adaptive_selection.py` shows the resulting dispatch
tables.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.algorithms.base import AlltoallAlgorithm
from repro.algorithms.registry import get_algorithm
from repro.core.program import Program
from repro.errors import ReproError
from repro.sim.params import NetworkParams
from repro.topology.graph import Topology
from repro.topology.serialization import dumps_topology

DEFAULT_CANDIDATES = ("bruck", "lam", "mpich", "generated")


class AutoTunedAlltoall(AlltoallAlgorithm):
    """Measure-once, dispatch-thereafter alltoall."""

    name = "autotuned"

    def __init__(
        self,
        candidates: Sequence[str] = DEFAULT_CANDIDATES,
        *,
        params: Optional[NetworkParams] = None,
        repetitions: int = 2,
    ) -> None:
        if not candidates:
            raise ReproError("need at least one candidate algorithm")
        if repetitions < 1:
            raise ReproError("need at least one tuning repetition")
        self.candidates = tuple(candidates)
        self.params = params if params is not None else NetworkParams()
        self.repetitions = repetitions
        #: (topology text, msize) -> winning algorithm name
        self._winners: Dict[Tuple[str, int], str] = {}
        #: (topology text, msize) -> measured mean times per candidate
        self.measurements: Dict[Tuple[str, int], Dict[str, float]] = {}

    # ------------------------------------------------------------------
    def tune(self, topology: Topology, msize: int) -> str:
        """Measure all candidates for this cell; cache and return the winner."""
        key = (dumps_topology(topology), msize)
        if key not in self._winners:
            self.build_programs(topology, msize)
        return self._winners[key]

    def selected(self, topology: Topology, msize: int) -> Optional[str]:
        """The cached winner for this cell, or None if not tuned yet."""
        return self._winners.get((dumps_topology(topology), msize))

    def build_programs(self, topology: Topology, msize: int) -> Dict[str, Program]:
        """The winner's programs, tuning the cell first if it is new.

        Tuning builds each candidate once and keeps only the fastest
        program set so far: that set is the one returned.
        """
        key = (dumps_topology(topology), msize)
        if key in self._winners:
            return get_algorithm(self._winners[key]).build_programs(
                topology, msize
            )
        # imported lazily: the harness depends on the algorithms package
        from repro.harness.runner import measure_programs
        from repro.harness.workloads import Workload

        workload = Workload(msize, self.repetitions, 0)
        times: Dict[str, float] = {}
        winner = ""
        best: Dict[str, Program] = {}
        for name in self.candidates:
            algorithm = get_algorithm(name)
            programs = algorithm.build_programs(topology, msize)
            times[name] = measure_programs(
                topology, algorithm, programs, workload, self.params
            ).mean_time
            if not winner or times[name] < times[winner]:
                winner, best = name, programs
            del programs
        self._winners[key] = winner
        self.measurements[key] = times
        return best

    def describe(self, topology: Topology, msize: int) -> str:
        winner = self.selected(topology, msize)
        return f"autotuned({winner or 'untuned'})"

    def dispatch_table(self, topology: Topology) -> List[Tuple[int, str]]:
        """(msize, winner) rows tuned so far for *topology*, size-sorted."""
        text = dumps_topology(topology)
        rows = [
            (msize, winner)
            for (topo_text, msize), winner in self._winners.items()
            if topo_text == text
        ]
        return sorted(rows)
