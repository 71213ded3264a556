"""Irregular personalized communication (MPI_Alltoallv) scheduling.

The paper handles the *regular* pattern where every pair exchanges
``msize`` bytes; its related work cites heuristics for the irregular
case ([10], Liu/Wang/Prasanna).  This module extends the library to
irregular patterns in the paper's spirit:

* messages are packed into **contention-free phases** exactly as in the
  regular case (so the pair-wise sync machinery applies unchanged), but
* a phase's duration is governed by its *largest* message, so the
  packer must also balance sizes.

:func:`schedule_irregular` packs largest first through the shared
first-fit packer :func:`repro.core.naive.first_fit`, with a
size-compatibility window as its ``admits`` test: a message only joins
a phase whose largest member is within ``balance`` of its own size,
which keeps tiny messages from riding (and wasting) huge phases.  Two
lower bounds frame the result: the per-edge byte bottleneck (how long
the busiest link must transmit) and the per-endpoint serialization
bound.

For the regular pattern this degenerates gracefully: every message has
the same size, the window never splits phases, and the packing is plain
first-fit (though the paper's own scheduler — provably optimal there —
remains the right tool; see :func:`repro.core.scheduler.schedule_aapc`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Tuple

from repro.errors import SchedulingError, VerificationError
from repro.core.naive import first_fit
from repro.core.pattern import Message
from repro.core.schedule import MessageKind, PhasedSchedule
from repro.core.verify import verify_contention_free, verify_pair_set
from repro.topology.graph import Edge, Topology
from repro.topology.paths import PathOracle

#: Per-pair byte counts: sizes[(src, dst)] -> bytes (missing/0 = no message).
SizeMap = Mapping[Tuple[str, str], int]


@dataclass
class IrregularSchedule:
    """A phased schedule for an irregular pattern, with size metadata."""

    schedule: PhasedSchedule
    sizes: Dict[Tuple[str, str], int]
    #: Duration-dominating size per phase (bytes).
    phase_sizes: List[int]

    @property
    def num_phases(self) -> int:
        return self.schedule.num_phases

    def makespan_bytes(self) -> int:
        """Serial bytes of the schedule: sum of per-phase maxima.

        Dividing by the link bandwidth gives the no-overlap completion
        estimate the packer optimises.
        """
        return sum(self.phase_sizes)


def validate_sizes(topology: Topology, sizes: SizeMap) -> Dict[Tuple[str, str], int]:
    """Normalise a size map: known machines, no self-messages, sizes > 0."""
    machines = set(topology.machines)
    clean: Dict[Tuple[str, str], int] = {}
    for (src, dst), nbytes in sizes.items():
        if src not in machines or dst not in machines:
            raise SchedulingError(f"unknown machine in pair ({src!r}, {dst!r})")
        if src == dst:
            raise SchedulingError(f"self-message {src!r} -> {dst!r}")
        if nbytes < 0:
            raise SchedulingError(f"negative size for ({src!r}, {dst!r})")
        if nbytes > 0:
            clean[(src, dst)] = int(nbytes)
    return clean


def edge_byte_loads(topology: Topology, sizes: SizeMap) -> Dict[Edge, int]:
    """Bytes each directed edge must carry for the pattern."""
    oracle = PathOracle(topology)
    loads: Dict[Edge, int] = {e: 0 for e in topology.directed_edges()}
    for (src, dst), nbytes in validate_sizes(topology, sizes).items():
        for edge in oracle.path_edges(src, dst):
            loads[edge] += nbytes
    return loads


def bandwidth_lower_bound(
    topology: Topology, sizes: SizeMap, bandwidth: float
) -> float:
    """Completion-time lower bound: busiest link bytes / bandwidth.

    The irregular analogue of the paper's Section 3 bound.
    """
    loads = edge_byte_loads(topology, sizes)
    if not loads:
        return 0.0
    return max(loads.values()) / bandwidth


def schedule_irregular(
    topology: Topology,
    sizes: SizeMap,
    *,
    balance: float = 2.0,
) -> IrregularSchedule:
    """Pack an irregular pattern into contention-free, size-bucketed phases.

    Parameters
    ----------
    balance:
        Size-compatibility window: a message of ``s`` bytes may join a
        phase whose current dominating size ``m`` satisfies
        ``m <= balance * s`` (and conversely ``s <= m`` by the
        largest-first order), bounding per-phase waste to the factor
        *balance*.  ``float("inf")`` disables bucketing (pure first-fit).
    """
    if balance < 1.0:
        raise SchedulingError("balance must be >= 1")
    clean = validate_sizes(topology, sizes)
    size = {Message(*pair): nbytes for pair, nbytes in clean.items()}
    # Largest first: dominating sizes are fixed early, later (smaller)
    # messages fill the gaps.  Ties broken by name for determinism.  So a
    # phase's first member is its largest, and a phase too large for one
    # message is too large for every later one, as first_fit requires.
    order = sorted(size, key=lambda m: (-size[m], m.src, m.dst))
    phases = first_fit(
        topology,
        order,
        admits=lambda phase, m: size[phase[0]] <= balance * size[m],
    )

    schedule = PhasedSchedule(topology, len(phases))
    for p, phase in enumerate(phases):
        for message in phase:
            schedule.add(p, message, MessageKind.GLOBAL)
    return IrregularSchedule(
        schedule=schedule,
        sizes=clean,
        phase_sizes=[size[phase[0]] for phase in phases],
    )


def verify_irregular(result: IrregularSchedule) -> None:
    """Check contention freedom, completeness and size bookkeeping."""
    schedule = result.schedule
    verify_contention_free(schedule)
    # completeness: exactly the positive-size pairs
    verify_pair_set(
        schedule, {Message(*pair) for pair in result.sizes}, "irregular"
    )
    # phase size = max member size
    for p, phase in enumerate(schedule.phases()):
        biggest = max(result.sizes[sm.message.as_tuple()] for sm in phase)
        if biggest != result.phase_sizes[p]:
            raise VerificationError(
                f"phase {p} dominating size recorded {result.phase_sizes[p]} "
                f"but members reach {biggest}"
            )


def uniform_sizes(topology: Topology, msize: int) -> Dict[Tuple[str, str], int]:
    """The regular AAPC pattern expressed as a size map (for testing)."""
    return {
        (src, dst): msize
        for src in topology.machines
        for dst in topology.machines
        if src != dst
    }
