"""Workload definitions for the benchmark harness.

The paper measures ``MPI_Alltoall`` completion time for message sizes
8 KB through 256 KB, averaging 3 executions of 10 iterations each.  A
:class:`Workload` captures one cell of that grid; sweeps build the rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.errors import ReproError
from repro.units import kib

#: The msize column of the paper's tables (Figures 6-8, part (a)).
PAPER_MESSAGE_SIZES: Sequence[int] = tuple(
    kib(k) for k in (8, 16, 32, 64, 128, 256)
)


@dataclass(frozen=True)
class Workload:
    """One AAPC measurement configuration."""

    #: Per-pair message size in bytes.
    msize: int
    #: Number of seeded repetitions to average (the paper uses 3).
    repetitions: int = 3
    #: Base seed; repetition ``r`` uses ``seed + r``.
    seed: int = 0

    def __post_init__(self) -> None:
        if self.repetitions < 1:
            raise ReproError(f"need at least one repetition, got {self.repetitions}")

    def seeds(self) -> List[int]:
        return [self.seed + r for r in range(self.repetitions)]


def message_size_sweep(
    sizes: Sequence[int] = PAPER_MESSAGE_SIZES,
    *,
    repetitions: int = 3,
    seed: int = 0,
) -> List[Workload]:
    """One workload per message size (the paper's table rows)."""
    return [Workload(msize=s, repetitions=repetitions, seed=seed) for s in sizes]
