"""Alltoallv algorithm implementations over the op IR.

Two realizations of irregular personalized communication:

* :class:`PostAllAlltoallv` — what mainstream MPI libraries do: post
  every non-blocking operation and wait (LAM's strategy, also MPICH's
  default for alltoallv in the paper's era).
* :class:`ScheduledAlltoallv` — this library's extension of the paper's
  idea: contention-free size-bucketed phases
  (:func:`repro.core.irregular.schedule_irregular`) with the same
  pair-wise synchronization planning as the regular generated routine,
  lowered by the generated routine's own
  :func:`repro.core.program.build_programs` (which stamps each pair's
  byte count on its send and receive).

Both produce programs whose ops carry explicit ``nbytes`` so the
executor moves the exact per-pair byte counts, and both are checked by
the executor's delivery verifier via :func:`expected_blocks_for`.
"""

from __future__ import annotations

from typing import Dict, Set

from repro.core.irregular import (
    SizeMap,
    schedule_irregular,
    validate_sizes,
    verify_irregular,
)
from repro.core.program import (
    Block, Op, OpKind, Program, build_programs, validate_programs,
)
from repro.core.synchronization import build_sync_plan
from repro.sim.engine import gc_paused
from repro.topology.graph import Topology


def expected_blocks_for(
    topology: Topology, sizes: SizeMap
) -> Dict[str, Set[Block]]:
    """Per-rank delivery expectation for an irregular pattern."""
    clean = validate_sizes(topology, sizes)
    expected: Dict[str, Set[Block]] = {m: set() for m in topology.machines}
    for src, dst in clean:
        expected[dst].add((src, dst))
    return expected


class PostAllAlltoallv:
    """Post-everything alltoallv (the LAM/MPICH-era strategy)."""

    name = "postall-alltoallv"

    @gc_paused()
    def build_programs(
        self, topology: Topology, sizes: SizeMap
    ) -> Dict[str, Program]:
        clean = validate_sizes(topology, sizes)
        programs = {m: Program(m) for m in topology.machines}
        for src, dst in sorted(clean):
            nbytes = clean[(src, dst)]
            programs[dst].append(
                Op(OpKind.IRECV, peer=src, tag=0, blocks=((src, dst),),
                   nbytes=nbytes, phase=0)
            )
        for src, dst in sorted(clean):
            nbytes = clean[(src, dst)]
            programs[src].append(
                Op(OpKind.ISEND, peer=dst, tag=0, blocks=((src, dst),),
                   nbytes=nbytes, phase=0)
            )
        for prog in programs.values():
            prog.append(Op(OpKind.WAITALL, phase=0))
        validate_programs(programs)
        return programs


class ScheduledAlltoallv:
    """Contention-free phased alltoallv with pair-wise synchronization."""

    name = "scheduled-alltoallv"

    def __init__(self, *, balance: float = 2.0, sync: bool = True) -> None:
        self.balance = balance
        self.sync = sync

    @gc_paused()
    def build_programs(
        self, topology: Topology, sizes: SizeMap
    ) -> Dict[str, Program]:
        result = schedule_irregular(topology, sizes, balance=self.balance)
        verify_irregular(result)
        schedule = result.schedule
        plan = build_sync_plan(schedule) if self.sync else None
        return build_programs(
            schedule,
            plan,
            sync_mode="pairwise" if self.sync else "none",
            sizes=result.sizes,
        )
