"""The Bruck all-to-all algorithm (MPICH's small-message choice).

Bruck's algorithm trades bandwidth for latency: ``ceil(log2 N)``
communication steps, each moving about half of every rank's blocks to a
rank ``2^k`` away, with forwarding.  MPICH uses it for ``msize <= 256``
where per-message latency dominates.

The implementation simulates the slot dance at construction time so
every message op carries the exact logical blocks it forwards; the
executor's delivery check then proves correctness end to end:

1. *Local rotation* — rank ``i``'s slot ``j`` holds its block for rank
   ``(i + j) mod N``.
2. *log-step exchange* — at step ``k`` each rank sends the contents of
   every slot whose index has bit ``k`` set to rank ``(i + 2^k) mod N``
   and receives the matching slots from ``(i - 2^k) mod N``.
3. After the last step, slot ``j`` holds the block from rank
   ``(i - j) mod N`` destined to ``i`` (the inverse rotation is a local
   copy and costs no communication).
"""

from __future__ import annotations

from typing import Dict, List

from repro.algorithms.base import AlltoallAlgorithm
from repro.core.program import Block, Op, OpKind, Program, validate_programs
from repro.sim.engine import gc_paused
from repro.topology.graph import Topology


class BruckAlltoall(AlltoallAlgorithm):
    """Log-step store-and-forward all-to-all."""

    name = "bruck"

    @gc_paused()
    def build_programs(self, topology: Topology, msize: int) -> Dict[str, Program]:
        machines = topology.machines
        n = len(machines)
        programs: Dict[str, Program] = {m: Program(m) for m in machines}
        if n == 1:
            return programs

        # slots[i][j]: block currently held by rank i in slot j.
        slots: List[List[Block]] = [
            [(machines[i], machines[(i + j) % n]) for j in range(n)]
            for i in range(n)
        ]

        step = 0
        pof2 = 1
        while pof2 < n:
            send_slots = [j for j in range(1, n) if j & pof2]
            new_slots = [row[:] for row in slots]
            for i in range(n):
                to = (i + pof2) % n
                frm = (i - pof2) % n
                blocks = tuple(slots[i][j] for j in send_slots)
                programs[machines[i]].append(
                    Op(
                        OpKind.IRECV,
                        peer=machines[frm],
                        tag=step,
                        phase=step,
                    )
                )
                programs[machines[i]].append(
                    Op(
                        OpKind.ISEND,
                        peer=machines[to],
                        tag=step,
                        blocks=blocks,
                        phase=step,
                    )
                )
                programs[machines[i]].append(Op(OpKind.WAITALL, phase=step))
                for j in send_slots:
                    new_slots[i][j] = slots[frm][j]
            slots = new_slots
            pof2 *= 2
            step += 1

        # Final state check: slot j of rank i must hold ((i - j) mod N, i).
        for i in range(n):
            for j in range(1, n):
                expected = (machines[(i - j) % n], machines[i])
                if slots[i][j] != expected:
                    raise AssertionError(
                        f"Bruck construction bug: rank {machines[i]} slot {j} "
                        f"holds {slots[i][j]}, expected {expected}"
                    )
        validate_programs(programs)
        return programs
