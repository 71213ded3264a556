"""The paper's generated, topology-aware MPI_Alltoall.

Wraps the full pipeline — root identification, extended-ring global
scheduling, six-step assignment, pair-wise synchronization planning —
into an :class:`~repro.algorithms.base.AlltoallAlgorithm` so it plugs
into the same harness as the baselines.

``sync_mode`` selects the inter-phase discipline:

* ``"pairwise"`` (default) — the paper's scheme;
* ``"barrier"`` — a barrier between phases (the costly alternative
  Section 5 rejects);
* ``"none"`` — phases with no synchronization (what the paper calls
  "without the synchronizations, a limited form of node contention
  exists").
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.algorithms.base import AlltoallAlgorithm
from repro.core.program import Program, build_programs
from repro.core.schedule import PhasedSchedule
from repro.core.scheduler import schedule_aapc
from repro.core.synchronization import SyncPlan, build_sync_plan
from repro.sim.engine import gc_paused
from repro.topology.graph import Topology


class GeneratedAlltoall(AlltoallAlgorithm):
    """Contention-free phased all-to-all with pair-wise synchronization."""

    def __init__(
        self,
        *,
        sync_mode: str = "pairwise",
        root: Optional[str] = None,
        remove_redundant_syncs: bool = True,
    ) -> None:
        self.sync_mode = sync_mode
        self.root = root
        self.remove_redundant_syncs = remove_redundant_syncs
        if sync_mode != "pairwise":
            self.name = f"generated-{sync_mode}"
        elif not remove_redundant_syncs:
            self.name = "generated-allsyncs"
        else:
            self.name = "generated"
        # Cached artifacts of the last build (inspectable by callers).
        self.last_schedule: Optional[PhasedSchedule] = None
        self.last_sync_plan: Optional[SyncPlan] = None

    def build_schedule(self, topology: Topology) -> PhasedSchedule:
        """The verified phased schedule alone (message size independent)."""
        return schedule_aapc(topology, root=self.root)

    @gc_paused()
    def build_programs(self, topology: Topology, msize: int) -> Dict[str, Program]:
        schedule = self.build_schedule(topology)
        plan: Optional[SyncPlan] = None
        if self.sync_mode == "pairwise":
            plan = build_sync_plan(
                schedule, remove_redundant=self.remove_redundant_syncs
            )
        self.last_schedule = schedule
        self.last_sync_plan = plan
        return build_programs(schedule, plan, sync_mode=self.sync_mode)

    def describe(self, topology: Topology, msize: int) -> str:
        return f"{self.name}(root={self.root or 'auto'})"
