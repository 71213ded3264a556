"""Runtime realisation of a :class:`~repro.faults.plan.FaultPlan`.

The :class:`FaultInjector` answers the questions the simulator layers
ask *during* a run — each one about a moment or a random draw:

* :meth:`link_factor` — bandwidth multiplier of a directed edge *now*
  (the network multiplies effective capacity by it at every settle);
* :meth:`path_control_blocked` — is a control (sync) message crossing a
  *failed* link right now (dropped regardless of sync-fault draws);
* :meth:`sync_fate` — per transmission attempt, draw loss / delay /
  duplication from the plan's seeded RNG;
* :meth:`overhead_factor` / :meth:`crash_time` — host stragglers and
  rank crashes for the executor;
* :meth:`active_faults` — what is broken at a moment, for stall
  diagnoses.

Questions that do not depend on the time — dead links, capacity
floors, links that fail for good, sync blackouts — are asked of the
plan itself (:class:`~repro.faults.plan.FaultPlan` and
:class:`~repro.faults.plan.PathDamage`).

All draws come from one ``random.Random`` seeded from the plan seed and
the run seed, in deterministic call order, so two runs with identical
(plan, params) are byte-identical.  The injector also publishes every
declared fault window to the obs bus at attach time and counts what it
did (:attr:`FaultStats`), which ends up in telemetry and the chaos
report.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.faults.events import FaultWindow, SyncDisrupted
from repro.faults.plan import FOREVER, FaultPlan, LinkFault
from repro.topology.graph import Edge, Topology
from repro.topology.paths import PathOracle

#: Fates a sync transmission attempt can meet.
DELIVER = "deliver"
DROP = "drop"
DUPLICATE = "duplicate"


@dataclass
class FaultStats:
    """What the injector actually did to one run."""

    syncs_dropped: int = 0
    syncs_delayed: int = 0
    syncs_duplicated: int = 0
    syncs_link_dropped: int = 0
    sync_retransmits: int = 0
    syncs_abandoned: int = 0
    ranks_crashed: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "syncs_dropped": self.syncs_dropped,
            "syncs_delayed": self.syncs_delayed,
            "syncs_duplicated": self.syncs_duplicated,
            "syncs_link_dropped": self.syncs_link_dropped,
            "sync_retransmits": self.sync_retransmits,
            "syncs_abandoned": self.syncs_abandoned,
            "ranks_crashed": self.ranks_crashed,
        }


class FaultInjector:
    """Seeded oracle for "what is broken at time *t*?"."""

    def __init__(
        self,
        plan: FaultPlan,
        topology: Topology,
        *,
        rng: Optional[random.Random] = None,
        bus=None,
    ) -> None:
        """*topology* is the cluster the plan runs on; link faults are
        looked up along its unique paths.  *rng* defaults to a fresh
        stream seeded from the plan seed alone."""
        self.plan = plan
        self.rng = rng if rng is not None else random.Random(plan.seed)
        self.oracle = PathOracle(topology)
        self.bus = bus
        self.stats = FaultStats()
        #: Per undirected link: its fault windows (both edge directions).
        self._link_faults: Dict[Edge, List[LinkFault]] = {}
        for lf in plan.link_faults:
            u, v = lf.link
            self._link_faults.setdefault((u, v), []).append(lf)
            self._link_faults.setdefault((v, u), []).append(lf)
        self._crash_time: Dict[str, float] = {}
        for cr in plan.crashes:
            t = self._crash_time.get(cr.rank)
            self._crash_time[cr.rank] = cr.time if t is None else min(t, cr.time)
        self._published = False

    # ------------------------------------------------------------------
    # obs integration
    # ------------------------------------------------------------------
    def publish_windows(self) -> None:
        """Announce every declared fault window on the bus (idempotent)."""
        if self.bus is None or self._published:
            return
        self._published = True

        def end(v: float) -> Optional[float]:
            return None if v == FOREVER else v

        for lf in self.plan.link_faults:
            self.bus.publish(
                FaultWindow(
                    lf.start,
                    end(lf.end),
                    "link-failed" if lf.failed else "link-degraded",
                    f"{lf.link[0]}<->{lf.link[1]}",
                    (
                        f"residual {lf.residual:g}"
                        if lf.failed
                        else f"factor {lf.factor:g}"
                    ),
                )
            )
        for st in self.plan.stragglers:
            self.bus.publish(
                FaultWindow(
                    st.start, end(st.end), "straggler", st.rank,
                    f"x{st.factor:g} overheads",
                )
            )
        for sf in self.plan.sync_faults:
            target = f"{sf.src or '*'}->{sf.dst or '*'}"
            self.bus.publish(
                FaultWindow(
                    sf.start, end(sf.end), "sync-fault", target,
                    f"loss {sf.loss:g} delay_p {sf.delay_prob:g} "
                    f"dup {sf.duplicate:g}",
                )
            )
        for cr in self.plan.crashes:
            self.bus.publish(
                FaultWindow(cr.time, cr.time, "crash", cr.rank)
            )

    # ------------------------------------------------------------------
    # link state
    # ------------------------------------------------------------------
    def link_factor(self, edge: Edge, time: float) -> float:
        """Bandwidth multiplier of directed *edge* at *time* (1.0 = healthy)."""
        faults = self._link_faults.get(edge)
        if not faults:
            return 1.0
        factor = 1.0
        for lf in faults:
            if lf.active(time):
                factor = min(factor, lf.bandwidth_factor)
        return factor

    def _edge_control_blocked(self, edge: Edge, time: float) -> bool:
        faults = self._link_faults.get(edge)
        if not faults:
            return False
        return any(lf.failed and lf.active(time) for lf in faults)

    def path_control_blocked(
        self, src: str, dst: str, time: float
    ) -> Optional[Edge]:
        """First *failed* edge on the src→dst path at *time*, if any.

        Control messages (the zero-byte syncs) crossing a failed link
        are dropped outright — they have no transport-level retransmit
        of their own; recovery is the resilience layer's job.
        """
        if not self._link_faults:
            return None
        for edge in self.oracle.path_edges(src, dst):
            if self._edge_control_blocked(edge, time):
                return edge
        return None

    # ------------------------------------------------------------------
    # sync message fates
    # ------------------------------------------------------------------
    def sync_fate(
        self, src: str, dst: str, tag: int, time: float, attempt: int
    ) -> Tuple[str, float]:
        """Decide one transmission attempt's fate: ``(fate, extra_delay)``.

        ``fate`` is :data:`DELIVER`, :data:`DROP` or :data:`DUPLICATE`
        (duplicate implies delivery of both copies); *extra_delay* adds
        to the sync latency on delivery.
        """
        blocked = self.path_control_blocked(src, dst, time)
        if blocked is not None:
            self.stats.syncs_link_dropped += 1
            self._disrupted(time, src, dst, tag, "link-drop", attempt)
            return DROP, 0.0
        fate = DELIVER
        delay = 0.0
        for sf in self.plan.sync_faults:
            if not sf.applies(src, dst, time):
                continue
            if sf.loss > 0 and self.rng.random() < sf.loss:
                self.stats.syncs_dropped += 1
                self._disrupted(time, src, dst, tag, "drop", attempt)
                return DROP, 0.0
            if sf.delay_prob > 0 and self.rng.random() < sf.delay_prob:
                extra = (
                    self.rng.expovariate(1.0 / sf.delay_mean)
                    if sf.delay_mean > 0
                    else 0.0
                )
                delay += extra
                self.stats.syncs_delayed += 1
                self._disrupted(time, src, dst, tag, "delay", attempt, extra)
            if sf.duplicate > 0 and self.rng.random() < sf.duplicate:
                self.stats.syncs_duplicated += 1
                self._disrupted(time, src, dst, tag, "duplicate", attempt)
                fate = DUPLICATE
        return fate, delay

    def _disrupted(
        self,
        time: float,
        src: str,
        dst: str,
        tag: int,
        what: str,
        attempt: int,
        delay: float = 0.0,
    ) -> None:
        if self.bus is not None:
            self.bus.publish(
                SyncDisrupted(time, src, dst, tag, what, attempt, delay)
            )

    # ------------------------------------------------------------------
    # hosts
    # ------------------------------------------------------------------
    def overhead_factor(self, rank: str, time: float) -> float:
        """Straggler multiplier on *rank*'s software overheads at *time*."""
        factor = 1.0
        for st in self.plan.stragglers:
            if st.rank == rank and st.active(time):
                factor *= st.factor
        return factor

    def crash_time(self, rank: str) -> Optional[float]:
        return self._crash_time.get(rank)

    def active_faults(self, time: float) -> List[str]:
        """Human-readable list of faults active at *time* (diagnostics)."""
        out: List[str] = []
        for lf in self.plan.link_faults:
            if lf.active(time):
                kind = "FAILED" if lf.failed else f"degraded x{lf.factor:g}"
                out.append(f"link {lf.link[0]}<->{lf.link[1]} {kind}")
        for st in self.plan.stragglers:
            if st.active(time):
                out.append(f"straggler {st.rank} x{st.factor:g}")
        for sf in self.plan.sync_faults:
            if sf.active(time):
                out.append(
                    f"sync-fault {sf.src or '*'}->{sf.dst or '*'} "
                    f"loss={sf.loss:g}"
                )
        for cr in self.plan.crashes:
            if cr.time <= time:
                out.append(f"rank {cr.rank} crashed at {cr.time:g}s")
        return out
