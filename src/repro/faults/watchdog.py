"""No-progress watchdog: diagnose stalls instead of hanging.

A run that loses a synchronization message (or a whole link) does not
crash — it silently stops making progress while simulated time keeps
ticking.  The :class:`StallWatchdog` runs as a recurring engine event:
whenever nothing has progressed for ``stall_timeout`` simulated seconds
— no rank completed an operation, no flow finished, and no in-flight
flow moves bytes — it builds a :class:`StallDiagnosis` — which ranks are
blocked on what (phase, operation, peer), which pair-wise sync edges are
pending or abandoned, and which declared faults plausibly caused it —
and aborts the run with :class:`~repro.errors.StallError` carrying that
diagnosis.  The resilient runtime (:mod:`repro.faults.runtime`) catches
it and falls back; the chaos CLI serialises it as a JSON artifact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple


@dataclass(frozen=True)
class BlockedRank:
    """One rank that is parked mid-program."""

    rank: str
    op_index: int
    kind: str
    peer: str
    tag: int
    phase: int
    #: Simulated time at which the rank got stuck on this op.
    since: float

    def describe(self) -> str:
        peer = f" peer={self.peer}" if self.peer else ""
        return (
            f"{self.rank}: op[{self.op_index}] {self.kind}{peer} "
            f"tag={self.tag} phase={self.phase} (blocked since {self.since:.6f}s)"
        )


@dataclass(frozen=True)
class PendingSyncEdge:
    """A pair-wise sync message that never (or not yet) arrived."""

    src: str
    dst: str
    tag: int
    phase: int
    #: "in-flight" | "abandoned" | "unmatched"
    state: str
    attempts: int = 0
    #: The failed link dropping it, when one is active on the path.
    blocked_edge: Optional[tuple] = None

    def describe(self) -> str:
        extra = f" after {self.attempts} attempt(s)" if self.attempts else ""
        via = (
            f" [dropped on failed link {self.blocked_edge[0]}->"
            f"{self.blocked_edge[1]}]"
            if self.blocked_edge
            else ""
        )
        return (
            f"sync {self.src}->{self.dst} tag={self.tag} phase={self.phase}: "
            f"{self.state}{extra}{via}"
        )


@dataclass
class StallDiagnosis:
    """Why a run stopped making progress."""

    time: float
    blocked: List[BlockedRank] = field(default_factory=list)
    pending_syncs: List[PendingSyncEdge] = field(default_factory=list)
    crashed_ranks: List[str] = field(default_factory=list)
    active_faults: List[str] = field(default_factory=list)
    suspected_cause: str = "unknown"
    #: (origin, destination) pairs whose block was already delivered
    #: when the run stalled — the complement is the residual pair set
    #: schedule repair re-partitions for a mid-run resume.
    completed_pairs: List[Tuple[str, str]] = field(default_factory=list)

    @property
    def blocked_phases(self) -> List[int]:
        """Schedule phases with at least one blocked rank, sorted."""
        return sorted({b.phase for b in self.blocked if b.phase >= 0})

    def summary(self) -> str:
        lines = [
            f"stall at t={self.time:.6f}s: {len(self.blocked)} rank(s) "
            f"blocked in phase(s) {self.blocked_phases or ['?']}",
            f"suspected cause: {self.suspected_cause}",
        ]
        for b in self.blocked[:8]:
            lines.append("  " + b.describe())
        for s in self.pending_syncs[:8]:
            lines.append("  " + s.describe())
        if self.crashed_ranks:
            lines.append(f"  crashed ranks: {self.crashed_ranks}")
        for f in self.active_faults[:8]:
            lines.append(f"  active fault: {f}")
        return "\n".join(lines)

    def as_dict(self) -> Dict[str, object]:
        return {
            "time": self.time,
            "suspected_cause": self.suspected_cause,
            "blocked_phases": self.blocked_phases,
            "blocked": [
                {
                    "rank": b.rank,
                    "op_index": b.op_index,
                    "kind": b.kind,
                    "peer": b.peer,
                    "tag": b.tag,
                    "phase": b.phase,
                    "since": b.since,
                }
                for b in self.blocked
            ],
            "pending_syncs": [
                {
                    "src": s.src,
                    "dst": s.dst,
                    "tag": s.tag,
                    "phase": s.phase,
                    "state": s.state,
                    "attempts": s.attempts,
                    "blocked_edge": list(s.blocked_edge) if s.blocked_edge else None,
                }
                for s in self.pending_syncs
            ],
            "crashed_ranks": list(self.crashed_ranks),
            "active_faults": list(self.active_faults),
            "completed_pairs": [list(p) for p in self.completed_pairs],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "StallDiagnosis":
        """Rebuild a diagnosis from its :meth:`as_dict` JSON form.

        Inverse of :meth:`as_dict` (the ``--diagnosis-out`` artifact):
        ``StallDiagnosis.from_dict(d.as_dict()) == d``.
        """
        blocked = [
            BlockedRank(
                rank=str(b["rank"]),
                op_index=int(b["op_index"]),
                kind=str(b["kind"]),
                peer=str(b["peer"]),
                tag=int(b["tag"]),
                phase=int(b["phase"]),
                since=float(b["since"]),
            )
            for b in data.get("blocked", [])
        ]
        pending = [
            PendingSyncEdge(
                src=str(s["src"]),
                dst=str(s["dst"]),
                tag=int(s["tag"]),
                phase=int(s["phase"]),
                state=str(s["state"]),
                attempts=int(s.get("attempts", 0)),
                blocked_edge=(
                    tuple(s["blocked_edge"]) if s.get("blocked_edge") else None
                ),
            )
            for s in data.get("pending_syncs", [])
        ]
        return cls(
            time=float(data["time"]),
            blocked=blocked,
            pending_syncs=pending,
            crashed_ranks=[str(r) for r in data.get("crashed_ranks", [])],
            active_faults=[str(f) for f in data.get("active_faults", [])],
            suspected_cause=str(data.get("suspected_cause", "unknown")),
            completed_pairs=[
                (str(p[0]), str(p[1]))
                for p in data.get("completed_pairs", [])
            ],
        )


@dataclass(frozen=True)
class WatchdogConfig:
    """When to declare a stall, in simulated seconds."""

    #: No progress for this long = stalled.
    stall_timeout: float = 0.25
    #: How often the watchdog wakes up to check.
    check_interval: float = 0.05

    def __post_init__(self) -> None:
        if self.stall_timeout <= 0 or self.check_interval <= 0:
            raise ValueError("watchdog times must be positive")


class StallWatchdog:
    """Recurring engine event that aborts no-progress runs with a diagnosis.

    *progress* is a callable returning a monotonically increasing count
    of completed work (operations and finished flows); *moving* reports
    whether work that has not completed yet is under way (an in-flight
    flow with a positive rate), which also counts as progress;
    *diagnose* builds the :class:`StallDiagnosis` at abort
    time; *all_done* reports whether the run finished (the watchdog then
    stops rescheduling itself so the event heap can drain).
    """

    def __init__(
        self,
        engine,
        config: WatchdogConfig,
        *,
        progress: Callable[[], int],
        moving: Callable[[], bool],
        diagnose: Callable[[float], StallDiagnosis],
        all_done: Callable[[], bool],
    ) -> None:
        self.engine = engine
        self.config = config
        self._progress = progress
        self._moving = moving
        self._diagnose = diagnose
        self._all_done = all_done
        self._last_count = progress()
        self._last_change = engine.now
        self._stopped = False
        self.fired: Optional[StallDiagnosis] = None

    def start(self) -> None:
        self.engine.schedule(self.config.check_interval, self._check)

    def stop(self) -> None:
        self._stopped = True

    def _check(self) -> None:
        from repro.errors import StallError

        if self._stopped or self._all_done():
            return
        now = self.engine.now
        count = self._progress()
        if count != self._last_count or self._moving():
            self._last_count = count
            self._last_change = now
        elif now - self._last_change >= self.config.stall_timeout:
            diagnosis = self._diagnose(now)
            self.fired = diagnosis
            raise StallError(
                f"no progress for {now - self._last_change:.6f}s "
                f"(simulated); {diagnosis.summary()}",
                diagnosis,
            )
        self.engine.schedule(self.config.check_interval, self._check)
