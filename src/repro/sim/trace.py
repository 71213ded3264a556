"""Execution tracing for simulator runs.

A :class:`Trace` collects timestamped records — operation begin/end per
rank, flow lifetimes — so tests can assert on ordering (e.g. "the sync
message really delayed the conflicting send") and the examples can
print per-phase timelines.

Memory behaviour: by default the record list is **unbounded** (a full
AAPC trace is a few records per operation, small for the paper's
topologies).  For long-running or production-scale use pass
``max_records`` to turn the store into a ring buffer that keeps only
the most recent records — the flight-recorder discipline — with
:attr:`Trace.dropped` counting evictions.  An executor run that is
not observed leaves its trace unattached, so tracing costs nothing
when off.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, List, Optional, Union


@dataclass(frozen=True)
class TraceRecord:
    """One traced occurrence."""

    time: float
    rank: str
    what: str  # e.g. "post_isend", "complete_recv", "barrier"
    peer: str = ""
    tag: int = 0
    phase: int = -1


@dataclass
class Trace:
    """An append-only record store with simple queries.

    Records may be appended directly (:meth:`add`), or the trace can be
    subscribed to an :class:`~repro.obs.bus.EventBus` that carries
    :class:`TraceRecord` events (:meth:`attach`) — the executor uses
    the bus route so every consumer sees the same stream.
    """

    #: Ring-buffer capacity; ``None`` (the default) keeps every record.
    max_records: Optional[int] = None
    records: Union[List[TraceRecord], Deque[TraceRecord]] = field(
        default_factory=list
    )
    #: Records evicted by the ring buffer (0 when unbounded).
    dropped: int = 0

    def __post_init__(self) -> None:
        if self.max_records is not None:
            if self.max_records <= 0:
                raise ValueError("max_records must be positive")
            self.records = deque(self.records, maxlen=self.max_records)

    # ------------------------------------------------------------------
    # appending
    # ------------------------------------------------------------------
    def add(
        self,
        time: float,
        rank: str,
        what: str,
        peer: str = "",
        tag: int = 0,
        phase: int = -1,
    ) -> None:
        self.ingest(TraceRecord(time, rank, what, peer, tag, phase))

    def ingest(self, record: TraceRecord) -> None:
        """Append an already-built record (the bus-subscriber path)."""
        if (
            self.max_records is not None
            and len(self.records) == self.max_records
        ):
            self.dropped += 1
        self.records.append(record)

    def attach(self, bus) -> None:
        """Subscribe this trace to *bus*'s :class:`TraceRecord` events."""
        bus.subscribe(TraceRecord, self.ingest)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def of_rank(self, rank: str) -> List[TraceRecord]:
        return [r for r in self.records if r.rank == rank]

    def of_kind(self, what: str) -> List[TraceRecord]:
        return [r for r in self.records if r.what == what]

    def of_phase(self, phase: int) -> List[TraceRecord]:
        """Records tagged with schedule *phase* (in append order)."""
        return [r for r in self.records if r.phase == phase]

    def between(self, t0: float, t1: float) -> List[TraceRecord]:
        """Records with ``t0 <= time <= t1`` (both ends inclusive)."""
        return [r for r in self.records if t0 <= r.time <= t1]

    def first(self, rank: str, what: str, tag: Optional[int] = None) -> Optional[TraceRecord]:
        for r in self.records:
            if r.rank == rank and r.what == what and (tag is None or r.tag == tag):
                return r
        return None

    def __len__(self) -> int:
        return len(self.records)
