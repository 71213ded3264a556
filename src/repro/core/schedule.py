"""Phase/schedule containers produced by the scheduling pipeline.

A :class:`PhasedSchedule` is the end product of Section 4: an ordered
list of phases, each holding the contention-free messages executed in
that phase, together with the topology and root decomposition that
produced it.  It also distinguishes *global* messages (crossing the
root) from *local* ones (within a subtree), which the reporting and
ablation code cares about.  :meth:`PhasedSchedule.table` gives the
same messages as integer arrays (:mod:`repro.core.message_table`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import SchedulingError
from repro.core.message_table import MessageTable, build_message_table
from repro.core.pattern import Message
from repro.core.root import RootInfo
from repro.topology.graph import Topology


class MessageKind(enum.Enum):
    """Whether a scheduled message crosses the root or stays local."""

    GLOBAL = "global"
    LOCAL = "local"


@dataclass(frozen=True)
class ScheduledMessage:
    """A message pinned to a phase.

    ``group`` is the subtree pair ``(i, j)`` for global messages, or
    ``(i, i)`` for a local message inside subtree ``i``; ``(-1, -1)``
    when no root decomposition applies (trivial clusters, baselines).
    """

    message: Message
    phase: int
    kind: MessageKind
    group: Tuple[int, int] = (-1, -1)

    @property
    def src(self) -> str:
        return self.message.src

    @property
    def dst(self) -> str:
        return self.message.dst

    def __str__(self) -> str:
        tag = "G" if self.kind is MessageKind.GLOBAL else "L"
        return f"[{self.phase}:{tag}] {self.message}"


class PhasedSchedule:
    """An ordered sequence of contention-free phases realising a pattern."""

    def __init__(
        self,
        topology: Topology,
        num_phases: int,
        root_info: Optional[RootInfo] = None,
    ) -> None:
        if num_phases < 0:
            raise SchedulingError("phase count must be non-negative")
        self.topology = topology
        self.root_info = root_info
        self._phases: List[List[ScheduledMessage]] = [
            [] for _ in range(num_phases)
        ]
        self._by_message: Dict[Message, ScheduledMessage] = {}
        self._table: Optional[MessageTable] = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add(
        self,
        phase: int,
        message: Message,
        kind: MessageKind,
        group: Tuple[int, int] = (-1, -1),
    ) -> ScheduledMessage:
        """Pin *message* to *phase*; a message may be scheduled only once."""
        if not 0 <= phase < len(self._phases):
            raise SchedulingError(
                f"phase {phase} out of range [0, {len(self._phases)})"
            )
        if message in self._by_message:
            prev = self._by_message[message]
            raise SchedulingError(
                f"message {message} already scheduled in phase {prev.phase}"
            )
        sm = ScheduledMessage(message, phase, kind, group)
        self._phases[phase].append(sm)
        self._by_message[message] = sm
        self._table = None
        return sm

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def num_phases(self) -> int:
        return len(self._phases)

    def phase(self, p: int) -> Sequence[ScheduledMessage]:
        """Messages of phase *p* in insertion order."""
        return tuple(self._phases[p])

    def phases(self) -> Iterator[Sequence[ScheduledMessage]]:
        for p in range(len(self._phases)):
            yield self.phase(p)

    def all_messages(self) -> List[ScheduledMessage]:
        """Every scheduled message, in (phase, insertion) order."""
        return [sm for phase in self._phases for sm in phase]

    def __len__(self) -> int:
        return len(self._by_message)

    def table(self) -> MessageTable:
        """The messages as integer arrays, in :meth:`all_messages` order.

        Built on first use and kept until the next :meth:`add`.
        """
        if self._table is None:
            self._table = build_message_table(self.topology, self._phases)
        return self._table

    def lookup(self, message: Message) -> ScheduledMessage:
        """Where a message was scheduled."""
        try:
            return self._by_message[message]
        except KeyError:
            raise SchedulingError(f"message {message} is not scheduled") from None

    def phase_of(self, message: Message) -> int:
        return self.lookup(message).phase

    def globals_in(self, p: int) -> List[ScheduledMessage]:
        return [m for m in self._phases[p] if m.kind is MessageKind.GLOBAL]

    def locals_in(self, p: int) -> List[ScheduledMessage]:
        return [m for m in self._phases[p] if m.kind is MessageKind.LOCAL]

    # ------------------------------------------------------------------
    def render(self) -> str:
        """ASCII table in the style of the paper's Table 4."""
        lines = []
        width = max(
            (len(str(m.message)) for m in self._by_message.values()), default=8
        )
        for p, phase in enumerate(self.phases()):
            cells = []
            for sm in sorted(phase, key=lambda m: (m.kind.value, m.group)):
                tag = "G" if sm.kind is MessageKind.GLOBAL else "L"
                cells.append(f"{tag}:{str(sm.message):<{width}}")
            lines.append(f"phase {p:>3} | " + "  ".join(cells))
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PhasedSchedule(phases={self.num_phases}, "
            f"messages={len(self._by_message)})"
        )
