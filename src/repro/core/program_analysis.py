"""Static contention analysis of per-rank programs.

Before ever running the simulator, a program set can be analysed
structurally: which data messages it posts per phase, how many times a
directed edge is used concurrently within a phase, and the total bytes
each edge must carry.  This is how the paper reasons about algorithms
("MPICH ... do[es] not consider the contention in the network links")
and it gives library users an instant, simulation-free diagnosis of an
algorithm/topology pairing.

The per-phase view buckets each data op under its *effective round*
(:func:`repro.core.program.effective_round`): the explicit ``phase``
when the algorithm stamps one, else a synthetic round derived from the
op's data tag — the same key the flow collector stamps on observed
:class:`~repro.obs.link_metrics.FlowRecord`\\ s, so the phase observatory
can join predictions with measurements.  The byte totals are exact
regardless of phasing.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.obs.metrics_registry import add_counters, pipeline_span
from repro.core.program import OpKind, Program, effective_round
from repro.topology.graph import Edge, Topology
from repro.topology.paths import PathOracle


@dataclass
class ContentionReport:
    """Structural summary of a program set on a topology."""

    #: messages per phase: phase -> [(src, dst, nbytes)]
    phase_messages: Dict[int, List[Tuple[str, str, int]]]
    #: worst per-phase concurrent use of any directed edge
    max_phase_edge_concurrency: int
    #: the (phase, edge, count) witnesses of the worst concurrency
    hotspots: List[Tuple[int, Edge, int]]
    #: total bytes each directed edge carries over the whole program
    edge_bytes: Dict[Edge, int]
    #: messages per (phase, directed edge): the static per-phase load
    phase_edge_messages: Dict[Tuple[int, Edge], int]
    #: bytes per (phase, directed edge)
    phase_edge_bytes: Dict[Tuple[int, Edge], float]

    @property
    def num_phases(self) -> int:
        return len(self.phase_messages)

    @property
    def total_bytes(self) -> int:
        """Bytes injected at sources (each message counted once)."""
        return sum(
            nbytes
            for msgs in self.phase_messages.values()
            for (_s, _d, nbytes) in msgs
        )

    def busiest_edges(self, top: int = 5) -> List[Tuple[Edge, int]]:
        """The *top* directed edges by total bytes."""
        ranked = sorted(self.edge_bytes.items(), key=lambda kv: -kv[1])
        return ranked[:top]

    def render(self) -> str:
        lines = [
            f"phases: {self.num_phases}   "
            f"max per-phase edge concurrency: {self.max_phase_edge_concurrency}",
            f"total bytes injected: {self.total_bytes}",
            "busiest links (total bytes):",
        ]
        for edge, nbytes in self.busiest_edges():
            lines.append(f"  {edge[0]} -> {edge[1]}: {nbytes}")
        if self.max_phase_edge_concurrency > 1:
            lines.append("hotspots (phase, edge, concurrent messages):")
            for phase, edge, count in self.hotspots[:5]:
                lines.append(
                    f"  phase {phase}: {edge[0]} -> {edge[1]} x{count}"
                )
        return "\n".join(lines)


def analyze_programs(
    topology: Topology,
    programs: Dict[str, Program],
    msize: int,
) -> ContentionReport:
    """Build a :class:`ContentionReport` for a program set."""
    with pipeline_span("program_analysis"):
        oracle = PathOracle(topology)
        phase_messages: Dict[int, List[Tuple[str, str, int]]] = {}
        edge_bytes: Dict[Edge, int] = {}
        phase_edge_messages: Dict[Tuple[int, Edge], int] = Counter()
        phase_edge_bytes: Dict[Tuple[int, Edge], float] = defaultdict(float)
        for rank, program in programs.items():
            for op in program.ops:
                if op.kind not in (OpKind.ISEND, OpKind.SEND):
                    continue
                nbytes = op.wire_size(msize)
                # Bucket under the same effective round the flow
                # collector stamps on FlowRecords, so predicted and
                # observed per-phase loads join on one key even for
                # unphased algorithms (collectives, alltoallv).
                phase = effective_round(op.phase, op.tag)
                phase_messages.setdefault(phase, []).append(
                    (rank, op.peer, nbytes)
                )
                for edge in oracle.path_edges(rank, op.peer):
                    edge_bytes[edge] = edge_bytes.get(edge, 0) + nbytes
                    phase_edge_messages[phase, edge] += 1
                    phase_edge_bytes[phase, edge] += nbytes

        worst = max(phase_edge_messages.values(), default=0)
        # Phase by phase; within one, in the order the op walk first
        # loaded each edge (the sort is stable).
        hotspots = sorted(
            (
                (phase, edge, count)
                for (phase, edge), count in phase_edge_messages.items()
                if count == worst > 1
            ),
            key=lambda hotspot: hotspot[0],
        )
        add_counters(
            phases=len(phase_messages),
            edges=len(edge_bytes),
            max_edge_concurrency=worst,
        )
        return ContentionReport(
            phase_messages=phase_messages,
            max_phase_edge_concurrency=worst,
            hotspots=hotspots,
            edge_bytes=edge_bytes,
            phase_edge_messages=phase_edge_messages,
            phase_edge_bytes=phase_edge_bytes,
        )
