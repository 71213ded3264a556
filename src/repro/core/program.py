"""Per-rank communication programs (the generated routine's IR).

A :class:`Program` is the straight-line sequence of point-to-point
operations one rank executes — the intermediate form between a
:class:`~repro.core.schedule.PhasedSchedule` plus
:class:`~repro.core.synchronization.SyncPlan` and either (a) the C code
emitted by :mod:`repro.core.codegen` or (b) execution on the simulator
(:mod:`repro.sim.executor`).  The baseline algorithms in
:mod:`repro.algorithms` build programs directly.

Operation semantics:

* ``ISEND`` / ``IRECV`` post non-blocking transfers; ``WAITALL``
  completes every outstanding request of the rank.
* ``SEND`` / ``RECV`` are their blocking forms.
* ``SYNC_SEND`` / ``SYNC_RECV`` move the zero-byte pair-wise
  synchronization messages of Section 5 (latency-only).
* ``BARRIER`` is a full barrier, used by the ablation that compares
  pair-wise synchronization against barrier-separated phases.

Data correctness is tracked by *blocks*: each data operation names the
logical ``(origin, destination)`` AAPC blocks it carries (a forwarding
algorithm like Bruck sends many blocks per message), and the executor
checks every rank ends up holding exactly the blocks addressed to it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ProgramError
from repro.obs.metrics_registry import add_counters, pipeline_span
from repro.core.schedule import PhasedSchedule
from repro.core.synchronization import SyncPlan

#: A logical AAPC block: (origin machine, final destination machine).
Block = Tuple[str, str]

#: Tag namespace offset for synchronization messages.
SYNC_TAG_BASE = 1_000_000


def effective_round(phase: int, tag: int) -> int:
    """The audit round of a data message: its phase, else its tag.

    Phased algorithms stamp ops with an explicit ``phase``; collectives
    and irregular patterns leave ``phase = -1`` but step their ``tag``
    per round, so the tag is a faithful synthetic round index.  Sync
    tags (``>= SYNC_TAG_BASE``) never name a round: those messages stay
    in the unknown bucket (-1), as does anything with no usable index.
    Static analysis and the flow collector both bucket through this
    helper so predicted and observed loads join on the same key.
    """
    if phase >= 0:
        return phase
    if 0 <= tag < SYNC_TAG_BASE:
        return tag
    return -1


class OpKind(enum.Enum):
    ISEND = "isend"
    IRECV = "irecv"
    SEND = "send"
    RECV = "recv"
    WAITALL = "waitall"
    SYNC_SEND = "sync_send"
    SYNC_RECV = "sync_recv"
    BARRIER = "barrier"


@dataclass(frozen=True)
class Op:
    """One operation in a rank's program.

    ``peer`` is the other endpoint's machine name (unused for WAITALL /
    BARRIER).  ``tag`` disambiguates concurrent transfers between the
    same pair.  ``blocks`` lists the logical payload; its length times
    the per-block message size gives the wire size.  ``phase`` records
    the schedule phase the op belongs to (-1 when not applicable) for
    tracing and reporting.
    """

    kind: OpKind
    peer: str = ""
    tag: int = 0
    blocks: Tuple[Block, ...] = ()
    phase: int = -1
    #: Explicit wire size in bytes.  When ``None`` (the regular AAPC
    #: case) the executor uses ``len(blocks) * msize``; irregular
    #: patterns (alltoallv) set it per operation.
    nbytes: Optional[int] = None

    def __post_init__(self) -> None:
        data_ops = (OpKind.ISEND, OpKind.IRECV, OpKind.SEND, OpKind.RECV)
        if self.kind in data_ops and not self.peer:
            raise ProgramError(f"{self.kind.value} needs a peer")
        if self.kind in (OpKind.SYNC_SEND, OpKind.SYNC_RECV) and not self.peer:
            raise ProgramError(f"{self.kind.value} needs a peer")
        if self.nbytes is not None and self.nbytes < 0:
            raise ProgramError("nbytes must be non-negative")

    def wire_size(self, msize: int) -> int:
        """Bytes this operation moves for a per-block size of *msize*."""
        if self.nbytes is not None:
            return self.nbytes
        return len(self.blocks) * msize

    @property
    def is_send(self) -> bool:
        return self.kind in (OpKind.ISEND, OpKind.SEND, OpKind.SYNC_SEND)

    @property
    def is_recv(self) -> bool:
        return self.kind in (OpKind.IRECV, OpKind.RECV, OpKind.SYNC_RECV)

    def __str__(self) -> str:
        if self.kind in (OpKind.WAITALL, OpKind.BARRIER):
            return self.kind.value
        return f"{self.kind.value}({self.peer}, tag={self.tag})"


@dataclass
class Program:
    """The operation sequence executed by one rank."""

    rank: str
    ops: List[Op] = field(default_factory=list)

    def append(self, op: Op) -> None:
        self.ops.append(op)

    def __len__(self) -> int:
        return len(self.ops)

    def __iter__(self):
        return iter(self.ops)

    def count(self, kind: OpKind) -> int:
        return sum(1 for op in self.ops if op.kind == kind)

    def sent_blocks(self) -> List[Block]:
        """Blocks this program pushes out (with multiplicity)."""
        return [
            b
            for op in self.ops
            if op.kind in (OpKind.ISEND, OpKind.SEND)
            for b in op.blocks
        ]


def validate_programs(programs: Dict[str, Program]) -> None:
    """Static sanity checks: sends and receives pair up by (src, dst, tag)."""
    sends: Dict[Tuple[str, str, int, bool], int] = {}
    recvs: Dict[Tuple[str, str, int, bool], int] = {}
    for rank, prog in programs.items():
        if prog.rank != rank:
            raise ProgramError(
                f"program keyed {rank!r} claims rank {prog.rank!r}"
            )
        for op in prog.ops:
            is_sync = op.kind in (OpKind.SYNC_SEND, OpKind.SYNC_RECV)
            if op.kind in (OpKind.ISEND, OpKind.SEND, OpKind.SYNC_SEND):
                key = (rank, op.peer, op.tag, is_sync)
                sends[key] = sends.get(key, 0) + 1
            elif op.kind in (OpKind.IRECV, OpKind.RECV, OpKind.SYNC_RECV):
                key = (op.peer, rank, op.tag, is_sync)
                recvs[key] = recvs.get(key, 0) + 1
    if sends != recvs:
        only_sends = {k: v for k, v in sends.items() if recvs.get(k) != v}
        only_recvs = {k: v for k, v in recvs.items() if sends.get(k) != v}
        raise ProgramError(
            "unmatched operations: "
            f"sends without recvs {list(only_sends)[:5]}, "
            f"recvs without sends {list(only_recvs)[:5]}"
        )


def build_programs(
    schedule: PhasedSchedule,
    sync_plan: Optional[SyncPlan] = None,
    *,
    sync_mode: str = "pairwise",
) -> Dict[str, Program]:
    """Lower a phased schedule (plus sync plan) to per-rank programs.

    Per participating phase each rank: (1) blocks on the sync messages
    gating its send, (2) posts its receive and send, (3) waits for both,
    (4) emits the sync messages unlocked by its completed send.

    Parameters
    ----------
    sync_mode:
        ``"pairwise"`` — the paper's scheme (requires *sync_plan*);
        ``"barrier"`` — a barrier after every phase (the expensive
        alternative Section 5 argues against);
        ``"none"`` — no inter-phase synchronization at all (the ablation
        showing why unsynchronized phases drift into contention).
    """
    if sync_mode not in ("pairwise", "barrier", "none"):
        raise ProgramError(f"unknown sync_mode {sync_mode!r}")
    if sync_mode == "pairwise" and sync_plan is None:
        raise ProgramError("pairwise sync_mode requires a sync plan")

    with pipeline_span("program_emission"):
        return _emit_programs(schedule, sync_plan, sync_mode)


def _emit_programs(
    schedule: PhasedSchedule,
    sync_plan: Optional[SyncPlan],
    sync_mode: str,
) -> Dict[str, Program]:
    machines = schedule.topology.machines
    programs: Dict[str, Program] = {m: Program(m) for m in machines}

    # Index sync messages by the data message they gate / follow.
    gating: Dict[Tuple[str, int], List] = {}
    unlocking: Dict[Tuple[str, int], List] = {}
    sync_tags: Dict[int, int] = {}
    if sync_mode == "pairwise" and sync_plan is not None:
        for seq, s in enumerate(sync_plan.syncs):
            tag = SYNC_TAG_BASE + seq
            sync_tags[id(s)] = tag
            gating.setdefault((s.before.src, s.before.phase), []).append((s, tag))
            unlocking.setdefault((s.after.src, s.after.phase), []).append((s, tag))

    for p in range(schedule.num_phases):
        phase_msgs = schedule.phase(p)
        out_of: Dict[str, List] = {}
        into: Dict[str, List] = {}
        for sm in phase_msgs:
            out_of.setdefault(sm.src, []).append(sm)
            into.setdefault(sm.dst, []).append(sm)
        participants = set(out_of) | set(into)
        for rank in machines:
            if rank not in participants:
                if sync_mode == "barrier":
                    programs[rank].append(Op(OpKind.BARRIER, phase=p))
                continue
            prog = programs[rank]
            for s, tag in gating.get((rank, p), ()):
                prog.append(
                    Op(OpKind.SYNC_RECV, peer=s.src, tag=tag, phase=p)
                )
            for sm in into.get(rank, ()):
                prog.append(
                    Op(
                        OpKind.IRECV,
                        peer=sm.src,
                        tag=p,
                        blocks=((sm.src, sm.dst),),
                        phase=p,
                    )
                )
            for sm in out_of.get(rank, ()):
                prog.append(
                    Op(
                        OpKind.ISEND,
                        peer=sm.dst,
                        tag=p,
                        blocks=((sm.src, sm.dst),),
                        phase=p,
                    )
                )
            prog.append(Op(OpKind.WAITALL, phase=p))
            for s, tag in unlocking.get((rank, p), ()):
                prog.append(
                    Op(OpKind.SYNC_SEND, peer=s.dst, tag=tag, phase=p)
                )
            if sync_mode == "barrier":
                prog.append(Op(OpKind.BARRIER, phase=p))

    add_counters(
        ranks=len(programs),
        ops=sum(len(p) for p in programs.values()),
        sync_messages=len(sync_plan.syncs) if sync_plan is not None else 0,
    )
    validate_programs(programs)
    return programs
