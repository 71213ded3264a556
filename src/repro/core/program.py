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
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional, Tuple

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


#: Kinds that name a peer: the data transfers and the pair-wise syncs.
_PEERED_KINDS = (
    OpKind.ISEND,
    OpKind.IRECV,
    OpKind.SEND,
    OpKind.RECV,
    OpKind.SYNC_SEND,
    OpKind.SYNC_RECV,
)
_SEND_KINDS = (OpKind.ISEND, OpKind.SEND, OpKind.SYNC_SEND)
_RECV_KINDS = (OpKind.IRECV, OpKind.RECV, OpKind.SYNC_RECV)


@dataclass(frozen=True, slots=True)
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
        if not self.peer and self.kind in _PEERED_KINDS:
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
        return self.kind in _SEND_KINDS

    @property
    def is_recv(self) -> bool:
        return self.kind in _RECV_KINDS

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
    """Static sanity checks: sends and receives pair up by (src, dst, tag).

    One counter nets every send key against every receive key, so a
    valid program set holds one table of keys, not two; only a mismatch
    counts each side separately for the error text.
    """
    for rank, prog in programs.items():
        if prog.rank != rank:
            raise ProgramError(
                f"program keyed {rank!r} claims rank {prog.rank!r}"
            )
    balance = Counter(_send_keys(programs))
    balance.subtract(_recv_keys(programs))
    if any(balance.values()):
        sends = Counter(_send_keys(programs))
        recvs = Counter(_recv_keys(programs))
        only_sends = {k: v for k, v in sends.items() if recvs.get(k) != v}
        only_recvs = {k: v for k, v in recvs.items() if sends.get(k) != v}
        raise ProgramError(
            "unmatched operations: "
            f"sends without recvs {list(only_sends)[:5]}, "
            f"recvs without sends {list(only_recvs)[:5]}"
        )


#: A transfer's matching key: (src, dst, tag, is_sync).
_MatchKey = Tuple[str, str, int, bool]


def _send_keys(programs: Dict[str, Program]) -> Iterator[_MatchKey]:
    """The matching key of every send."""
    sync_send = OpKind.SYNC_SEND
    for rank, prog in programs.items():
        for op in prog.ops:
            if op.kind in _SEND_KINDS:
                yield (rank, op.peer, op.tag, op.kind is sync_send)


def _recv_keys(programs: Dict[str, Program]) -> Iterator[_MatchKey]:
    """The matching key of every receive."""
    sync_recv = OpKind.SYNC_RECV
    for rank, prog in programs.items():
        for op in prog.ops:
            if op.kind in _RECV_KINDS:
                yield (op.peer, rank, op.tag, op.kind is sync_recv)


def build_programs(
    schedule: PhasedSchedule,
    sync_plan: Optional[SyncPlan] = None,
    *,
    sync_mode: str = "pairwise",
    sizes: Optional[Mapping[Block, int]] = None,
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
    sizes:
        Per-pair byte counts of an irregular (alltoallv) pattern: each
        pair's ISEND and IRECV carry its count as ``nbytes``.  ``None``
        (regular AAPC) leaves every data op one block of ``msize``.
    """
    if sync_mode not in ("pairwise", "barrier", "none"):
        raise ProgramError(f"unknown sync_mode {sync_mode!r}")
    if sync_mode == "pairwise" and sync_plan is None:
        raise ProgramError("pairwise sync_mode requires a sync plan")

    with pipeline_span("program_emission"):
        return _emit_programs(schedule, sync_plan, sync_mode, sizes)


def _emit_programs(
    schedule: PhasedSchedule,
    sync_plan: Optional[SyncPlan],
    sync_mode: str,
    sizes: Optional[Mapping[Block, int]],
) -> Dict[str, Program]:
    machines = schedule.topology.machines
    programs: Dict[str, Program] = {m: Program(m) for m in machines}
    ops_of = {m: prog.ops for m, prog in programs.items()}
    barrier = sync_mode == "barrier"
    ISEND, IRECV, WAITALL, BARRIER = (
        OpKind.ISEND, OpKind.IRECV, OpKind.WAITALL, OpKind.BARRIER
    )

    # The sync ops gating / following each (sender, phase) data message.
    gating: Dict[Tuple[str, int], List[Op]] = {}
    unlocking: Dict[Tuple[str, int], List[Op]] = {}
    if sync_mode == "pairwise" and sync_plan is not None:
        for seq, s in enumerate(sync_plan.syncs):
            tag = SYNC_TAG_BASE + seq
            after, before = s.after.message, s.before.message
            p_before, p_after = s.before.phase, s.after.phase
            gating.setdefault((before.src, p_before), []).append(
                Op(OpKind.SYNC_RECV, after.src, tag, (), p_before)
            )
            unlocking.setdefault((after.src, p_after), []).append(
                Op(OpKind.SYNC_SEND, before.src, tag, (), p_after)
            )

    # Per participating rank and phase: sync receives, receives, sends,
    # waitall, sync sends (then a barrier in barrier mode).  Ranks are
    # independent, so only each phase's participants are visited.  Ops
    # are immutable, so a phase's ranks share its one waitall / barrier.
    for p in range(schedule.num_phases):
        into: Dict[str, List[Op]] = {}
        out_of: Dict[str, List[Op]] = {}
        for sm in schedule.phase(p):
            msg = sm.message
            src, dst = msg.src, msg.dst
            blocks = ((src, dst),)
            nbytes = None if sizes is None else sizes[src, dst]
            into.setdefault(dst, []).append(
                Op(IRECV, src, p, blocks, p, nbytes)
            )
            out_of.setdefault(src, []).append(
                Op(ISEND, dst, p, blocks, p, nbytes)
            )
        participants = into.keys() | out_of.keys()
        waitall = Op(WAITALL, "", 0, (), p)
        fence = Op(BARRIER, "", 0, (), p) if barrier else None
        for rank in participants:
            ops = ops_of[rank]
            key = (rank, p)
            if key in gating:
                ops += gating[key]
            if rank in into:
                ops += into[rank]
            if rank in out_of:
                ops += out_of[rank]
            ops.append(waitall)
            if key in unlocking:
                ops += unlocking[key]
            if fence is not None:
                ops.append(fence)
        if fence is not None:
            for rank in machines:
                if rank not in participants:
                    ops_of[rank].append(fence)

    add_counters(
        ranks=len(programs),
        ops=sum(len(p) for p in programs.values()),
        sync_messages=len(sync_plan.syncs) if sync_plan is not None else 0,
    )
    validate_programs(programs)
    return programs
