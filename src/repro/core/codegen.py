"""C code generation for the customized ``MPI_Alltoall`` routine.

The paper's automatic routine generator emits an MPI_Alltoall built on
MPI point-to-point primitives, specialized to one topology (it was
developed against LAM/MPI 6.5.9).  :func:`generate_c_routine` reproduces
that artifact: given the per-rank programs it emits a self-contained C
translation unit with one ``switch (rank)`` arm per machine, phases as
commented blocks, non-blocking sends/receives with a wait per phase, and
the pair-wise synchronization messages in place.

The generated code is a faithful rendering of what runs on the
simulator; compiling it requires an MPI installation, which this
reproduction environment does not have — the emitter is exercised by
structural tests (balanced braces, call counts matching the program IR,
deterministic output).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.errors import CodegenError
from repro.core.program import Op, OpKind, Program

_HEADER = """\
/*
 * Auto-generated topology-specific MPI_Alltoall.
 *
 * Generated by repro (reproduction of Faraj & Yuan, IPPS 2005,
 * "Message Scheduling for All-to-All Personalized Communication on
 * Ethernet Switched Clusters").
 *
 * Machines (rank order): {machines}
 * Phases: {phases}   Sync messages: {syncs}
 */
#include <mpi.h>
#include <string.h>

#define AAPC_NUM_RANKS {num_ranks}
#define AAPC_MAX_REQS  8

static char aapc_sync_byte;

int Alltoall_generated(void *sendbuf, int sendcount, MPI_Datatype sendtype,
                       void *recvbuf, int recvcount, MPI_Datatype recvtype,
                       MPI_Comm comm)
{{
    int rank, size, err = MPI_SUCCESS;
    int sext, rext;
    MPI_Request reqs[AAPC_MAX_REQS];
    int nreqs = 0;

    MPI_Comm_rank(comm, &rank);
    MPI_Comm_size(comm, &size);
    if (size != AAPC_NUM_RANKS)
        return MPI_ERR_COMM;
    MPI_Type_size(sendtype, &sext);
    MPI_Type_size(recvtype, &rext);

    /* local copy: rank's own block */
    memcpy((char *)recvbuf + (size_t)rank * recvcount * rext,
           (char *)sendbuf + (size_t)rank * sendcount * sext,
           (size_t)sendcount * sext);

    switch (rank) {{
"""

_FOOTER = """\
    default:
        return MPI_ERR_RANK;
    }
    return err;
}
"""


def generate_c_routine(
    programs: Dict[str, Program],
    rank_order: Sequence[str],
) -> str:
    """Emit the customized ``MPI_Alltoall`` as C source text.

    The header's phase count (one past the highest op phase) and sync
    count (the ``SYNC_SEND`` ops) are read off the programs.

    Parameters
    ----------
    programs:
        Per-machine programs from :func:`repro.core.program.build_programs`
        or an :class:`~repro.algorithms.base.AlltoallAlgorithm`.
    rank_order:
        Machine names in MPI rank order (``topology.machines``).
    """
    missing = [m for m in rank_order if m not in programs]
    if missing:
        raise CodegenError(f"no program for machines {missing}")
    rank_of = {name: idx for idx, name in enumerate(rank_order)}
    ops = [op for name in rank_order for op in programs[name].ops]

    out: List[str] = [
        _HEADER.format(
            machines=", ".join(rank_order),
            phases=1 + max((op.phase for op in ops), default=-1),
            syncs=sum(op.kind is OpKind.SYNC_SEND for op in ops),
            num_ranks=len(rank_order),
        )
    ]
    for name in rank_order:
        out.append(f"    case {rank_of[name]}: /* {name} */\n")
        out.extend(_emit_rank(programs[name], rank_of))
        out.append("        break;\n")
    out.append(_FOOTER)
    return "".join(out)


def _emit_rank(program: Program, rank_of: Dict[str, int]) -> List[str]:
    lines: List[str] = []
    current_phase = None
    pending = 0
    for op in program.ops:
        if op.phase != current_phase and op.phase >= 0:
            lines.append(f"        /* phase {op.phase} */\n")
            current_phase = op.phase
        lines.extend(_emit_op(op, rank_of))
        if op.kind in (OpKind.ISEND, OpKind.IRECV):
            pending += 1
            if pending > 8:
                raise CodegenError(
                    "more than AAPC_MAX_REQS outstanding requests in one "
                    f"phase of rank {program.rank}"
                )
        elif op.kind == OpKind.WAITALL:
            pending = 0
    return lines


def _emit_op(op: Op, rank_of: Dict[str, int]) -> List[str]:
    ind = "        "
    if op.nbytes is not None:
        raise CodegenError(
            "the C emitter targets regular MPI_Alltoall (uniform counts); "
            "variable-size (alltoallv) programs are simulator-only"
        )
    if op.kind == OpKind.IRECV:
        peer = rank_of[op.peer]
        return [
            f"{ind}MPI_Irecv((char *)recvbuf + (size_t){peer} * recvcount * rext,\n"
            f"{ind}          recvcount * {len(op.blocks)}, recvtype, {peer}, "
            f"{op.tag}, comm, &reqs[nreqs++]);\n"
        ]
    if op.kind == OpKind.ISEND:
        peer = rank_of[op.peer]
        return [
            f"{ind}MPI_Isend((char *)sendbuf + (size_t){peer} * sendcount * sext,\n"
            f"{ind}          sendcount * {len(op.blocks)}, sendtype, {peer}, "
            f"{op.tag}, comm, &reqs[nreqs++]);\n"
        ]
    if op.kind == OpKind.RECV:
        peer = rank_of[op.peer]
        return [
            f"{ind}MPI_Recv((char *)recvbuf + (size_t){peer} * recvcount * rext,\n"
            f"{ind}         recvcount, recvtype, {peer}, {op.tag}, comm, "
            "MPI_STATUS_IGNORE);\n"
        ]
    if op.kind == OpKind.SEND:
        peer = rank_of[op.peer]
        return [
            f"{ind}MPI_Send((char *)sendbuf + (size_t){peer} * sendcount * sext,\n"
            f"{ind}         sendcount, sendtype, {peer}, {op.tag}, comm);\n"
        ]
    if op.kind == OpKind.WAITALL:
        return [
            f"{ind}MPI_Waitall(nreqs, reqs, MPI_STATUSES_IGNORE); nreqs = 0;\n"
        ]
    if op.kind == OpKind.SYNC_SEND:
        peer = rank_of[op.peer]
        return [
            f"{ind}MPI_Send(&aapc_sync_byte, 0, MPI_BYTE, {peer}, {op.tag}, "
            "comm); /* pairwise sync */\n"
        ]
    if op.kind == OpKind.SYNC_RECV:
        peer = rank_of[op.peer]
        return [
            f"{ind}MPI_Recv(&aapc_sync_byte, 0, MPI_BYTE, {peer}, {op.tag}, "
            "comm, MPI_STATUS_IGNORE); /* pairwise sync */\n"
        ]
    if op.kind == OpKind.BARRIER:
        return [f"{ind}MPI_Barrier(comm);\n"]
    raise CodegenError(f"cannot emit op kind {op.kind!r}")
