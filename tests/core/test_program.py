"""Tests for the per-rank op IR and program lowering."""

import dataclasses
import hashlib

import pytest

from repro.algorithms import GeneratedAlltoall
from repro.core.program import (
    Op,
    OpKind,
    Program,
    SYNC_TAG_BASE,
    build_programs,
    validate_programs,
)
from repro.core.scheduler import schedule_aapc
from repro.core.synchronization import build_sync_plan
from repro.errors import ProgramError
from repro.topology.builder import random_tree, single_switch, topology_b


@pytest.fixture
def fig1_programs(fig1):
    schedule = schedule_aapc(fig1, root="s1")
    plan = build_sync_plan(schedule)
    return schedule, plan, build_programs(schedule, plan)


class TestOp:
    def test_data_ops_need_peer(self):
        for kind in OpKind:
            if kind in (OpKind.WAITALL, OpKind.BARRIER):
                continue
            with pytest.raises(ProgramError, match="needs a peer"):
                Op(kind, tag=3, phase=1)

    def test_negative_nbytes_rejected(self):
        with pytest.raises(ProgramError, match="non-negative"):
            Op(OpKind.ISEND, peer="x", nbytes=-1)
        assert Op(OpKind.ISEND, peer="x", nbytes=0).wire_size(64) == 0

    def test_frozen_and_slotted(self):
        op = Op(OpKind.ISEND, peer="x")
        with pytest.raises(dataclasses.FrozenInstanceError):
            op.tag = 5
        assert not hasattr(op, "__dict__")

    def test_waitall_needs_no_peer(self):
        op = Op(OpKind.WAITALL)
        assert not op.is_send and not op.is_recv

    def test_send_recv_flags(self):
        assert Op(OpKind.ISEND, peer="x").is_send
        assert Op(OpKind.SYNC_SEND, peer="x").is_send
        assert Op(OpKind.IRECV, peer="x").is_recv
        assert Op(OpKind.RECV, peer="x").is_recv

    def test_str(self):
        assert str(Op(OpKind.WAITALL)) == "waitall"
        assert "isend(x" in str(Op(OpKind.ISEND, peer="x", tag=3))


class TestProgramContainer:
    def test_counts_and_blocks(self):
        prog = Program("n0")
        prog.append(Op(OpKind.ISEND, peer="n1", blocks=(("n0", "n1"),)))
        prog.append(Op(OpKind.WAITALL))
        assert prog.count(OpKind.ISEND) == 1
        assert prog.sent_blocks() == [("n0", "n1")]
        assert len(prog) == 2
        assert list(iter(prog)) == prog.ops


class TestValidatePrograms:
    def test_detects_missing_receive(self):
        programs = {
            "a": Program("a", [Op(OpKind.ISEND, peer="b", tag=0)]),
            "b": Program("b", []),
        }
        with pytest.raises(ProgramError, match="unmatched"):
            validate_programs(programs)

    def test_detects_wrong_key(self):
        programs = {"a": Program("b", [])}
        with pytest.raises(ProgramError, match="claims rank"):
            validate_programs(programs)

    def test_sync_and_data_namespaces_distinct(self):
        # a data send must not match a sync recv even with equal tags
        programs = {
            "a": Program("a", [Op(OpKind.ISEND, peer="b", tag=7)]),
            "b": Program("b", [Op(OpKind.SYNC_RECV, peer="a", tag=7)]),
        }
        with pytest.raises(ProgramError, match="unmatched"):
            validate_programs(programs)


def _programs_digest(programs):
    """The bench's programs digest: every op of every rank, in rank order."""
    h = hashlib.sha256()
    for rank in sorted(programs):
        for op in programs[rank].ops:
            h.update(
                f"{rank} {op.kind.value} {op.peer} {op.tag} {op.phase} "
                f"{op.nbytes} {op.blocks}\n".encode()
            )
    return h.hexdigest()


#: Programs digests of the sync modes the bench pins do not cover,
#: recorded from the per-machine, per-phase emitter before it was
#: rewritten to visit only each phase's participants.
EMISSION_GOLDEN = {
    ("topology_b", "barrier"):
        "882f3dbbd28a02bc7d6705b9b54436c816abdc671c32f1ccc07394a028d65581",
    ("topology_b", "none"):
        "0990ff1ad93061b670dfc0adeb72ce26da95d52205e12ffcf5580952e8390e3b",
    ("topology_b", "allsyncs"):
        "96c8306e079d114f22559ad8a86264187be482d12b0873ac8abc93c069c5b3e8",
    ("random_tree", "barrier"):
        "5568a25101a7a3e310d4b358691bdb10b0a9cbd025b4f6829b198bfe42c2efc8",
    ("random_tree", "none"):
        "742b88ca643ba21df8aec9b110b87123730708d8651ee1061bc0595c164f3743",
    ("random_tree", "allsyncs"):
        "e4ec534640f4295207b770db824b4746a59bbaec665f1bae93c417b1884e3a30",
}

_GOLDEN_TOPOLOGIES = {
    "topology_b": topology_b,
    "random_tree": lambda: random_tree(24, 6, seed=7),
}

_GOLDEN_ALGORITHMS = {
    "barrier": dict(sync_mode="barrier"),
    "none": dict(sync_mode="none"),
    "allsyncs": dict(remove_redundant_syncs=False),
}


class TestEmissionGolden:
    @pytest.mark.parametrize("topology,mode", sorted(EMISSION_GOLDEN))
    def test_programs_digest_pinned(self, topology, mode):
        algorithm = GeneratedAlltoall(**_GOLDEN_ALGORITHMS[mode])
        programs = algorithm.build_programs(_GOLDEN_TOPOLOGIES[topology](), 65536)
        assert _programs_digest(programs) == EMISSION_GOLDEN[topology, mode]

    def test_validate_rejects_one_missing_send(self):
        programs = GeneratedAlltoall().build_programs(topology_b(), 65536)
        validate_programs(programs)
        prog = next(iter(programs.values()))
        idx = next(i for i, op in enumerate(prog.ops) if op.kind == OpKind.ISEND)
        del prog.ops[idx]
        with pytest.raises(ProgramError, match="unmatched"):
            validate_programs(programs)


class TestBuildPrograms:
    def test_one_program_per_machine(self, fig1, fig1_programs):
        _, _, programs = fig1_programs
        assert set(programs) == set(fig1.machines)

    def test_data_op_totals(self, fig1_programs):
        schedule, _, programs = fig1_programs
        total_sends = sum(p.count(OpKind.ISEND) for p in programs.values())
        total_recvs = sum(p.count(OpKind.IRECV) for p in programs.values())
        assert total_sends == len(schedule) == 30
        assert total_recvs == len(schedule) == 30

    def test_sync_op_totals(self, fig1_programs):
        _, plan, programs = fig1_programs
        sync_sends = sum(p.count(OpKind.SYNC_SEND) for p in programs.values())
        sync_recvs = sum(p.count(OpKind.SYNC_RECV) for p in programs.values())
        assert sync_sends == len(plan.syncs)
        assert sync_recvs == len(plan.syncs)

    def test_phase_monotone_per_rank(self, fig1_programs):
        _, _, programs = fig1_programs
        for prog in programs.values():
            phases = [op.phase for op in prog.ops if op.phase >= 0]
            assert phases == sorted(phases)

    def test_sync_recv_precedes_gated_send(self, fig1_programs):
        """Within a phase block: sync receives come before the isend."""
        _, plan, programs = fig1_programs
        for s in plan.syncs:
            prog = programs[s.before.src]
            phase_ops = [op for op in prog.ops if op.phase == s.before.phase]
            kinds = [op.kind for op in phase_ops]
            assert OpKind.SYNC_RECV in kinds
            assert kinds.index(OpKind.SYNC_RECV) < kinds.index(OpKind.ISEND)

    def test_sync_send_follows_waitall(self, fig1_programs):
        _, plan, programs = fig1_programs
        for s in plan.syncs:
            prog = programs[s.after.src]
            phase_ops = [op for op in prog.ops if op.phase == s.after.phase]
            kinds = [op.kind for op in phase_ops]
            assert kinds.index(OpKind.WAITALL) < kinds.index(OpKind.SYNC_SEND)

    def test_sync_tags_unique_and_namespaced(self, fig1_programs):
        _, _, programs = fig1_programs
        tags = [
            op.tag
            for prog in programs.values()
            for op in prog.ops
            if op.kind == OpKind.SYNC_SEND
        ]
        assert len(tags) == len(set(tags))
        assert all(t >= SYNC_TAG_BASE for t in tags)

    def test_blocks_carry_aapc_payload(self, fig1_programs):
        _, _, programs = fig1_programs
        for rank, prog in programs.items():
            for op in prog.ops:
                if op.kind == OpKind.ISEND:
                    assert op.blocks == ((rank, op.peer),)

    def test_barrier_mode(self, fig1):
        schedule = schedule_aapc(fig1, root="s1")
        programs = build_programs(schedule, None, sync_mode="barrier")
        for prog in programs.values():
            # one barrier per phase for every rank, even idle ones
            assert prog.count(OpKind.BARRIER) == schedule.num_phases
            assert prog.count(OpKind.SYNC_SEND) == 0

    def test_none_mode(self, fig1):
        schedule = schedule_aapc(fig1, root="s1")
        programs = build_programs(schedule, None, sync_mode="none")
        for prog in programs.values():
            assert prog.count(OpKind.SYNC_SEND) == 0
            assert prog.count(OpKind.BARRIER) == 0

    def test_pairwise_requires_plan(self, fig1):
        schedule = schedule_aapc(fig1, root="s1")
        with pytest.raises(ProgramError, match="requires a sync plan"):
            build_programs(schedule, None, sync_mode="pairwise")

    def test_unknown_mode(self, fig1):
        schedule = schedule_aapc(fig1, root="s1")
        with pytest.raises(ProgramError, match="sync_mode"):
            build_programs(schedule, None, sync_mode="bogus")

    def test_idle_ranks_skip_phase(self):
        """A rank with no message in a phase gets no ops there (pairwise)."""
        topo = single_switch(4)
        schedule = schedule_aapc(topo)
        plan = build_sync_plan(schedule)
        programs = build_programs(schedule, plan)
        validate_programs(programs)
        # single-switch ring: every rank active every phase, so instead
        # check totals: ops = per phase (irecv+isend+waitall) + syncs
        for rank, prog in programs.items():
            assert prog.count(OpKind.WAITALL) == schedule.num_phases
