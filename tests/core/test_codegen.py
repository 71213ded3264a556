"""Structural tests for the generated C routine."""

import re

import pytest

from repro.core.codegen import generate_c_routine
from repro.core.program import Op, OpKind, Program, build_programs
from repro.core.scheduler import schedule_aapc
from repro.core.synchronization import build_sync_plan
from repro.errors import CodegenError
from repro.topology.builder import random_tree, topology_b


@pytest.fixture
def fig1_source(fig1):
    schedule = schedule_aapc(fig1, root="s1")
    plan = build_sync_plan(schedule)
    programs = build_programs(schedule, plan)
    source = generate_c_routine(programs, fig1.machines)
    return schedule, plan, programs, source


class TestStructure:
    def test_braces_balanced(self, fig1_source):
        *_, source = fig1_source
        assert source.count("{") == source.count("}")
        assert source.count("(") == source.count(")")

    def test_one_case_per_rank(self, fig1, fig1_source):
        *_, source = fig1_source
        for rank in range(fig1.num_machines):
            assert f"case {rank}:" in source
        assert source.count("break;") == fig1.num_machines

    def test_header_metadata(self, fig1_source):
        schedule, plan, _, source = fig1_source
        assert f"Phases: {schedule.num_phases}" in source
        assert f"Sync messages: {len(plan.syncs)}" in source
        assert "#define AAPC_NUM_RANKS 6" in source

    def test_call_counts_match_ir(self, fig1_source):
        _, _, programs, source = fig1_source
        isends = sum(p.count(OpKind.ISEND) for p in programs.values())
        irecvs = sum(p.count(OpKind.IRECV) for p in programs.values())
        syncs = sum(p.count(OpKind.SYNC_SEND) for p in programs.values())
        waits = sum(p.count(OpKind.WAITALL) for p in programs.values())
        assert source.count("MPI_Isend(") == isends
        assert source.count("MPI_Irecv(") == irecvs
        assert source.count("MPI_Waitall(") == waits
        # each sync pair emits one MPI_Send and one MPI_Recv comment-tagged
        assert source.count("/* pairwise sync */") == 2 * syncs

    def test_phase_comments(self, fig1_source):
        schedule, _, _, source = fig1_source
        assert "/* phase 0 */" in source
        assert f"/* phase {schedule.num_phases - 1} */" in source

    def test_deterministic(self, fig1):
        def emit():
            schedule = schedule_aapc(fig1, root="s1")
            plan = build_sync_plan(schedule)
            return generate_c_routine(
                build_programs(schedule, plan), fig1.machines
            )

        assert emit() == emit()

    def test_self_copy_present(self, fig1_source):
        *_, source = fig1_source
        assert "memcpy(" in source


@pytest.mark.parametrize(
    "build",
    [topology_b, lambda: random_tree(24, 6, seed=7)],
    ids=["topology_b", "random_tree"],
)
def test_header_counts_read_off_programs(build):
    topo = build()
    schedule = schedule_aapc(topo)
    plan = build_sync_plan(schedule)
    source = generate_c_routine(build_programs(schedule, plan), topo.machines)
    assert len(plan.syncs) > 0
    assert (
        f"Phases: {schedule.num_phases}   Sync messages: {len(plan.syncs)}\n"
        in source
    )


class TestBarrierMode:
    def test_barrier_calls_emitted(self, fig1):
        schedule = schedule_aapc(fig1, root="s1")
        programs = build_programs(schedule, None, sync_mode="barrier")
        source = generate_c_routine(programs, fig1.machines)
        assert source.count("MPI_Barrier(") == 6 * schedule.num_phases
        assert f"Phases: {schedule.num_phases}   Sync messages: 0" in source


class TestErrors:
    def test_missing_program(self, fig1):
        schedule = schedule_aapc(fig1, root="s1")
        plan = build_sync_plan(schedule)
        programs = build_programs(schedule, plan)
        del programs["n3"]
        with pytest.raises(CodegenError, match="n3"):
            generate_c_routine(programs, fig1.machines)

    def test_too_many_outstanding_requests(self):
        ops = [Op(OpKind.IRECV, peer="b", tag=i) for i in range(9)]
        programs = {
            "a": Program("a", ops),
            "b": Program("b", []),
        }
        with pytest.raises(CodegenError, match="AAPC_MAX_REQS"):
            generate_c_routine(programs, ["a", "b"])

    def test_variable_size_programs_rejected(self):
        programs = {
            "a": Program("a", [
                Op(OpKind.ISEND, peer="b", tag=0, blocks=(("a", "b"),), nbytes=12345),
            ]),
            "b": Program("b", [Op(OpKind.IRECV, peer="a", tag=0)]),
        }
        with pytest.raises(CodegenError, match="alltoallv"):
            generate_c_routine(programs, ["a", "b"])

    def test_blocking_ops_emitted(self):
        programs = {
            "a": Program("a", [Op(OpKind.SEND, peer="b", tag=0, blocks=(("a", "b"),))]),
            "b": Program("b", [Op(OpKind.RECV, peer="a", tag=0)]),
        }
        source = generate_c_routine(programs, ["a", "b"])
        assert "MPI_Send(" in source and "MPI_Recv(" in source
