"""Tests for the program executor: timing, correctness checks, tracing."""

import gc

import pytest

from repro.algorithms import get_algorithm
from repro.core.program import Op, OpKind, Program
from repro.core.scheduler import schedule_aapc
from repro.core.synchronization import build_sync_plan
from repro.core.program import build_programs
from repro.errors import ProgramError, SimulationError
from repro.faults.plan import FaultPlan, SyncFault
from repro.obs.phase_audit import phase_windows
from repro.sim.executor import run_programs
from repro.sim.params import NetworkParams
from repro.topology.builder import single_switch
from repro.units import kib


@pytest.fixture
def topo():
    return single_switch(4)


def lam_programs(topo, msize):
    return get_algorithm("lam").build_programs(topo, msize)


class TestBasicExecution:
    def test_all_ranks_finish(self, topo, quiet_params):
        result = run_programs(topo, lam_programs(topo, kib(64)), kib(64), quiet_params)
        assert set(result.rank_finish) == set(topo.machines)
        assert result.completion_time == max(result.rank_finish.values())

    def test_delivery_check_passes(self, topo, quiet_params):
        result = run_programs(topo, lam_programs(topo, kib(64)), kib(64), quiet_params)
        for rank in topo.machines:
            assert result.received_blocks[rank] == {
                (src, rank) for src in topo.machines if src != rank
            }

    def test_deterministic_per_seed(self, topo):
        params = NetworkParams(seed=5)
        a = run_programs(topo, lam_programs(topo, kib(64)), kib(64), params)
        b = run_programs(topo, lam_programs(topo, kib(64)), kib(64), params)
        assert a.completion_time == b.completion_time
        assert a.rank_finish == b.rank_finish

    def test_different_seeds_differ(self, topo):
        a = run_programs(
            topo, lam_programs(topo, kib(64)), kib(64), NetworkParams(seed=1)
        )
        b = run_programs(
            topo, lam_programs(topo, kib(64)), kib(64), NetworkParams(seed=2)
        )
        assert a.completion_time != b.completion_time

    def test_exact_time_single_pair(self, fast_params):
        """Hand-computable: one rendezvous message at full line rate."""
        topo = single_switch(2)
        programs = {
            "n0": Program("n0", [
                Op(OpKind.ISEND, peer="n1", tag=0, blocks=(("n0", "n1"),)),
                Op(OpKind.WAITALL),
            ]),
            "n1": Program("n1", [
                Op(OpKind.IRECV, peer="n0", tag=0),
                Op(OpKind.WAITALL),
            ]),
        }
        msize = 1 << 20
        result = run_programs(
            topo, programs, msize, fast_params, check_delivery=False
        )
        line = fast_params.bandwidth * fast_params.base_efficiency
        assert result.completion_time == pytest.approx(msize / line, rel=1e-6)

    def test_throughput_helper(self, topo, quiet_params):
        result = run_programs(topo, lam_programs(topo, kib(64)), kib(64), quiet_params)
        expected = 4 * 3 * kib(64) / result.completion_time
        assert result.aggregate_throughput(4, kib(64)) == pytest.approx(expected)


class TestFailureDetection:
    def test_deadlock_detected(self, topo, quiet_params):
        programs = {m: Program(m, []) for m in topo.machines}
        # n0 waits for a message nobody sends
        programs["n0"] = Program("n0", [
            Op(OpKind.RECV, peer="n1", tag=9),
        ])
        with pytest.raises(SimulationError, match="deadlock"):
            run_programs(topo, programs, 1 << 20, quiet_params, check_delivery=False)

    def test_sync_never_received_fails_the_drain_check(self, topo, quiet_params):
        programs = {m: Program(m, []) for m in topo.machines}
        programs["n0"] = Program("n0", [Op(OpKind.SYNC_SEND, peer="n1", tag=3)])
        with pytest.raises(SimulationError, match="unmatched"):
            run_programs(topo, programs, kib(64), quiet_params, check_delivery=False)

    def test_sync_wait_never_satisfied_is_a_deadlock(self, topo, quiet_params):
        programs = {m: Program(m, []) for m in topo.machines}
        programs["n1"] = Program("n1", [Op(OpKind.SYNC_RECV, peer="n0", tag=3)])
        with pytest.raises(SimulationError, match="deadlock"):
            run_programs(topo, programs, kib(64), quiet_params, check_delivery=False)

    def test_missing_program_rejected(self, topo, quiet_params):
        programs = lam_programs(topo, kib(64))
        del programs["n2"]
        with pytest.raises(ProgramError, match="n2"):
            run_programs(topo, programs, kib(64), quiet_params)

    def test_unwaited_requests_rejected(self, topo, quiet_params):
        programs = {m: Program(m, []) for m in topo.machines}
        programs["n0"] = Program("n0", [
            Op(OpKind.ISEND, peer="n1", tag=0, blocks=(("n0", "n1"),)),
        ])
        programs["n1"] = Program("n1", [
            Op(OpKind.IRECV, peer="n0", tag=0),
            Op(OpKind.WAITALL),
        ])
        with pytest.raises(ProgramError, match="unwaited"):
            run_programs(topo, programs, 1 << 20, quiet_params, check_delivery=False)

    def test_delivery_check_catches_incomplete(self, topo, quiet_params):
        """A program that skips one pair fails the delivery check."""
        programs = lam_programs(topo, kib(64))
        # strip n0's send to n1 and n1's matching recv
        programs["n0"] = Program("n0", [
            op for op in programs["n0"].ops
            if not (op.kind == OpKind.ISEND and op.peer == "n1")
        ])
        programs["n1"] = Program("n1", [
            op for op in programs["n1"].ops
            if not (op.kind == OpKind.IRECV and op.peer == "n0")
        ])
        with pytest.raises(SimulationError, match="delivery mismatch"):
            run_programs(topo, programs, kib(64), quiet_params)

    def test_delivery_check_catches_duplicates(self, topo, quiet_params):
        """A block addressed to a rank that arrives twice is caught even
        though the set of delivered blocks is right."""
        programs = lam_programs(topo, kib(64))
        again = (("n0", "n1"),)
        programs["n0"] = Program("n0", [
            Op(OpKind.ISEND, peer="n1", tag=1, blocks=again),
            *programs["n0"].ops,
        ])
        programs["n1"] = Program("n1", [
            Op(OpKind.IRECV, peer="n0", tag=1, blocks=again),
            *programs["n1"].ops,
        ])
        with pytest.raises(SimulationError, match="duplicate delivery") as err:
            run_programs(topo, programs, kib(64), quiet_params)
        assert "rank n1 received 4 addressed blocks, expected 3" in str(err.value)

    def test_blocks_in_transit_are_not_delivered(self, quiet_params):
        """Bruck forwards blocks through intermediate ranks; only the
        blocks addressed to a rank count as delivered to it."""
        topo = single_switch(8)
        programs = get_algorithm("bruck").build_programs(topo, kib(4))
        forwarded = sum(
            len(op.blocks) for p in programs.values() for op in p.ops
            if op.kind in (OpKind.SEND, OpKind.ISEND)
        )
        result = run_programs(topo, programs, kib(4), quiet_params)
        assert forwarded > 8 * 7
        assert result.received_blocks == {
            m: {(src, m) for src in topo.machines if src != m}
            for m in topo.machines
        }


class TestFaultFreeSyncs:
    def test_syncs_on_one_pair_are_delivered_fifo(self, topo, quiet_params):
        """n1 waits on n0's two same-tag syncs only after both were
        posted, and still takes them in posting order."""
        programs = {m: Program(m, []) for m in topo.machines}
        programs["n0"] = Program("n0", [
            Op(OpKind.SYNC_SEND, peer="n1", tag=4),
            Op(OpKind.SYNC_SEND, peer="n1", tag=4),
        ])
        # Three posting overheads keep n1 busy past n0's second sync.
        programs["n1"] = Program("n1", [
            Op(OpKind.SYNC_SEND, peer="n2", tag=5),
            Op(OpKind.SYNC_SEND, peer="n2", tag=6),
            Op(OpKind.SYNC_SEND, peer="n2", tag=7),
            Op(OpKind.SYNC_RECV, peer="n0", tag=4),
            Op(OpKind.SYNC_RECV, peer="n0", tag=4),
        ])
        programs["n2"] = Program("n2", [
            Op(OpKind.SYNC_RECV, peer="n1", tag=tag) for tag in (5, 6, 7)
        ])
        result = run_programs(
            topo, programs, kib(64), quiet_params, check_delivery=False,
            trace=True,
        )
        records = result.trace.records
        sends = [r.time for r in records if r.what == "sync_send" and r.rank == "n0"]
        waits = [r.time for r in records if r.what == "sync_wait" and r.rank == "n1"]
        recvs = [r.time for r in records if r.what == "sync_recv" and r.rank == "n1"]
        assert len(sends) == 2 and sends[1] < waits[0]
        assert recvs == [
            pytest.approx(t + quiet_params.sync_latency) for t in sends
        ]

    def test_every_posted_sync_retires(self, small_star):
        from repro.obs.metrics_registry import MetricsRegistry

        programs = get_algorithm("generated").build_programs(small_star, kib(64))
        syncs = sum(
            op.kind is OpKind.SYNC_SEND
            for program in programs.values()
            for op in program.ops
        )
        registry = MetricsRegistry()
        with registry.activate():
            run_programs(small_star, programs, kib(64), NetworkParams(seed=0))
        assert syncs > 0
        assert registry.get("mpi.syncs_posted") == syncs
        assert registry.get("mpi.syncs_retired") == syncs

    def test_counting_syncs_changes_no_event(self, small_star):
        """With a registry, a sync whose arrival is known is still
        delivered through one event, so both runs see the same events."""
        from repro.obs.metrics_registry import MetricsRegistry

        programs = get_algorithm("generated").build_programs(small_star, kib(64))
        params = NetworkParams(seed=0)
        plain = run_programs(small_star, programs, kib(64), params)
        with MetricsRegistry().activate():
            counted = run_programs(small_star, programs, kib(64), params)
        assert counted.completion_time == plain.completion_time
        assert counted.events_processed == plain.events_processed
        assert counted.rank_finish == plain.rank_finish


class TestNoCyclicGarbage:
    """``run_programs`` runs the engine with the cyclic collector paused,
    which is safe only while a run leaves nothing but reference-counted
    garbage: whatever a run allocated is freed once its result is
    dropped, with no cycle left for the collector."""

    @pytest.fixture
    def collector_off(self):
        was_enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        yield
        if was_enabled:
            gc.enable()

    @pytest.mark.parametrize(
        "algorithm, options",
        [
            ("generated", {}),
            ("bruck", {}),
            ("lam", {}),
            ("generated", {"telemetry": True}),
            ("generated", {"trace": True}),
            (
                "generated",
                {"faults": FaultPlan(seed=7, sync_faults=[SyncFault(loss=0.1)])},
            ),
        ],
        ids=["generated", "bruck", "lam", "telemetry", "trace", "faulted"],
    )
    def test_run_leaves_no_cycles(self, small_star, algorithm, options,
                                  collector_off):
        programs = get_algorithm(algorithm).build_programs(small_star, kib(64))
        gc.collect()
        result = run_programs(
            small_star, programs, kib(64), NetworkParams(seed=0), **options
        )
        if "faults" in options:
            assert result.fault_stats["syncs_dropped"] > 0
        del result
        assert gc.collect() == 0

    def test_engine_runs_paused_and_state_is_restored(
        self, topo, quiet_params, monkeypatch
    ):
        from repro.sim.engine import Engine

        during = []
        engine_run = Engine.run

        def run(engine):
            during.append(gc.isenabled())
            return engine_run(engine)

        monkeypatch.setattr(Engine, "run", run)
        programs = lam_programs(topo, kib(64))
        was_enabled = gc.isenabled()
        try:
            for enabled in (True, False):
                (gc.enable if enabled else gc.disable)()
                run_programs(topo, programs, kib(64), quiet_params)
                assert gc.isenabled() is enabled
            assert during == [False, False]
            gc.enable()
            programs["n0"] = Program("n0", [Op(OpKind.RECV, peer="n1", tag=9)])
            with pytest.raises(SimulationError):
                run_programs(topo, programs, kib(64), quiet_params)
            assert gc.isenabled()
        finally:
            (gc.enable if was_enabled else gc.disable)()


class TestLinkUtilization:
    def test_generated_saturates_the_bottleneck(self):
        """The paper's claim in one number: the schedule keeps the
        bottleneck trunk busy at the achievable goodput fraction."""
        from repro.topology.builder import chain_of_switches

        topo = chain_of_switches([4, 4])
        params = NetworkParams().without_noise()
        programs = get_algorithm("generated").build_programs(topo, kib(256))
        result = run_programs(topo, programs, kib(256), params)
        util = result.link_utilization(params.bandwidth)
        assert util[("s0", "s1")] == pytest.approx(
            params.base_efficiency, rel=0.05
        )
        # duplex symmetry on the AAPC pattern
        assert util[("s0", "s1")] == pytest.approx(util[("s1", "s0")], rel=1e-6)

    def test_edge_bytes_account_for_all_flows(self, topo, quiet_params):
        result = run_programs(
            topo, lam_programs(topo, kib(64)), kib(64), quiet_params
        )
        # every machine uplink carried 3 messages of 64KB
        assert result.edge_bytes[("n0", "s0")] == pytest.approx(3 * kib(64))

    def test_requires_positive_time(self, topo, quiet_params):
        result = run_programs(
            topo, lam_programs(topo, kib(64)), kib(64), quiet_params
        )
        assert all(0 <= u <= 1 for u in result.link_utilization(
            quiet_params.bandwidth).values())


class TestStragglerInjection:
    def test_override_slows_completion(self, topo):
        base = NetworkParams().without_noise()
        from dataclasses import replace

        slow = replace(base, rank_speed_overrides=(("n1", 50.0),))
        a = run_programs(topo, lam_programs(topo, kib(64)), kib(64), base)
        b = run_programs(topo, lam_programs(topo, kib(64)), kib(64), slow)
        assert b.completion_time > a.completion_time
        # the straggler itself is the (or among the) last to finish
        assert b.rank_finish["n1"] == pytest.approx(
            max(b.rank_finish.values()), rel=0.05
        )

    def test_override_validation(self):
        with pytest.raises(ValueError, match="factor"):
            NetworkParams(rank_speed_overrides=(("n1", 0.0),))
        with pytest.raises(ValueError):
            NetworkParams(rank_speed_overrides=(("n1",),))

    def test_speed_override_lookup(self):
        params = NetworkParams(rank_speed_overrides=(("n2", 3.0),))
        assert params.speed_override("n2") == 3.0
        assert params.speed_override("n0") == 1.0


class TestNoiseModel:
    def test_noise_free_is_reproducible_across_seeds(self, topo):
        params = NetworkParams().without_noise()
        a = run_programs(topo, lam_programs(topo, kib(64)), kib(64), params.with_seed(1))
        b = run_programs(topo, lam_programs(topo, kib(64)), kib(64), params.with_seed(2))
        assert a.completion_time == pytest.approx(b.completion_time)

    def test_stalls_increase_time(self, topo):
        base = NetworkParams().without_noise()
        noisy = NetworkParams(
            jitter=0.0, rank_speed_spread=0.0, stall_prob=1.0, stall_mean=5e-3
        )
        a = run_programs(topo, lam_programs(topo, kib(64)), kib(64), base)
        b = run_programs(topo, lam_programs(topo, kib(64)), kib(64), noisy)
        assert b.completion_time > a.completion_time


class TestTrace:
    def test_trace_collected_on_request(self, topo, quiet_params):
        result = run_programs(
            topo, lam_programs(topo, kib(64)), kib(64), quiet_params, trace=True
        )
        assert result.trace is not None
        assert len(result.trace) > 0
        kinds = {r.what for r in result.trace.records}
        assert {"post_send", "post_recv", "waitall_done"} <= kinds

    def test_trace_absent_by_default(self, topo, quiet_params):
        result = run_programs(topo, lam_programs(topo, kib(64)), kib(64), quiet_params)
        assert result.trace is None

    def test_sync_ordering_visible_in_trace(self, fig1, quiet_params):
        schedule = schedule_aapc(fig1, root="s1")
        plan = build_sync_plan(schedule)
        programs = build_programs(schedule, plan)
        result = run_programs(
            fig1, programs, 1 << 20, quiet_params, trace=True
        )
        trace = result.trace
        # for every sync, the gated send is posted after the sync arrives
        for s in plan.syncs:
            recv_rec = trace.first(s.before.src, "sync_recv")
            assert recv_rec is not None

    def test_phase_spans(self, fig1, quiet_params):
        schedule = schedule_aapc(fig1, root="s1")
        plan = build_sync_plan(schedule)
        programs = build_programs(schedule, plan)
        result = run_programs(fig1, programs, 1 << 20, quiet_params, trace=True)
        windows = phase_windows(result.trace)
        assert [w.phase for w in windows] == list(range(schedule.num_phases))
        # windows are well-formed and the run ends with the last phase
        for w in windows:
            assert w.start <= w.end
        assert windows[-1].end == pytest.approx(result.completion_time)
