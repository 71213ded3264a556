"""End-to-end integration tests across the whole stack.

These are the paper's claims in miniature: the full pipeline
(topology -> root -> schedule -> syncs -> programs -> simulation)
produces correct data movement, keeps links contention free at runtime,
and beats the baselines where the paper says it should.
"""

import pytest

from repro import (
    NetworkParams,
    get_algorithm,
    paper_example_cluster,
    run_programs,
    schedule_aapc,
)
from repro.algorithms import GeneratedAlltoall
from repro.core.codegen import generate_c_routine
from repro.core.program import build_programs
from repro.core.synchronization import build_sync_plan
from repro.topology.builder import (
    chain_of_switches,
    random_tree,
    star_of_switches,
)
from repro.units import kib


class TestFullPipeline:
    @pytest.mark.parametrize(
        "topo_factory",
        [
            paper_example_cluster,
            lambda: star_of_switches([4, 3, 2]),
            lambda: chain_of_switches([3, 2, 3]),
            lambda: random_tree(9, 4, seed=11),
        ],
    )
    def test_schedule_to_simulation(self, topo_factory, quiet_params):
        topo = topo_factory()
        schedule = schedule_aapc(topo)
        plan = build_sync_plan(schedule)
        programs = build_programs(schedule, plan)
        result = run_programs(topo, programs, kib(64), quiet_params)
        # data correctness is checked inside run_programs; also assert
        # the runtime honoured the contention-free schedule.
        assert result.max_edge_multiplexing == 1

    def test_codegen_from_same_pipeline(self, quiet_params):
        topo = star_of_switches([3, 2, 2])
        schedule = schedule_aapc(topo)
        plan = build_sync_plan(schedule)
        programs = build_programs(schedule, plan)
        source = generate_c_routine(programs, topo.machines)
        assert source.count("case ") == topo.num_machines + 0  # no default dup
        assert source.count("{") == source.count("}")


class TestPaperClaims:
    """Shape claims from Section 6, on scaled-down clusters for speed."""

    def test_generated_beats_lam_large_messages_bottleneck_topology(self):
        """Topology with inter-switch bottleneck, large messages."""
        topo = chain_of_switches([4, 4])
        params = NetworkParams(seed=0)
        times = {}
        for name in ("lam", "generated"):
            programs = get_algorithm(name).build_programs(topo, kib(256))
            times[name] = run_programs(
                topo, programs, kib(256), params
            ).completion_time
        assert times["generated"] < times["lam"]

    def test_generated_beats_mpich_on_chain(self):
        topo = chain_of_switches([4, 4, 4, 4])
        params = NetworkParams(seed=0)
        times = {}
        for name in ("mpich", "generated"):
            programs = get_algorithm(name).build_programs(topo, kib(256))
            times[name] = run_programs(
                topo, programs, kib(256), params
            ).completion_time
        assert times["generated"] < times["mpich"]

    def test_lam_wins_small_messages(self):
        """At 8KB the sync overhead makes the generated routine slower."""
        topo = chain_of_switches([4, 4])
        params = NetworkParams(seed=0)
        times = {}
        for name in ("lam", "generated"):
            programs = get_algorithm(name).build_programs(topo, kib(8))
            times[name] = run_programs(
                topo, programs, kib(8), params
            ).completion_time
        assert times["lam"] < times["generated"]

    def test_throughput_below_peak_bound(self, quiet_params):
        """No algorithm exceeds the Section 3 peak throughput bound."""
        from repro.topology.analysis import peak_aggregate_throughput

        topo = chain_of_switches([3, 3])
        bound = peak_aggregate_throughput(topo, quiet_params.bandwidth)
        for name in ("lam", "mpich", "generated"):
            programs = get_algorithm(name).build_programs(topo, kib(256))
            result = run_programs(topo, programs, kib(256), quiet_params)
            achieved = result.aggregate_throughput(topo.num_machines, kib(256))
            assert achieved <= bound * 1.0001

    def test_generated_approaches_peak_with_ideal_params(self, fast_params):
        """With no overheads/noise the schedule hits the bottleneck bound."""
        from dataclasses import replace

        from repro.topology.analysis import best_case_completion_time

        params = replace(fast_params, base_efficiency=1.0)
        topo = chain_of_switches([3, 3])
        programs = GeneratedAlltoall().build_programs(topo, kib(256))
        result = run_programs(topo, programs, kib(256), params)
        ideal = best_case_completion_time(topo, kib(256), params.bandwidth)
        # pipelining can't beat the bound; syncs add only epsilon here
        assert result.completion_time >= ideal * 0.999
        assert result.completion_time <= ideal * 1.15

    def test_sync_modes_ordering(self):
        """pairwise <= barrier in cost; none is fastest but contended."""
        topo = chain_of_switches([4, 4])
        params = NetworkParams(seed=1)
        results = {}
        for name in ("generated", "generated-barrier", "generated-nosync"):
            programs = get_algorithm(name).build_programs(topo, kib(128))
            results[name] = run_programs(topo, programs, kib(128), params)
        assert (
            results["generated"].completion_time
            < results["generated-barrier"].completion_time
        )
        # without syncs links get overloaded at runtime
        assert results["generated-nosync"].max_edge_multiplexing >= 2
        assert results["generated"].max_edge_multiplexing == 1


class TestCrossEmbeddingEquivalence:
    def test_constructive_and_matching_same_runtime_behaviour(self, quiet_params):
        topo = star_of_switches([3, 3, 2])
        times = {}
        for embedding in ("constructive", "matching"):
            schedule = schedule_aapc(topo, local_embedding=embedding)
            programs = build_programs(schedule, build_sync_plan(schedule))
            result = run_programs(topo, programs, kib(64), quiet_params)
            times[embedding] = result.completion_time
            assert result.max_edge_multiplexing == 1
        # same phase count and per-phase structure: nearly equal cost
        assert times["constructive"] == pytest.approx(
            times["matching"], rel=0.05
        )
