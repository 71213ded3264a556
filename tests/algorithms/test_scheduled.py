"""Tests for the generated (paper) algorithm wrapper and the registry."""

import gc

import pytest

from repro.algorithms import GeneratedAlltoall, available_algorithms, get_algorithm
from repro.core.program import OpKind
from repro.core.verify import verify_schedule
from repro.errors import ReproError
from repro.sim.executor import run_programs
from repro.topology.builder import (
    random_tree,
    single_switch,
    star_of_switches,
    topology_b,
)
from repro.units import kib


class TestGeneratedAlltoall:
    def test_schedule_is_verified(self, fig1):
        algorithm = GeneratedAlltoall(root="s1")
        schedule = algorithm.build_schedule(fig1)
        verify_schedule(schedule)

    def test_programs_carry_syncs(self, fig1):
        algorithm = GeneratedAlltoall(root="s1")
        programs = algorithm.build_programs(fig1, kib(64))
        syncs = sum(p.count(OpKind.SYNC_SEND) for p in programs.values())
        assert syncs == len(algorithm.last_sync_plan.syncs) > 0

    def test_sync_mode_none_has_no_syncs(self, fig1):
        algorithm = GeneratedAlltoall(sync_mode="none")
        programs = algorithm.build_programs(fig1, kib(64))
        assert all(p.count(OpKind.SYNC_SEND) == 0 for p in programs.values())
        assert algorithm.last_sync_plan is None

    def test_sync_mode_barrier(self, fig1):
        algorithm = GeneratedAlltoall(sync_mode="barrier")
        programs = algorithm.build_programs(fig1, kib(64))
        assert any(p.count(OpKind.BARRIER) > 0 for p in programs.values())

    def test_names(self):
        assert GeneratedAlltoall().name == "generated"
        assert GeneratedAlltoall(sync_mode="barrier").name == "generated-barrier"
        assert GeneratedAlltoall(sync_mode="none").name == "generated-none"
        assert (
            GeneratedAlltoall(remove_redundant_syncs=False).name
            == "generated-allsyncs"
        )

    def test_describe_mentions_root(self, fig1):
        assert "root=s1" in GeneratedAlltoall(root="s1").describe(fig1, kib(64))

    def test_delivers(self, small_star, quiet_params):
        programs = GeneratedAlltoall().build_programs(small_star, kib(64))
        run_programs(small_star, programs, kib(64), quiet_params)

    def test_no_redundant_removal_still_correct(self, fig1, quiet_params):
        algorithm = GeneratedAlltoall(remove_redundant_syncs=False)
        programs = algorithm.build_programs(fig1, kib(64))
        run_programs(fig1, programs, kib(64), quiet_params)


class TestRuntimeContentionFreedom:
    def test_max_multiplexing_is_one_with_rendezvous(self, quiet_params):
        """At rendezvous sizes the pairwise syncs keep every link at
        one flow — the schedule's contention freedom holds at runtime."""
        topo = star_of_switches([3, 3, 2])
        programs = GeneratedAlltoall().build_programs(topo, kib(64))
        result = run_programs(topo, programs, kib(64), quiet_params)
        assert result.max_edge_multiplexing == 1

    def test_without_syncs_contention_appears(self):
        """Dropping the syncs lets phases overlap under noise."""
        from repro.sim.params import NetworkParams

        topo = star_of_switches([3, 3, 2])
        params = NetworkParams(seed=3)  # noisy
        programs = GeneratedAlltoall(sync_mode="none").build_programs(
            topo, kib(64)
        )
        result = run_programs(topo, programs, kib(64), params)
        assert result.max_edge_multiplexing >= 2


class TestRegistry:
    def test_known_names(self):
        names = available_algorithms()
        assert "lam" in names and "mpich" in names and "generated" in names

    def test_instances_fresh(self):
        assert get_algorithm("lam") is not get_algorithm("lam")

    def test_unknown_name(self):
        with pytest.raises(ReproError, match="unknown algorithm"):
            get_algorithm("turbo")

    @pytest.mark.parametrize("name", ["lam", "mpich", "bruck", "generated",
                                      "generated-barrier", "generated-nosync",
                                      "mpich-ordered-isend", "mpich-ring"])
    def test_all_registered_algorithms_deliver(self, name, quiet_params):
        topo = single_switch(4)
        algorithm = get_algorithm(name)
        programs = algorithm.build_programs(topo, kib(64))
        run_programs(topo, programs, kib(64), quiet_params)


class TestGcPause:
    """``build_programs`` pauses the cyclic collector and restores it."""

    @pytest.fixture
    def restore_gc(self):
        was_enabled = gc.isenabled()
        yield
        (gc.enable if was_enabled else gc.disable)()

    @pytest.fixture(params=[True, False], ids=["gc-on", "gc-off"])
    def gc_enabled(self, request, restore_gc):
        (gc.enable if request.param else gc.disable)()
        return request.param

    def test_restores_collector_state(self, fig1, gc_enabled):
        GeneratedAlltoall().build_programs(fig1, kib(64))
        assert gc.isenabled() is gc_enabled

    def test_restores_collector_state_on_error(self, fig1, gc_enabled):
        with pytest.raises(ReproError, match="forced root"):
            GeneratedAlltoall(root="bogus").build_programs(fig1, kib(64))
        assert gc.isenabled() is gc_enabled

    @pytest.mark.parametrize(
        "name", ["generated", "bruck", "mpich-ordered-isend", "mpich-pairwise",
                 "mpich-ring", "lam", "postall-alltoallv",
                 "scheduled-alltoallv"],
    )
    def test_every_builder_pauses_the_collector(self, fig1, gc_enabled,
                                                name, monkeypatch):
        """Every ``build_programs`` that lowers a pattern itself runs
        under ``gc_paused`` and restores the collector afterwards.  (The
        autotuner's build measures candidates through the harness and
        is left out; each candidate's build and run pause on their own.)"""
        from repro.algorithms import PostAllAlltoallv, ScheduledAlltoallv
        from repro.core.program import Program

        during = []
        init = Program.__init__

        def recording_init(self, *args, **kwargs):
            during.append(gc.isenabled())
            init(self, *args, **kwargs)

        monkeypatch.setattr(Program, "__init__", recording_init)
        if name.endswith("alltoallv"):
            machines = fig1.machines
            sizes = {(a, b): 4096 for a in machines for b in machines if a != b}
            builder = {"postall-alltoallv": PostAllAlltoallv,
                       "scheduled-alltoallv": ScheduledAlltoallv}[name]()
            builder.build_programs(fig1, sizes)
        else:
            # Pairwise exchange needs a power-of-two rank count.
            topology = single_switch(4) if name == "mpich-pairwise" else fig1
            get_algorithm(name).build_programs(topology, kib(16))
        assert during and not any(during)
        assert gc.isenabled() is gc_enabled

    @pytest.mark.parametrize(
        "build", [topology_b, lambda: random_tree(24, 6, seed=7)],
        ids=["topology_b", "random_tree"],
    )
    def test_generator_builds_no_cycles(self, restore_gc, build):
        """Everything a build drops is freed by reference counting alone,
        so pausing the collector across it cannot grow memory."""
        topology = build()
        gc.collect()
        gc.disable()
        algorithm = GeneratedAlltoall()
        algorithm.build_programs(topology, kib(64))
        del algorithm
        assert gc.collect() == 0
