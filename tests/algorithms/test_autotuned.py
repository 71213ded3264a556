"""Tests for the empirically auto-tuned alltoall."""

import pytest

from repro.algorithms import get_algorithm
from repro.algorithms.autotuned import AutoTunedAlltoall
from repro.errors import ReproError
from repro.sim.executor import run_programs
from repro.sim.params import NetworkParams
from repro.topology.builder import chain_of_switches, single_switch
from repro.topology.serialization import dumps_topology
from repro.units import kib


@pytest.fixture(scope="module")
def tuner():
    return AutoTunedAlltoall(
        params=NetworkParams().without_noise(), repetitions=1
    )


@pytest.fixture(scope="module")
def topo():
    return chain_of_switches([4, 4])


class TestTuning:
    def test_picks_generated_for_large_messages(self, tuner, topo):
        assert tuner.tune(topo, kib(256)) == "generated"

    def test_picks_cheap_algorithm_for_tiny_messages(self, tuner, topo):
        winner = tuner.tune(topo, 256)
        assert winner in ("bruck", "lam", "mpich")

    def test_cache_hit_skips_measurement(self, tuner, topo):
        tuner.tune(topo, kib(64))
        measured = dict(tuner.measurements)
        tuner.tune(topo, kib(64))  # second call: no new measurements
        assert dict(tuner.measurements) == measured
        assert tuner.selected(topo, kib(64)) is not None

    def test_content_equal_topology_hits_cache(self, tuner, topo):
        tuner.tune(topo, kib(64))
        measured = dict(tuner.measurements)
        copy = chain_of_switches([4, 4])
        assert copy is not topo
        assert tuner.selected(copy, kib(64)) == tuner.selected(topo, kib(64))
        tuner.tune(copy, kib(64))
        assert dict(tuner.measurements) == measured
        assert tuner.dispatch_table(copy) == tuner.dispatch_table(topo)

    def test_untuned_cell_reports_none(self, tuner, topo):
        fresh = single_switch(4)
        assert tuner.selected(fresh, kib(8)) is None
        assert "untuned" in tuner.describe(fresh, kib(8))

    def test_measurements_cover_all_candidates(self, tuner, topo):
        tuner.tune(topo, kib(256))
        times = tuner.measurements[(dumps_topology(topo), kib(256))]
        assert set(times) == set(tuner.candidates)
        assert all(t > 0 for t in times.values())

    def test_dispatch_table_sorted(self, tuner, topo):
        tuner.tune(topo, kib(256))
        tuner.tune(topo, 256)
        table = tuner.dispatch_table(topo)
        sizes = [s for s, _ in table]
        assert sizes == sorted(sizes)
        assert dict(table)[kib(256)] == "generated"

    def test_build_programs_delivers(self, tuner, topo):
        programs = tuner.build_programs(topo, kib(64))
        run_programs(topo, programs, kib(64), NetworkParams().without_noise())

    @pytest.mark.parametrize("msize", [kib(16), kib(256)])
    def test_untuned_build_builds_each_candidate_once(self, monkeypatch, msize):
        """Tuning keeps the winner's programs: no second build of it."""
        builds = {}
        for name in ("generated", "lam"):
            cls = type(get_algorithm(name))

            def counted(self, *args, _build=cls.build_programs, _name=name):
                builds[_name] = builds.get(_name, 0) + 1
                return _build(self, *args)

            monkeypatch.setattr(cls, "build_programs", counted)
        tuner = AutoTunedAlltoall(("generated", "lam"), repetitions=1)
        tuner.build_programs(chain_of_switches([4, 4]), msize)
        assert builds == {"generated": 1, "lam": 1}

    def test_registry_entry(self):
        algorithm = get_algorithm("autotuned")
        assert algorithm.name == "autotuned"

    def test_validation(self):
        with pytest.raises(ReproError):
            AutoTunedAlltoall(candidates=())
        with pytest.raises(ReproError):
            AutoTunedAlltoall(repetitions=0)
