"""Tests for result persistence and shape validation."""

import pytest

from repro.algorithms import GeneratedAlltoall, LamAlltoall
from repro.errors import ReproError
from repro.harness.persistence import (
    dumps_result,
    load_result,
    loads_result,
    result_from_dict,
    result_to_dict,
    save_result,
)
from repro.harness.runner import run_experiment
from repro.harness.validation import ShapeReport, compare_shapes
from repro.harness.workloads import message_size_sweep
from repro.topology.builder import single_switch
from repro.units import kib


@pytest.fixture(scope="module")
def result():
    return run_experiment(
        "persist-test",
        single_switch(4),
        [LamAlltoall(), GeneratedAlltoall()],
        message_size_sweep([kib(8), kib(64)], repetitions=1),
    )


class TestPersistence:
    def test_round_trip_string(self, result):
        text = dumps_result(result)
        loaded = loads_result(text)
        assert loaded.name == result.name
        assert loaded.topology == result.topology
        assert loaded.params == result.params
        assert len(loaded.points) == len(result.points)
        for a, b in zip(loaded.points, result.points):
            assert (a.algorithm, a.msize) == (b.algorithm, b.msize)
            assert a.mean_time == pytest.approx(b.mean_time)
            assert a.samples == pytest.approx(b.samples)

    def test_round_trip_file(self, result, tmp_path):
        path = str(tmp_path / "result.json")
        save_result(result, path)
        loaded = load_result(path)
        assert loaded.cell("lam", kib(8)).mean_time == pytest.approx(
            result.cell("lam", kib(8)).mean_time
        )

    def test_reads_retired_pool_flows_param(self, result):
        data = result_to_dict(result)
        data["params"]["pool_flows"] = True
        assert result_from_dict(data).params == result.params

    def test_schema_guard(self, result):
        data = result_to_dict(result)
        data["schema"] = 99
        with pytest.raises(ReproError, match="schema"):
            result_from_dict(data)

    @pytest.mark.parametrize(
        "text,message",
        [("[]", "must be a JSON object"), ('{"name": "x"}', "invalid schema")],
        ids=["list", "no-schema"],
    )
    def test_malformed_envelope(self, text, message):
        with pytest.raises(ReproError, match=message):
            loads_result(text)

    def test_corrupt_json(self):
        import io

        with pytest.raises(ReproError, match="corrupt"):
            load_result(io.StringIO("{not json"))


class TestShapeValidation:
    def test_perfect_agreement_with_self(self, result):
        # reference derived from the measurement itself: full agreement
        reference = {
            a: {
                msize: result.cell(a, msize).mean_time * 1e3
                for msize in result.sizes()
            }
            for a in result.algorithms()
        }
        report = compare_shapes(result, reference)
        assert report.winner_rate == 1.0
        assert report.pairwise_rate == 1.0
        assert not report.disagreements

    def test_detects_inverted_reference(self, result):
        # reference claims LAM wins everywhere by 10x
        reference = {
            "lam": {msize: 1.0 for msize in result.sizes()},
            "generated": {msize: 10.0 for msize in result.sizes()},
        }
        report = compare_shapes(result, reference)
        # measured: generated wins at 64KB, lam at 8KB -> one size disagrees
        assert report.winner_agreement[kib(64)] is False
        assert report.disagreements

    def test_tie_tolerance(self, result):
        # near-equal reference counts as agreement regardless of order
        reference = {
            "lam": {msize: 100.0 for msize in result.sizes()},
            "generated": {msize: 101.0 for msize in result.sizes()},
        }
        report = compare_shapes(result, reference, tie_tolerance=0.05)
        assert report.pairwise_rate == 1.0

    def test_requires_two_algorithms(self, result):
        with pytest.raises(ReproError, match="two algorithms"):
            compare_shapes(result, {"lam": {kib(8): 1.0}})

    def test_summary_renders(self, result):
        reference = {
            "lam": {msize: 1.0 for msize in result.sizes()},
            "generated": {msize: 2.0 for msize in result.sizes()},
        }
        text = compare_shapes(result, reference).summary()
        assert "winner agreement" in text
        assert "pairwise-order agreement" in text
