"""Fault-plan declaration, validation, serialization, fingerprinting."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.errors import FaultPlanError
from repro.faults.plan import (
    FOREVER,
    FaultPlan,
    HostStraggler,
    LinkFault,
    RankCrash,
    SyncFault,
    load_fault_plan,
)
from repro.topology.builder import chain_of_switches


def full_plan() -> FaultPlan:
    return FaultPlan(
        name="everything",
        seed=42,
        link_faults=[
            LinkFault(link=("s0", "s1"), start=0.001, end=0.01, factor=0.3),
            LinkFault(link=("s0", "s1"), failed=True, start=0.02),
        ],
        stragglers=[HostStraggler(rank="n0", factor=4.0, end=0.05)],
        sync_faults=[
            SyncFault(loss=0.2, delay_prob=0.1, delay_mean=1e-3,
                      duplicate=0.05, src="n1"),
        ],
        crashes=[RankCrash(rank="n3", time=0.03)],
    )


def test_round_trip_through_json(tmp_path):
    plan = full_plan()
    path = str(tmp_path / "plan.json")
    plan.to_json(path)
    loaded = load_fault_plan(path)
    assert loaded.as_dict() == plan.as_dict()
    assert loaded.fingerprint() == plan.fingerprint()
    # Open-ended windows survive the None <-> inf conversion.
    assert loaded.link_faults[1].end == FOREVER


def test_fingerprint_is_content_sensitive():
    a = full_plan()
    b = full_plan()
    assert a.fingerprint() == b.fingerprint()
    b.sync_faults.append(SyncFault(loss=0.5))
    assert a.fingerprint() != b.fingerprint()


def test_empty_and_boundaries():
    assert FaultPlan().empty
    plan = full_plan()
    assert not plan.empty
    assert plan.boundaries() == [0.001, 0.01, 0.02]
    permanent = plan.permanent_link_failures()
    assert len(permanent) == 1 and permanent[0].failed


@pytest.mark.parametrize(
    "bad",
    [
        lambda: LinkFault(link=("s0", "s0")),
        lambda: LinkFault(link=("s0", "s1"), factor=0.0),
        lambda: LinkFault(link=("s0", "s1"), factor=1.5),
        lambda: LinkFault(link=("s0", "s1"), start=0.5, end=0.5),
        lambda: LinkFault(link=("s0", "s1"), failed=True, residual=-0.1),
        lambda: HostStraggler(rank="n0", factor=0.5),
        lambda: SyncFault(loss=1.5),
        lambda: SyncFault(delay_mean=-1.0),
        lambda: RankCrash(rank="n0", time=-1.0),
    ],
)
def test_invalid_fault_specs_raise(bad):
    with pytest.raises(FaultPlanError):
        bad()


# Fault plans are JSON, and Python's json module reads the non-standard
# tokens Infinity and NaN.  Each case below used to be accepted and then
# crash the sync layer, zero every delay, send the engine's clock
# backwards or leave a window never active.
NON_FINITE_PLANS = {
    "infinite-delay-mean": (
        '{"sync_faults": [{"delay_prob": 1.0, "delay_mean": Infinity}]}'
    ),
    "nan-delay-mean": (
        '{"sync_faults": [{"delay_prob": 1.0, "delay_mean": NaN}]}'
    ),
    "nan-crash-time": '{"crashes": [{"rank": "n0", "time": NaN}]}',
    "nan-straggler-factor": (
        '{"stragglers": [{"rank": "n0", "factor": NaN}]}'
    ),
    "nan-link-start": (
        '{"link_faults": [{"link": ["s0", "s1"], "start": NaN, '
        '"failed": true}]}'
    ),
}


@pytest.mark.parametrize("case", sorted(NON_FINITE_PLANS))
def test_non_finite_numbers_are_rejected(case, tmp_path):
    path = tmp_path / "plan.json"
    path.write_text(NON_FINITE_PLANS[case], encoding="utf-8")
    with pytest.raises(FaultPlanError, match="must be a finite number"):
        load_fault_plan(str(path))


def test_non_finite_plan_is_a_one_line_cli_error(tmp_path, capsys):
    path = tmp_path / "plan.json"
    path.write_text(NON_FINITE_PLANS["infinite-delay-mean"], encoding="utf-8")
    code = main([
        "simulate", "fig1", "--msize", "16KB", "--algorithm", "generated",
        "--no-ledger", "--faults", str(path),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "delay_mean must be a finite" in err


def test_open_ended_window_end_is_allowed():
    plan = FaultPlan.from_dict(
        {"link_faults": [{"link": ["s0", "s1"], "end": float("inf")}]}
    )
    assert plan.link_faults[0].end == FOREVER
    with pytest.raises(FaultPlanError, match="finite"):
        FaultPlan.from_dict(
            {"link_faults": [{"link": ["s0", "s1"], "end": float("nan")}]}
        )


def test_validate_against_topology():
    topo = chain_of_switches([2, 2])
    ok = FaultPlan(link_faults=[LinkFault(link=("s0", "s1"))])
    ok.validate_against(topo)

    with pytest.raises(FaultPlanError):
        FaultPlan(
            link_faults=[LinkFault(link=("s0", "s9"))]
        ).validate_against(topo)
    with pytest.raises(FaultPlanError):
        FaultPlan(
            stragglers=[HostStraggler(rank="nope", factor=2.0)]
        ).validate_against(topo)
    with pytest.raises(FaultPlanError):
        FaultPlan(crashes=[RankCrash(rank="nope", time=0.0)]).validate_against(
            topo
        )
    with pytest.raises(FaultPlanError):
        FaultPlan(sync_faults=[SyncFault(src="nope")]).validate_against(topo)


def test_load_errors_are_repro_errors(tmp_path):
    with pytest.raises(FaultPlanError, match="cannot read fault plan"):
        load_fault_plan(str(tmp_path / "missing.json"))
    corrupt = tmp_path / "corrupt.json"
    corrupt.write_text("{not json", encoding="utf-8")
    with pytest.raises(FaultPlanError, match="corrupt fault plan"):
        load_fault_plan(str(corrupt))
    notdict = tmp_path / "notdict.json"
    notdict.write_text(json.dumps([1, 2, 3]), encoding="utf-8")
    with pytest.raises(FaultPlanError):
        load_fault_plan(str(notdict))


def test_sync_fault_applies_filters():
    sf = SyncFault(loss=1.0, start=0.0, end=1.0, src="n0", dst="n1")
    assert sf.applies("n0", "n1", 0.5)
    assert not sf.applies("n0", "n1", 1.0)  # window is half-open
    assert not sf.applies("n2", "n1", 0.5)
    assert not sf.applies("n0", "n2", 0.5)
