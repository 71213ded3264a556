"""Bit-exact means of the campaign and the auto-tuner.

Both average seeded repetitions of built programs: the campaign per
random tree and algorithm, the tuner per candidate.  The means are
pinned with ``==`` so that any change to how the programs are built,
which seeds run, or how the samples are summed shows up here.

Regenerate a value only on purpose: a moved mean changes the
campaign's rendered table and the tuner's dispatch decisions.
"""

from repro.algorithms.autotuned import AutoTunedAlltoall
from repro.harness.campaign import run_campaign
from repro.topology.builder import chain_of_switches
from repro.topology.serialization import dumps_topology
from repro.units import kib

#: (seed, machines, switches, load, phases, mean times) per random
#: tree, default parameters, 16 KiB, two repetitions.
CAMPAIGN_ROWS = [
    (0, 14, 5, 49, 49, {
        "lam": 0.09538626959101269,
        "mpich": 0.09537073537189822,
        "generated": 0.12314224653529789,
    }),
    (1, 10, 6, 21, 21, {
        "lam": 0.04095561928385641,
        "mpich": 0.04094466640917537,
        "generated": 0.04927300702088093,
    }),
]

#: msize -> (winner, mean time per candidate) on ``chain_of_switches([4, 4])``,
#: default parameters, two repetitions.
TUNER_MEASUREMENTS = {
    256: ("bruck", {
        "bruck": 0.0015255054499780044,
        "lam": 0.0016439002692489628,
        "mpich": 0.0015255054499780044,
        "generated": 0.00704823519103975,
    }),
    kib(16): ("mpich", {
        "bruck": 0.05375447933384333,
        "lam": 0.031183110721989964,
        "mpich": 0.031153449599535015,
        "generated": 0.03719995053454861,
    }),
}


def test_campaign_rows_and_means_are_bit_exact():
    summary = run_campaign(num_topologies=2, msize=kib(16), repetitions=2)
    rows = [
        (r.seed, r.num_machines, r.num_switches, r.load, r.phases, r.times)
        for r in summary.rows
    ]
    assert rows == CAMPAIGN_ROWS
    assert [list(r.times) for r in summary.rows] == [
        ["lam", "mpich", "generated"]
    ] * 2


def test_tuner_measurements_are_bit_exact():
    tuner = AutoTunedAlltoall(repetitions=2)
    topo = chain_of_switches([4, 4])
    for msize, (winner, times) in TUNER_MEASUREMENTS.items():
        assert tuner.tune(topo, msize) == winner
        assert tuner.measurements[(dumps_topology(topo), msize)] == times
