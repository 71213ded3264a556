"""Scaling of the routine generator — and of the simulator itself.

The paper's generator runs offline, but a practical release must build
schedules for realistic cluster sizes quickly.  This bench times the
full pipeline (root + global schedule + assignment + verification) and
the sync-plan construction across cluster sizes, and checks optimality
holds throughout.

The ``slow``-marked tests extend the sweep to cluster scale: a 128-rank
AAPC comparing the incremental allocator against the reference
progressive filler (the two must agree rate-for-rate; the incremental
one must be >= 5x faster), the paper's generated routine built at 512
ranks inside setup and peak-RSS budgets and simulated inside a
peak-RSS budget, and
a 1024-rank AAPC whose simulation must
finish inside a hard wall-clock budget.  The two simulated scale points land in a run-ledger record under ``out/ledger/`` with
``sim_wall_ms`` set, so CI gates the wall-clock trend with::

    repro-aapc report regress --ledger-dir benchmarks/out/ledger \\
        --baseline benchmarks/baseline_scaling.json
"""

import os
import resource
import time
from typing import Dict

import pytest

from repro.algorithms import GeneratedAlltoall, get_algorithm
from repro.core.scheduler import schedule_aapc
from repro.core.synchronization import build_sync_plan
from repro.obs.ledger import AlgorithmEntry, RunLedger, RunRecord, topology_fingerprint
from repro.obs.metrics_registry import MetricsRegistry
from repro.sim.executor import run_programs
from repro.sim.params import NetworkParams
from repro.topology.analysis import aapc_load
from repro.topology.builder import star_of_switches

#: Where the scale sweep records land; CI runs ``report regress``
#: against this directory with the committed baseline file.
SCALING_LEDGER_DIR = os.path.join(os.path.dirname(__file__), "out", "ledger")

AAPC_MSIZE = 64 * 1024
AAPC_SEED = 7

#: Hard per-test wall-clock ceilings (seconds).  Generous on purpose:
#: the committed baseline gates the finer-grained trend; these only
#: catch catastrophic (order-of-magnitude) blowups even on slow CI.
BUDGET_128_S = 90.0
BUDGET_1024_S = 240.0

#: Setup budget for building the generated routine at 512 ranks: 13-17 s
#: on a 2-vCPU / 8 GB container, down from 28 s before program emission
#: and the generator's cyclic-GC passes were made cheaper.
BUDGET_GEN_512_S = 25.0

#: Peak RSS of the process once the 512-rank routine is built.  Measured
#: on a 2-vCPU / 8 GB container while the chain index was a dense M x N
#: int16 matrix (268 MB of it) and program validation counted sends and
#: receives in two tables: 585 MB in this test, 508 MB in a bare
#: process.  With the index kept to its live band and one netted table:
#: 459 MB and 392 MB.  The budget leaves 17% headroom.
BUDGET_GEN_512_BUILT_MB = 540.0

#: How far simulating the 512-rank routine may raise the process's
#: peak RSS over its post-build value.  Measured on a 2-vCPU / 8 GB
#: container while every request formed a cycle with its event and
#: drained match queues stayed allocated: +159 MB in a bare process,
#: +95 MB in this test.  Both read 0 MB once the run frees them at once.
BUDGET_GEN_512_SIM_MB = 64.0

#: Acceptance floor for the incremental allocator at 128 ranks.
MIN_SPEEDUP_128 = 5.0

#: Scale-point entries accumulated across the slow tests in this
#: module; the 1024-rank test (defined last, so it runs last) folds
#: them into one ledger record.
_LEDGER_ENTRIES: Dict[str, AlgorithmEntry] = {}


def _peak_rss_mb() -> float:
    """This process's peak resident set so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def cluster(n_machines):
    """A star of four switches with n_machines total (paper-style shape)."""
    per = n_machines // 4
    sizes = [per, per, per, n_machines - 3 * per]
    return star_of_switches(sizes)


def test_scheduler_scaling(emit, benchmark):
    lines = [
        "routine-generation cost vs cluster size (star of 4 switches):",
        "",
        f"{'machines':>9} {'phases':>7} {'messages':>9} {'schedule+verify':>16} {'sync plan':>10}",
    ]
    for n in (8, 16, 32, 64, 96):
        topo = cluster(n)
        t0 = time.perf_counter()
        schedule = schedule_aapc(topo)  # includes verification
        t1 = time.perf_counter()
        assert schedule.num_phases == aapc_load(topo)
        build_sync_plan(schedule)
        t2 = time.perf_counter()
        lines.append(
            f"{n:>9} {schedule.num_phases:>7} {len(schedule):>9} "
            f"{t1 - t0:>15.3f}s {t2 - t1:>9.3f}s"
        )
    emit("scheduler_scaling", "\n".join(lines))

    topo = cluster(48)
    benchmark.pedantic(
        lambda: schedule_aapc(topo, verify=False), rounds=5, iterations=1
    )


# ---------------------------------------------------------------------------
# Simulator scale sweep (slow): engine-loop wall clock at cluster size.
# ---------------------------------------------------------------------------


def _timed_aapc(topo, algo, allocator):
    """One AAPC run; returns (result, engine-loop wall seconds).

    Program construction is deliberately outside the timed region: the
    budget gates the *simulator*, not the offline generator (which
    ``test_scheduler_scaling`` above already tracks).
    """
    programs = get_algorithm(algo).build_programs(topo, AAPC_MSIZE)
    params = NetworkParams(seed=AAPC_SEED, allocator=allocator)
    t0 = time.perf_counter()
    result = run_programs(topo, programs, AAPC_MSIZE, params)
    return result, time.perf_counter() - t0


def _record_scale_sweep(topo):
    """Fold the accumulated scale points into one ledger record."""
    record = RunRecord.new(
        "bench-scaling",
        topology_spec="star-of-4",
        topology_fingerprint=topology_fingerprint(topo),
        num_machines=topo.num_machines,
        msize=AAPC_MSIZE,
        params={"seed": AAPC_SEED, "allocator": "incremental"},
        algorithms=dict(_LEDGER_ENTRIES),
    )
    RunLedger(SCALING_LEDGER_DIR).append(record)


@pytest.mark.slow
def test_allocator_speedup_128rank(emit):
    """128-rank bruck: incremental allocator >= 5x the reference filler.

    Both allocators must agree on the simulated completion time to
    1e-9 relative (the differential suite locks the full rate vector;
    this is the cheap end-to-end cross-check at scale).
    """
    topo = cluster(128)
    ref, ref_wall = _timed_aapc(topo, "bruck", "reference")
    inc, inc_wall = _timed_aapc(topo, "bruck", "incremental")
    assert inc.completion_time == pytest.approx(
        ref.completion_time, rel=1e-9
    )
    speedup = ref_wall / inc_wall
    _LEDGER_ENTRIES["bruck-128"] = AlgorithmEntry(
        completion_time_ms=inc.completion_time * 1e3,
        sim_wall_ms=inc_wall * 1e3,
    )
    _LEDGER_ENTRIES["bruck-128-reference"] = AlgorithmEntry(
        completion_time_ms=ref.completion_time * 1e3,
        sim_wall_ms=ref_wall * 1e3,
    )
    emit(
        "allocator_speedup_128",
        "\n".join(
            [
                "128-rank bruck AAPC, 64 KiB, engine-loop wall clock:",
                "",
                f"  reference allocator:   {ref_wall:8.2f}s",
                f"  incremental allocator: {inc_wall:8.2f}s",
                f"  speedup:               {speedup:8.2f}x  (floor {MIN_SPEEDUP_128:.0f}x)",
                f"  simulated completion:  {inc.completion_time * 1e3:8.2f} ms (both allocators)",
            ]
        ),
    )
    assert inc_wall <= BUDGET_128_S, (
        f"128-rank engine loop took {inc_wall:.1f}s > {BUDGET_128_S:.0f}s budget"
    )
    assert speedup >= MIN_SPEEDUP_128, (
        f"incremental allocator only {speedup:.2f}x faster than reference "
        f"at 128 ranks (floor {MIN_SPEEDUP_128:.0f}x)"
    )


@pytest.mark.slow
def test_generated_512rank_setup_budget(emit):
    """The paper's routine builds at 512 ranks inside the setup and
    peak-RSS budgets, and simulating it stays under the build's memory
    high-water mark.

    One ``build_programs`` call covers the whole generator: root,
    global schedule, assignment, verification, sync plan and program
    emission.  The phase count must still equal the bottleneck load.
    The contention-free run that follows frees each request and flow as
    it finishes, so it fits in what the build already took.
    """
    topo = cluster(512)
    algorithm = GeneratedAlltoall()
    registry = MetricsRegistry()
    t0 = time.perf_counter()
    with registry.activate():
        programs = algorithm.build_programs(topo, AAPC_MSIZE)
    wall = time.perf_counter() - t0
    spans = registry.report()
    phases = algorithm.last_schedule.num_phases
    built_mb = _peak_rss_mb()
    t0 = time.perf_counter()
    result = run_programs(
        topo, programs, AAPC_MSIZE, NetworkParams(seed=AAPC_SEED)
    )
    sim_wall = time.perf_counter() - t0
    sim_growth_mb = _peak_rss_mb() - built_mb
    reduction = spans.span("transitive_reduction")
    emit(
        "generated_setup_512",
        "\n".join(
            [
                "512-rank generated routine, star_of_switches([128]*4):",
                "",
                f"  setup wall clock: {wall:8.2f}s  (budget {BUDGET_GEN_512_S:.0f}s)",
                f"    verify:         {spans.total('verify_schedule'):8.2f}s",
                f"    sync plan:      {spans.total('sync_plan'):8.2f}s",
                f"      dependences:  {spans.total('dependence_graph'):8.2f}s",
                f"      reduction:    {spans.total('transitive_reduction'):8.2f}s"
                f"  (peak {reduction.counters['chain_index_peak_rows']} live index rows)",
                f"  phases:           {phases:>10d}",
                f"  kept syncs:       {len(algorithm.last_sync_plan.syncs):>10d}",
                f"  program ops:      {sum(len(p) for p in programs.values()):>10d}",
                f"  sim wall clock:   {sim_wall:8.2f}s",
                f"  peak RSS, built:  {built_mb:8.1f} MB  (budget {BUDGET_GEN_512_BUILT_MB:.0f} MB)",
                f"  sim RSS growth:   {sim_growth_mb:8.1f} MB  (budget {BUDGET_GEN_512_SIM_MB:.0f} MB)",
            ]
        ),
    )
    assert phases == aapc_load(topo)
    assert wall <= BUDGET_GEN_512_S, (
        f"512-rank generator took {wall:.1f}s > {BUDGET_GEN_512_S:.0f}s budget"
    )
    assert built_mb <= BUDGET_GEN_512_BUILT_MB, (
        f"building the 512-rank routine peaked at {built_mb:.0f} MB RSS "
        f"> {BUDGET_GEN_512_BUILT_MB:.0f} MB budget"
    )
    assert result.max_edge_multiplexing == 1
    assert sim_growth_mb <= BUDGET_GEN_512_SIM_MB, (
        f"512-rank simulation raised peak RSS by {sim_growth_mb:.0f} MB "
        f"> {BUDGET_GEN_512_SIM_MB:.0f} MB budget"
    )


@pytest.mark.slow
def test_cluster_scale_1024rank_budget(emit):
    """1024-rank bruck AAPC completes inside the wall-clock budget.

    The run (and any earlier scale points from this module) is recorded
    in the ledger with ``sim_wall_ms``; CI's ``report regress`` gate
    compares it against the committed ``baseline_scaling.json``.
    """
    topo = cluster(1024)
    result, wall = _timed_aapc(topo, "bruck", "incremental")
    _LEDGER_ENTRIES["bruck-1024"] = AlgorithmEntry(
        completion_time_ms=result.completion_time * 1e3,
        sim_wall_ms=wall * 1e3,
    )
    _record_scale_sweep(topo)
    emit(
        "cluster_scale_1024",
        "\n".join(
            [
                "1024-rank bruck AAPC, 64 KiB, incremental allocator:",
                "",
                f"  engine-loop wall clock: {wall:8.2f}s  (budget {BUDGET_1024_S:.0f}s)",
                f"  simulated completion:   {result.completion_time:8.2f} s",
                f"  engine events:          {result.events_processed:>10d}",
                f"  bytes delivered:        {result.bytes_delivered:.3e}",
            ]
        ),
    )
    assert len(result.rank_finish) == 1024
    assert wall <= BUDGET_1024_S, (
        f"1024-rank engine loop took {wall:.1f}s > {BUDGET_1024_S:.0f}s budget"
    )
