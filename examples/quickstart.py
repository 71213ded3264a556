#!/usr/bin/env python
"""Quickstart: schedule, verify, synchronize and simulate AAPC.

Walks the paper's whole pipeline on the Figure 1 example cluster:

1. model the cluster and find its bottleneck,
2. build the contention-free phased schedule (Table 4),
3. plan the pair-wise synchronizations (Section 5),
4. simulate the generated routine against LAM and MPICH,
5. emit a snippet of the generated C routine.

Run:  python examples/quickstart.py
"""

from repro import (
    NetworkParams,
    build_programs,
    build_sync_plan,
    get_algorithm,
    paper_example_cluster,
    run_programs,
    schedule_aapc,
)
from repro.core.codegen import generate_c_routine
from repro.topology.analysis import aapc_load, bottleneck_edges
from repro.units import bytes_per_sec_to_mbps, kib, seconds_to_ms


def main() -> None:
    # 1. The cluster from the paper's Figure 1: six machines behind
    #    four switches; the s0-s1 trunk is the bottleneck.
    topo = paper_example_cluster()
    print(f"cluster: {topo.num_machines} machines, {topo.num_switches} switches")
    print(f"AAPC bottleneck load: {aapc_load(topo)}")
    links = sorted({tuple(sorted(e)) for e in bottleneck_edges(topo)})
    print(f"bottleneck link(s): {links}")

    # 2. The optimal contention-free schedule (the paper's Table 4).
    schedule = schedule_aapc(topo, root="s1")
    print(f"\nschedule: {schedule.num_phases} phases, {len(schedule)} messages")
    print(schedule.render())

    # 3. Pair-wise synchronization plan with redundancy elimination.
    plan = build_sync_plan(schedule)
    stats = plan.stats
    print(
        f"\nsyncs: {stats.num_conflict_deps} conflict dependences -> "
        f"{stats.num_before_reduction} after program-order elision -> "
        f"{stats.num_after_reduction} sync messages after reduction"
    )

    # 4. Simulate against the baselines at a large message size.
    msize = kib(64)
    params = NetworkParams()
    print(f"\nsimulated MPI_Alltoall, msize = 64KB:")
    for name in ("lam", "mpich", "generated"):
        algorithm = get_algorithm(name)
        programs = algorithm.build_programs(topo, msize)
        result = run_programs(topo, programs, msize, params)
        throughput = result.aggregate_throughput(topo.num_machines, msize)
        print(
            f"  {algorithm.describe(topo, msize):24s}"
            f"{seconds_to_ms(result.completion_time):9.2f} ms"
            f"{bytes_per_sec_to_mbps(throughput):9.1f} Mbps aggregate"
            f"   max link multiplexing {result.max_edge_multiplexing}"
        )

    # 5. The artifact the paper's generator produces: a C routine.
    programs = build_programs(schedule, plan)
    source = generate_c_routine(programs, topo.machines)
    head = "\n".join(source.splitlines()[:24])
    print(f"\ngenerated C routine ({len(source.splitlines())} lines), head:")
    print(head)


if __name__ == "__main__":
    main()
