#!/usr/bin/env python
"""The paper's workflow end to end: topology file in, C routine out.

The paper: "we implement an automatic routine generator that takes the
topology information as input and produces a customized MPI_Alltoall
routine".  This example is that generator: it reads a cluster
description in the text format of :mod:`repro.topology.serialization`,
builds and verifies the contention-free schedule, plans the pair-wise
synchronizations, and writes a compilable C translation unit next to a
schedule report.

Run:  python examples/routine_generator.py [cluster.topo] [out.c]
      (with no arguments it generates for a bundled example cluster)
"""

import sys
import tempfile

from repro import build_programs, build_sync_plan, schedule_aapc
from repro.core.codegen import generate_c_routine
from repro.topology.analysis import aapc_load, peak_aggregate_throughput
from repro.topology.serialization import load_topology, loads_topology
from repro.units import bytes_per_sec_to_mbps, mbps

#: A 12-machine, 3-switch cluster a site operator might describe.
EXAMPLE_CLUSTER = """
# Building-A wiring closet: two leaf switches uplinked to a core switch.
switch core leaf1 leaf2
machine a0 a1 a2 a3           # rack A, on leaf1
machine b0 b1 b2 b3           # rack B, on leaf2
machine c0 c1 c2 c3           # head nodes, directly on the core
link core leaf1
link core leaf2
link leaf1 a0
link leaf1 a1
link leaf1 a2
link leaf1 a3
link leaf2 b0
link leaf2 b1
link leaf2 b2
link leaf2 b3
link core c0
link core c1
link core c2
link core c3
"""


def main() -> None:
    if len(sys.argv) >= 2:
        topo = load_topology(sys.argv[1])
        source_name = sys.argv[1]
    else:
        topo = loads_topology(EXAMPLE_CLUSTER)
        source_name = "<bundled example cluster>"
    out_path = (
        sys.argv[2]
        if len(sys.argv) >= 3
        else tempfile.mktemp(prefix="alltoall_generated_", suffix=".c")
    )

    print(f"topology: {source_name}")
    print(f"  machines: {topo.num_machines}  switches: {topo.num_switches}")
    load = aapc_load(topo)
    peak = peak_aggregate_throughput(topo, mbps(100))
    print(f"  AAPC load: {load}   peak aggregate throughput "
          f"@100Mbps: {bytes_per_sec_to_mbps(peak):.1f} Mbps")

    schedule = schedule_aapc(topo)  # verified: contention-free + optimal
    plan = build_sync_plan(schedule)
    print(f"\nschedule: {schedule.num_phases} phases "
          f"(provably minimal), {len(schedule)} messages")
    print(f"sync messages after redundancy elimination: {len(plan.syncs)} "
          f"(naive plan would use {plan.stats.num_before_reduction})")

    programs = build_programs(schedule, plan)
    source = generate_c_routine(programs, topo.machines)
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(source)
    print(f"\nwrote {out_path} ({len(source.splitlines())} lines of C)")
    print("link it into your MPI application and call Alltoall_generated() "
          "in place of MPI_Alltoall for this cluster.")


if __name__ == "__main__":
    main()
