#!/usr/bin/env python
"""Build an adaptive MPI_Alltoall dispatch table for one cluster.

MPICH adapts its algorithm by message size but ignores topology; the
paper's routine is topology-optimal but pays per-phase synchronization
overhead at small sizes.  A production library wants both: measure once
per cluster, then dispatch by size.  This example sweeps message sizes
on the paper's topology (c), prints the measured crossovers, and emits
the dispatch table a generated library would embed.

Run:  python examples/adaptive_selection.py
"""

from repro.algorithms.autotuned import AutoTunedAlltoall
from repro.topology.builder import topology_c
from repro.topology.serialization import dumps_topology
from repro.units import format_size, kib, seconds_to_ms

SIZES = [256, kib(1), kib(4), kib(8), kib(16), kib(32), kib(64), kib(128), kib(256)]


def main() -> None:
    topo = topology_c()
    # average two seeds per candidate, like the paper averages executions
    tuner = AutoTunedAlltoall(repetitions=2)
    print("measuring MPI_Alltoall candidates on topology (c) "
          f"({topo.num_machines} machines, chain of {topo.num_switches} switches)\n")

    header = f"{'msize':>8}" + "".join(f"{n:>12}" for n in tuner.candidates) + "   best"
    print(header)
    key = dumps_topology(topo)
    for msize in SIZES:
        best = tuner.tune(topo, msize)
        row = tuner.measurements[(key, msize)]
        cells = "".join(
            f"{seconds_to_ms(row[n]):>10.1f}ms" for n in tuner.candidates
        )
        print(f"{format_size(msize):>8}{cells}   {best}")

    # Collapse runs of equal winners into threshold rules.
    print("\ngenerated dispatch table:")
    dispatch = tuner.dispatch_table(topo)
    start = 0
    for i in range(1, len(dispatch) + 1):
        if i == len(dispatch) or dispatch[i][1] != dispatch[start][1]:
            lo = format_size(dispatch[start][0])
            hi = format_size(dispatch[i - 1][0])
            span = lo if lo == hi else f"{lo}..{hi}"
            print(f"  msize {span:>14} -> {dispatch[start][1]}")
            start = i
    print("\n(the generated routine owns the large-message regime; latency-"
          "oriented algorithms own the small one — the paper's conclusion.)")


if __name__ == "__main__":
    main()
