"""Discrete-event, flow-level simulator of an Ethernet switched cluster.

The paper evaluates on a real 100 Mbps Ethernet cluster; this package is
the documented substitution (DESIGN.md Section 2): a deterministic
discrete-event simulation where each in-flight message is a fluid *flow*
over its unique tree path, link bandwidth is shared max-min fairly, and
an over-subscription efficiency curve models the TCP/Ethernet goodput
collapse that makes unscheduled AAPC slow in practice.

Layers:

* :mod:`repro.sim.engine` — event heap + generator-coroutine processes.
* :mod:`repro.sim.network` — flows, max-min rate allocation, congestion.
* :mod:`repro.sim.mpi` — rendezvous/eager point-to-point with requests,
  waitall and barrier, in the style of the MPI layers the paper targets.
* :mod:`repro.sim.executor` — runs per-rank op programs and reports
  completion times plus data-correctness checks.
"""

from repro.sim.params import NetworkParams
from repro.sim.engine import Engine, SimEvent
from repro.sim.network import FlowNetwork, Flow
from repro.sim.mpi import SimMPI, Request
from repro.sim.executor import RunResult, run_programs
from repro.obs.telemetry import RunTelemetry
from repro.sim.gantt import render_rank_gantt
from repro.sim.trace import Trace, TraceRecord

__all__ = [
    "Trace",
    "TraceRecord",
    "render_rank_gantt",
    "NetworkParams",
    "Engine",
    "SimEvent",
    "FlowNetwork",
    "Flow",
    "SimMPI",
    "Request",
    "RunResult",
    "RunTelemetry",
    "run_programs",
]
