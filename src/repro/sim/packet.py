"""Packet-level store-and-forward simulator (fluid-model validation).

The main simulator (:mod:`repro.sim.network`) is *fluid*: flows share
edges max-min fairly at infinitely fine granularity.  That is an
approximation of what a real switched-Ethernet network does —
store-and-forward of MTU-sized frames through per-output-port FIFO
queues.  This module implements the real thing at packet granularity so
the approximation can be checked:

* every directed edge has a transmitter that serialises frames at link
  bandwidth (store-and-forward: a frame is re-enqueued at the next hop
  only after its last byte arrived);
* switches are output-queued with unbounded FIFOs (no losses — loss
  behaviour is the fluid model's ``eta``, deliberately out of scope
  here: the comparison target is ``eta = 1`` fluid sharing);
* sources are closed-loop (ACK-clocked): each transfer keeps one frame
  outstanding at its first hop and enqueues the next when it finishes
  transmitting, so competing transfers interleave frame-by-frame at
  shared ports — the packetised analogue of fair sharing.

The cross-validation tests (``tests/sim/test_packet.py``) assert the
two models agree on completion times within MTU-quantisation error for
single transfers, source-contended transfers, trunk-sharing
*permutation* traffic (distinct sources and destinations — exactly the
shape of the paper's contention-free AAPC phases), and whole schedule
phases.  On multi-bottleneck scenarios the models *provably* differ:
FIFO ports serve flows proportionally to their arrival rates while
max-min equalises them; both are approximations of TCP, and a test
documents the divergence bound.  Since the benchmark regime either is
permutation traffic (the generated routine) or has its fairness fine
structure dominated by the calibrated ``eta`` collapse (the contended
baselines), the fluid model is the right tool for the experiments.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.errors import SimulationError
from repro.sim.engine import Engine
from repro.topology.graph import Edge, Topology
from repro.topology.paths import PathOracle

#: Standard Ethernet payload per frame.
DEFAULT_MTU = 1500


@dataclass
class Transfer:
    """One unicast transfer, packetised at injection."""

    tid: int
    src: str
    dst: str
    nbytes: int
    start_time: float
    end_time: Optional[float] = None
    packets_remaining: int = 0


class _Port:
    """A directed edge's transmitter: FIFO queue + busy flag."""

    __slots__ = ("queue", "busy")

    def __init__(self) -> None:
        self.queue: Deque[Tuple[int, int, int]] = deque()  # (tid, size, hop)
        self.busy = False


class PacketNetwork:
    """Store-and-forward frame simulation over a tree topology."""

    def __init__(
        self,
        engine: Engine,
        topology: Topology,
        bandwidth: float,
        *,
        mtu: int = DEFAULT_MTU,
    ) -> None:
        if bandwidth <= 0:
            raise SimulationError("bandwidth must be positive")
        if mtu <= 0:
            raise SimulationError("mtu must be positive")
        self.engine = engine
        self.topology = topology
        self.bandwidth = bandwidth
        self.mtu = mtu
        self.oracle = PathOracle(topology)
        self._ports: Dict[Edge, _Port] = {
            e: _Port() for e in topology.directed_edges()
        }
        self._transfers: Dict[int, Transfer] = {}
        self._routes: Dict[int, Tuple[Edge, ...]] = {}
        self._pending_frames: Dict[int, Deque[int]] = {}
        self._next_tid = 0
        self._on_complete: Dict[int, Callable[[Transfer], None]] = {}
        self.frames_forwarded = 0

    # ------------------------------------------------------------------
    def start_transfer(
        self,
        src: str,
        dst: str,
        nbytes: int,
        on_complete: Callable[[Transfer], None] = lambda t: None,
    ) -> Transfer:
        """Inject a transfer; frames enqueue back-to-back at the source."""
        if nbytes <= 0:
            raise SimulationError("transfer size must be positive")
        route = self.oracle.path_edges(src, dst)
        if not route:
            raise SimulationError(f"no path from {src!r} to {dst!r}")
        transfer = Transfer(
            self._next_tid, src, dst, nbytes, self.engine.now
        )
        self._next_tid += 1
        full, tail = divmod(nbytes, self.mtu)
        sizes = [self.mtu] * full + ([tail] if tail else [])
        transfer.packets_remaining = len(sizes)
        self._transfers[transfer.tid] = transfer
        self._routes[transfer.tid] = route
        self._on_complete[transfer.tid] = on_complete
        # Closed-loop source: only the head frame sits in the first-hop
        # queue; the rest wait in the transfer's pending list.
        pending = deque(sizes)
        self._pending_frames[transfer.tid] = pending
        first = pending.popleft()
        self._ports[route[0]].queue.append((transfer.tid, first, 0))
        self._kick(route[0])
        return transfer

    # ------------------------------------------------------------------
    def _kick(self, edge: Edge) -> None:
        port = self._ports[edge]
        if port.busy or not port.queue:
            return
        port.busy = True
        tid, size, hop = port.queue.popleft()
        delay = size / self.bandwidth

        def done() -> None:
            port.busy = False
            self.frames_forwarded += 1
            if hop == 0:
                # source ACK clock: release the transfer's next frame
                pending = self._pending_frames[tid]
                if pending:
                    nxt = pending.popleft()
                    port.queue.append((tid, nxt, 0))
            self._frame_arrived(tid, size, hop)
            self._kick(edge)

        self.engine.schedule(delay, done)

    def _frame_arrived(self, tid: int, size: int, hop: int) -> None:
        route = self._routes[tid]
        if hop + 1 < len(route):
            next_edge = route[hop + 1]
            self._ports[next_edge].queue.append((tid, size, hop + 1))
            self._kick(next_edge)
            return
        transfer = self._transfers[tid]
        transfer.packets_remaining -= 1
        if transfer.packets_remaining == 0:
            transfer.end_time = self.engine.now
            self._on_complete[tid](transfer)


def packet_completion_times(
    topology: Topology,
    transfers: List[Tuple[str, str, int]],
    bandwidth: float,
    *,
    mtu: int = DEFAULT_MTU,
) -> List[float]:
    """Convenience: run transfers injected at t=0; return completion times."""
    engine = Engine()
    network = PacketNetwork(engine, topology, bandwidth, mtu=mtu)
    done: List[Optional[float]] = [None] * len(transfers)
    for i, (src, dst, nbytes) in enumerate(transfers):
        network.start_transfer(
            src, dst, nbytes,
            lambda t, i=i: done.__setitem__(i, t.end_time),
        )
    engine.run()
    if any(d is None for d in done):
        raise SimulationError("packet simulation left transfers unfinished")
    return [float(d) for d in done]  # type: ignore[arg-type]


def fluid_completion_times(
    topology: Topology,
    transfers: List[Tuple[str, str, int]],
    bandwidth: float,
) -> List[float]:
    """The same scenario on the fluid model with eta = 1 (for comparison)."""
    from repro.sim.network import FlowNetwork
    from repro.sim.params import NetworkParams

    params = NetworkParams(
        bandwidth=bandwidth,
        base_efficiency=1.0,
        contention_floor_small=1.0,
        contention_floor_large=1.0,
        trunk_floor_small=1.0,
        trunk_floor_large=1.0,
        contention_gamma=0.0,
    ).without_noise()
    engine = Engine()
    network = FlowNetwork(engine, topology, params)
    done: List[Optional[float]] = [None] * len(transfers)
    for i, (src, dst, nbytes) in enumerate(transfers):
        network.start_flow(
            src, dst, nbytes,
            lambda f, i=i: done.__setitem__(i, f.end_time),
        )
    engine.run()
    if any(d is None for d in done):
        raise SimulationError("fluid simulation left flows unfinished")
    return [float(d) for d in done]  # type: ignore[arg-type]
