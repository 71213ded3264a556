"""Execute per-rank op programs on the simulated cluster.

:func:`run_programs` is the bridge between the scheduling world
(:mod:`repro.core.program`) and the simulator: it spawns one coroutine
per rank that interprets the rank's operation sequence against
:class:`~repro.sim.mpi.SimMPI`, charges jittered software overheads for
each posted operation, and reports completion times plus
data-correctness results.

The rank interpreter dispatches on ``op.kind is`` against local
constants and pays only for what is watched: trace records are built
only when a bus observes the run, and what each rank is parked on is
kept only when a fault injector (its watchdog and crashes) can read
it.

Data correctness: every data receive records the logical AAPC blocks it
carried that are addressed to its rank, as a set plus a count of
arrivals; at the end each rank must have received every block addressed
to it exactly once (forwarding algorithms like Bruck may also carry
blocks in transit — those are not kept).

A run allocates no reference cycles, so the engine runs with the cyclic
collector paused.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import compress
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import ProgramError, SimulationError, StallError
from repro.core.program import Block, Op, OpKind, Program
from repro.obs.bus import EventBus, LinkOccupancy
from repro.obs.link_metrics import LinkMetricsCollector
from repro.obs.metrics_registry import active_registry
from repro.obs.monitor import MonitorConfig, RunMonitor
from repro.obs.telemetry import EngineStats, RunTelemetry
from repro.sim.engine import Engine, SimEvent, gc_paused
from repro.sim.mpi import Request, SimMPI
from repro.sim.network import FlowNetwork
from repro.sim.params import NetworkParams
from repro.sim.trace import Trace, TraceRecord
from repro.topology.graph import Topology

if False:  # typing only — keep repro.sim import-light when faults are unused
    from repro.faults.plan import FaultPlan

#: A block is (origin, destination).
_DESTINATION = itemgetter(1)


@dataclass
class RunResult:
    """Outcome of one simulated collective."""

    #: Wall-clock (simulated) completion time: last rank finish time.
    completion_time: float
    #: Per-rank finish times.
    rank_finish: Dict[str, float]
    #: Blocks received per rank (destination-addressed only).
    received_blocks: Dict[str, Set[Block]]
    #: Network statistics.
    peak_concurrent_flows: int
    max_edge_multiplexing: int
    bytes_delivered: float
    events_processed: int
    #: Bytes transported per directed edge over the whole run.
    edge_bytes: Dict[Tuple[str, str], float] = field(default_factory=dict)
    trace: Optional[Trace] = None
    #: Flight-recorder bundle (``run_programs(..., telemetry=True)``).
    telemetry: Optional[RunTelemetry] = None
    #: Final hot-path metrics snapshot (``stats`` envelope dict), when a
    #: :class:`~repro.obs.metrics_registry.MetricsRegistry` was active.
    stats: Optional[Dict[str, object]] = None
    #: What the fault injector did to this run (fault injection only).
    fault_stats: Optional[Dict[str, int]] = None
    #: Ranks that crashed mid-run (crash-at-time faults).
    crashed_ranks: Tuple[str, ...] = ()

    def aggregate_throughput(self, num_machines: int, msize: int) -> float:
        """Realised aggregate throughput in bytes/second (paper metric)."""
        if self.completion_time <= 0:
            raise SimulationError("zero completion time")
        total = num_machines * (num_machines - 1) * msize
        return total / self.completion_time

    def link_utilization(self, bandwidth: float) -> Dict[Tuple[str, str], float]:
        """Per directed edge: mean utilization of the raw link bandwidth.

        The bottleneck link of a well-scheduled AAPC should sit near the
        achievable goodput fraction (``base_efficiency``); big gaps mean
        the algorithm leaves the bottleneck idle.
        """
        if self.completion_time <= 0:
            raise SimulationError("zero completion time")
        return {
            edge: nbytes / (bandwidth * self.completion_time)
            for edge, nbytes in self.edge_bytes.items()
        }


def run_programs(
    topology: Topology,
    programs: Dict[str, Program],
    msize: int,
    params: NetworkParams,
    *,
    trace: bool = False,
    telemetry: bool = False,
    max_trace_records: Optional[int] = None,
    check_delivery: bool = True,
    expected_blocks: Optional[Dict[str, Set[Block]]] = None,
    link_bandwidths: Optional[Dict[Tuple[str, str], float]] = None,
    faults: Optional["FaultPlan"] = None,
    monitor: Optional[MonitorConfig] = None,
) -> RunResult:
    """Simulate the programs and return timing plus correctness results.

    Parameters
    ----------
    msize:
        Per-block message size in bytes; an operation carrying ``k``
        blocks moves ``k * msize`` bytes unless it sets an explicit
        ``nbytes``.
    trace:
        Record per-rank operation events into ``result.trace``.
    telemetry:
        Full flight recorder: implies *trace*, additionally collects
        per-link/per-flow metrics into ``result.telemetry`` (a
        :class:`~repro.obs.telemetry.RunTelemetry`, whose
        ``phase_windows`` give the per-phase view).
    max_trace_records:
        Optional ring-buffer cap on the trace (see :class:`Trace`).
    check_delivery:
        Verify every rank received every block addressed to it.
    expected_blocks:
        Per-rank expected block sets for the delivery check.  Defaults
        to the AAPC pattern (every rank gets one block from every other
        rank); collectives with different semantics (broadcast,
        allgather, irregular patterns) pass their own expectation.
    link_bandwidths:
        Optional per-physical-link bandwidth overrides (bytes/second)
        for heterogeneous clusters; see :class:`FlowNetwork`.
    faults:
        Optional :class:`~repro.faults.plan.FaultPlan`.  Link capacities
        degrade per the plan, sync messages are lost/delayed/duplicated
        (and retransmitted with bounded backoff), stragglers slow down
        and crashed ranks stop.  A non-empty plan arms the stall
        watchdog (default :class:`~repro.faults.watchdog.WatchdogConfig`):
        a run that stops making progress raises
        :class:`~repro.errors.StallError` carrying a
        :class:`~repro.faults.watchdog.StallDiagnosis` instead of
        hanging or dying with an unexplained deadlock.
    monitor:
        Optional :class:`~repro.obs.monitor.MonitorConfig`.  A
        :class:`~repro.obs.monitor.RunMonitor` then emits periodic live
        :class:`~repro.obs.metrics_registry.MetricsSnapshot` events
        (plus one final snapshot) on the run's bus and to the config's
        ``on_snapshot`` callback.
    """
    machines = list(topology.machines)
    missing = [m for m in machines if m not in programs]
    if missing:
        raise ProgramError(f"no program for machines {missing}")

    observing = trace or telemetry
    bus = EventBus() if observing else None
    engine = Engine()
    # One master RNG seeds every stochastic path (per-rank noise streams
    # and the fault injector) so identical seeds replay byte-identically.
    rng = random.Random(params.seed)

    injector = None
    fault_windows: List[object] = []
    sync_disruptions: List[object] = []
    if faults is not None and not faults.empty:
        from repro.faults.injector import FaultInjector
        from repro.faults.events import (
            FaultWindow,
            SyncAbandoned,
            SyncDisrupted,
            SyncRetransmit,
        )

        faults.validate_against(topology)
        if bus is not None and telemetry:
            bus.subscribe(FaultWindow, fault_windows.append)
            for ev in (SyncDisrupted, SyncRetransmit, SyncAbandoned):
                bus.subscribe(ev, sync_disruptions.append)
        injector = FaultInjector(
            faults,
            topology,
            rng=random.Random(rng.getrandbits(64) ^ faults.seed),
            bus=bus,
        )
        injector.publish_windows()

    network = FlowNetwork(
        engine, topology, params, link_bandwidths, bus=bus,
        injector=injector,
    )
    mpi = SimMPI(engine, network, params, injector=injector, bus=bus)
    run_trace = Trace(max_records=max_trace_records)
    collector: Optional[LinkMetricsCollector] = None
    occupancy_log: List[LinkOccupancy] = []
    if bus is not None:
        run_trace.attach(bus)
        if telemetry:
            collector = LinkMetricsCollector(bus)
            bus.subscribe(LinkOccupancy, occupancy_log.append)
        _publish = bus.publish

    def emit(rank: str, what: str, peer: str = "", tag: int = 0,
             phase: int = -1) -> None:
        """Trace one rank event; call only when ``observing``."""
        _publish(TraceRecord(engine.now, rank, what, peer, tag, phase))

    rank_finish: Dict[str, float] = {}
    # The delivery ledger: per rank, the blocks addressed to it that
    # arrived, and how many arrivals there were (a duplicate shows as a
    # count above the set's size).  Blocks in transit are not kept.
    received: Dict[str, Set[Block]] = {m: set() for m in machines}
    arrivals: Dict[str, int] = dict.fromkeys(machines, 0)

    # Pre-draw each rank's noise stream and persistent speed factor so
    # spawn order cannot change the random sequence a rank observes
    # (determinism per seed).
    rank_rngs = {m: random.Random(rng.getrandbits(64)) for m in machines}
    speed_factor = {
        m: (1.0 + params.rank_speed_spread * rank_rngs[m].random())
        * params.speed_override(m)
        for m in machines
    }

    def overhead(rank: str) -> float:
        r = rank_rngs[rank]
        base = params.post_overhead * speed_factor[rank]
        if params.jitter > 0:
            base *= 1.0 + params.jitter * r.random()
        if params.stall_prob > 0 and r.random() < params.stall_prob:
            base += r.expovariate(1.0 / params.stall_mean)
        if injector is not None:
            base *= injector.overhead_factor(rank, engine.now)
        return base

    # Progress accounting for the stall watchdog: ops_completed ticks on
    # every finished operation (the network counts finished flows and
    # knows which still move); rank_state remembers what each rank is
    # currently parked on so a stall can be attributed to a phase and a
    # pending sync edge rather than just "it hung".  Only the watchdog
    # and crashes read rank_state, and only crashes fill crashed, so a
    # fault-free run keeps neither.
    ops_completed = [0]
    rank_state: Dict[str, Tuple[int, Op, float]] = {}
    crashed: Set[str] = set()
    faulty = injector is not None

    # The interpreter dispatches on ``kind is`` against locals.
    ISEND, SEND, IRECV, RECV = (
        OpKind.ISEND, OpKind.SEND, OpKind.IRECV, OpKind.RECV
    )
    WAITALL, SYNC_SEND, SYNC_RECV, BARRIER = (
        OpKind.WAITALL, OpKind.SYNC_SEND, OpKind.SYNC_RECV, OpKind.BARRIER
    )
    isend, irecv = mpi.isend, mpi.irecv
    sync_send, sync_recv = mpi.sync_send, mpi.sync_recv

    def rank_process(rank: str, program: Program):
        pending: List[Request] = []
        for op_index, op in enumerate(program.ops):
            if faulty:
                if rank in crashed:
                    return
                rank_state[rank] = (op_index, op, engine.now)
            kind = op.kind
            if kind is ISEND or kind is SEND:
                yield overhead(rank)
                if observing:
                    emit(rank, "post_send", op.peer, op.tag, op.phase)
                req = isend(
                    rank, op.peer, op.tag, op.wire_size(msize), op.blocks,
                    phase=op.phase,
                )
                if kind is SEND:
                    if not req.done:
                        yield req.event
                    if observing:
                        emit(rank, "complete_send", op.peer, op.tag, op.phase)
                else:
                    pending.append(req)
            elif kind is IRECV or kind is RECV:
                yield overhead(rank)
                if observing:
                    emit(rank, "post_recv", op.peer, op.tag, op.phase)
                req = irecv(rank, op.peer, op.tag, phase=op.phase)
                if kind is RECV:
                    if not req.done:
                        yield req.event
                    _record_blocks(rank, req)
                    if observing:
                        emit(rank, "complete_recv", op.peer, op.tag, op.phase)
                else:
                    pending.append(req)
            elif kind is WAITALL:
                for req in pending:
                    if not req.done:
                        yield req.event
                    if req.kind == "recv":
                        _record_blocks(rank, req)
                if observing:
                    emit(rank, "waitall_done", "", 0, op.phase)
                pending = []
            elif kind is SYNC_SEND:
                yield overhead(rank)
                if observing:
                    emit(rank, "sync_send", op.peer, op.tag, op.phase)
                sync_send(rank, op.peer, op.tag, op.phase)
            elif kind is SYNC_RECV:
                if observing:
                    emit(rank, "sync_wait", op.peer, op.tag, op.phase)
                yield sync_recv(rank, op.peer, op.tag, op.phase)
                if observing:
                    emit(rank, "sync_recv", op.peer, op.tag, op.phase)
            elif kind is BARRIER:
                yield mpi.barrier(len(machines))
                if observing:
                    emit(rank, "barrier", "", 0, op.phase)
            else:  # pragma: no cover - exhaustive over OpKind
                raise ProgramError(f"unknown op kind {op.kind!r}")
            ops_completed[0] += 1
        if pending:
            raise ProgramError(
                f"rank {rank} ended with {len(pending)} unwaited requests"
            )
        if faulty:
            rank_state.pop(rank, None)
        rank_finish[rank] = engine.now

    def _record_blocks(rank: str, req: Request) -> None:
        blocks = req.blocks
        addressed = list(
            compress(blocks, map(rank.__eq__, map(_DESTINATION, blocks)))
        )
        if addressed:
            received[rank].update(addressed)
            arrivals[rank] += len(addressed)

    def all_done() -> bool:
        return all(m in rank_finish or m in crashed for m in machines)

    def diagnose(now: float):
        """Build the stall diagnosis from executor + MPI + injector state."""
        from repro.faults.watchdog import (
            BlockedRank,
            PendingSyncEdge,
            StallDiagnosis,
        )

        blocked: List[BlockedRank] = []
        for m in machines:
            if m in rank_finish or m in crashed:
                continue
            state = rank_state.get(m)
            if state is None:
                continue
            op_index, op, since = state
            blocked.append(
                BlockedRank(
                    m, op_index, op.kind.value, op.peer, op.tag, op.phase,
                    since,
                )
            )
        pending: List[PendingSyncEdge] = []
        for (src, dst, tag), entry in sorted(mpi.pending_syncs.items()):
            edge = (
                injector.path_control_blocked(src, dst, now)
                if injector is not None
                else None
            )
            pending.append(
                PendingSyncEdge(
                    src, dst, tag,
                    int(entry.get("phase", -1)),
                    str(entry.get("state", "in-flight")),
                    int(entry.get("attempts", 0)),
                    edge,
                )
            )
        for src, dst, tag, phase, state in sorted(mpi.unmatched_sync_edges()):
            edge = (
                injector.path_control_blocked(src, dst, now)
                if injector is not None
                else None
            )
            pending.append(
                PendingSyncEdge(src, dst, tag, phase, state, 0, edge)
            )
        active = injector.active_faults(now) if injector is not None else []
        abandoned = [p for p in pending if p.state == "abandoned"]
        link_blocked = [p for p in pending if p.blocked_edge is not None]
        if crashed:
            cause = f"rank(s) {sorted(crashed)} crashed; peers wait forever"
        elif abandoned:
            p = abandoned[0]
            cause = (
                f"sync {p.src}->{p.dst} (phase {p.phase}) abandoned after "
                f"{p.attempts} attempts"
            )
            if p.blocked_edge:
                cause += (
                    f" — failed link {p.blocked_edge[0]}<->{p.blocked_edge[1]}"
                    " drops all control messages"
                )
        elif link_blocked:
            p = link_blocked[0]
            cause = (
                f"failed link {p.blocked_edge[0]}<->{p.blocked_edge[1]} is "
                f"dropping sync {p.src}->{p.dst} (phase {p.phase})"
            )
        elif active:
            cause = "active fault(s): " + "; ".join(active[:3])
        else:
            cause = "no active fault — possible schedule deadlock"
        return StallDiagnosis(
            time=now,
            blocked=blocked,
            pending_syncs=pending,
            crashed_ranks=sorted(crashed),
            active_faults=active,
            suspected_cause=cause,
            # Destination-addressed blocks already delivered — the
            # complement is the residual pair set schedule repair
            # re-partitions for a mid-run resume.
            completed_pairs=sorted(
                (b[0], b[1]) for rank in machines for b in received[rank]
            ),
        )

    if injector is not None:
        from repro.faults.events import RankCrashed
        from repro.faults.watchdog import StallWatchdog, WatchdogConfig

        StallWatchdog(
            engine,
            WatchdogConfig(),
            progress=lambda: ops_completed[0] + network.flows_finished,
            moving=network.flows_moving,
            diagnose=diagnose,
            all_done=all_done,
        ).start()

        def make_crash(rank: str):
            def crash() -> None:
                if rank in rank_finish or rank in crashed:
                    return
                crashed.add(rank)
                injector.stats.ranks_crashed += 1
                state = rank_state.get(rank)
                op_index = state[0] if state else -1
                phase = state[1].phase if state else -1
                if observing:
                    emit(rank, "crashed", "", 0, phase)
                    bus.publish(
                        RankCrashed(engine.now, rank, op_index, phase)
                    )

            return crash

        for m in machines:
            t = injector.crash_time(m)
            if t is not None:
                engine.schedule(t, make_crash(m))

    total_ops = sum(len(p.ops) for p in programs.values())
    run_monitor: Optional[RunMonitor] = None
    if monitor is not None:
        run_monitor = RunMonitor(
            engine,
            network,
            monitor,
            registry=active_registry(),
            bus=bus,
            progress=lambda: (ops_completed[0], total_ops),
            all_done=all_done,
        )
        run_monitor.start()

    for m in machines:
        engine.spawn(rank_process(m, programs[m]))
    # The run allocates a young object per event, flow and request, and
    # none of them form reference cycles (the executor tests check that
    # a run leaves no cyclic garbage), so it runs with the collector
    # paused.
    try:
        with gc_paused():
            engine.run()
            # Byte accounting is lazy per flow; catch up before anything
            # below reads the ledgers (only matters when flows are still
            # in flight — stalls, crashes).
            network.sync_progress()
            if run_monitor is not None:
                run_monitor.emit()
                run_monitor.stop()
    finally:
        network.close()

    unfinished = [
        m for m in machines if m not in rank_finish and m not in crashed
    ]
    if unfinished:
        if injector is not None:
            diagnosis = diagnose(engine.now)
            raise StallError(
                f"ranks {unfinished[:5]} never finished "
                f"({len(unfinished)} total); {diagnosis.summary()}",
                diagnosis,
            )
        raise SimulationError(
            f"deadlock: ranks {unfinished[:5]} never finished "
            f"({len(unfinished)} total)"
        )
    if not crashed:
        mpi.assert_drained()

    if check_delivery and not crashed:
        _check_delivery(machines, received, arrivals, expected_blocks)

    completion = max(rank_finish.values()) if rank_finish else 0.0

    registry = active_registry()
    run_stats: Optional[Dict[str, object]] = (
        registry.snapshot(sim_time=completion).as_dict()
        if registry is not None
        else None
    )

    run_telemetry: Optional[RunTelemetry] = None
    if collector is not None:
        assert bus is not None
        collector.finalize(engine.now)
        links_report = collector.report(
            completion, network.edge_bytes, params.bandwidth, link_bandwidths
        )
        run_telemetry = RunTelemetry(
            completion_time=completion,
            machines=tuple(machines),
            bandwidth=params.bandwidth,
            trace=run_trace,
            links=links_report,
            engine=EngineStats(
                events_processed=engine.events_processed,
                peak_heap_depth=engine.peak_heap_depth,
                bus_events=bus.events_published,
            ),
            occupancy=occupancy_log,
            faults=tuple(fault_windows),
            sync_disruptions=tuple(sync_disruptions),
            fault_stats=(
                injector.stats.as_dict() if injector is not None else None
            ),
            msize=msize,
            params=params,
            link_bandwidths=(
                dict(link_bandwidths) if link_bandwidths else None
            ),
            stats=run_stats,
        )

    return RunResult(
        completion_time=completion,
        rank_finish=rank_finish,
        received_blocks=received,
        peak_concurrent_flows=network.peak_concurrent_flows,
        max_edge_multiplexing=network.max_edge_multiplexing,
        bytes_delivered=network.bytes_delivered,
        events_processed=engine.events_processed,
        edge_bytes=dict(network.edge_bytes),
        trace=run_trace if observing else None,
        telemetry=run_telemetry,
        fault_stats=injector.stats.as_dict() if injector is not None else None,
        crashed_ranks=tuple(sorted(crashed)),
        stats=run_stats,
    )


def _check_delivery(
    machines: Sequence[str],
    received: Dict[str, Set[Block]],
    arrivals: Dict[str, int],
    expected_blocks: Optional[Dict[str, Set[Block]]] = None,
) -> None:
    for rank in machines:
        if expected_blocks is not None:
            expected = expected_blocks.get(rank, set())
        else:
            expected = {(src, rank) for src in machines if src != rank}
        got = received[rank]
        if got != expected:
            missing = sorted(expected - got)[:5]
            extra = sorted(got - expected)[:5]
            raise SimulationError(
                f"rank {rank} delivery mismatch: missing {missing}, "
                f"unexpected {extra}"
            )
        if arrivals[rank] != len(expected):
            raise SimulationError(
                f"rank {rank} received {arrivals[rank]} addressed blocks, "
                f"expected {len(expected)} (duplicate delivery)"
            )
