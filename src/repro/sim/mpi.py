"""Simulated MPI point-to-point layer.

Models the transport behaviour that the paper's algorithms exercise:

* **Rendezvous** for messages above the eager threshold: the transfer
  (a network flow) starts only once *both* sides have posted, after a
  handshake latency; both requests complete when the last byte lands.
  This matches large-message TCP behaviour once socket buffers are
  exhausted and is the regime AAPC scheduling targets.
* **Eager** for small messages (and the zero-byte pair-wise syncs): the
  sender's request completes right after posting; the receiver's
  completes at ``max(send_post + eager_latency, recv_post)``.  Eager
  messages do not consume modelled bandwidth.
* **Matching** by ``(source, tag, sync-ness)`` with FIFO order within a
  key, like MPI's per-communicator matching.
* **Syncs on a fault-free run** skip the requests and the match
  queues: :meth:`SimMPI.sync_send` records the sync's arrival time
  per ``(src, dst, tag)`` and :meth:`SimMPI.sync_recv` turns it into a
  delay, or an event when the receiver comes first.  The times and the
  scheduling moments are the eager path's, so runs are unchanged.
  Under fault injection syncs stay requests and take the resilience
  protocol (retransmission with backoff).
* **Barrier** as a dissemination-style delay after the last arrival.

Per-operation software overheads (with seeded jitter) are charged by the
executor, not here; this layer only handles matching and transfer
timing.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple, Union

from repro.errors import SimulationError
from repro.core.program import Block
from repro.obs.metrics_registry import active_registry
from repro.sim.engine import Engine, SimEvent
from repro.sim.network import Flow, FlowNetwork
from repro.sim.params import NetworkParams


class Request:
    """Handle for a pending send or receive.

    Its event fires without a value.  With the request as the value,
    request and event would form a reference cycle; without it, a
    finished request is freed by reference counting, never by the
    cyclic collector.
    """

    __slots__ = ("event", "kind", "rank", "peer", "tag", "nbytes", "blocks", "post_time", "arrival_event", "phase")

    def __init__(
        self,
        event: SimEvent,
        kind: str,
        rank: str,
        peer: str,
        tag: int,
        nbytes: int,
        blocks: Tuple[Block, ...],
        phase: int = -1,
    ) -> None:
        self.event = event
        self.kind = kind
        self.rank = rank
        self.peer = peer
        self.tag = tag
        self.nbytes = nbytes
        self.blocks = blocks
        self.post_time = event.engine.now
        self.phase = phase
        #: For buffered sends: triggered when the last byte reaches the
        #: receiving host (independent of a posted receive).
        self.arrival_event: "SimEvent | None" = None

    @property
    def done(self) -> bool:
        return self.event.triggered

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Request({self.kind} {self.rank}<->{self.peer} tag={self.tag} "
            f"bytes={self.nbytes} done={self.done})"
        )


#: Matching key: (sender, receiver, tag, is_sync).
_MatchKey = Tuple[str, str, int, bool]
#: Fault-free sync key: (sender, receiver, tag).
_SyncKey = Tuple[str, str, int]


class SimMPI:
    """Message matching and transfer timing over a :class:`FlowNetwork`."""

    def __init__(
        self,
        engine: Engine,
        network: FlowNetwork,
        params: NetworkParams,
        *,
        injector=None,
        bus=None,
    ) -> None:
        """*injector* (a :class:`~repro.faults.injector.FaultInjector`)
        turns on the resilience protocol for sync messages: each
        transmission attempt may be dropped, delayed or duplicated, and
        lost attempts are retransmitted with bounded exponential backoff
        (``params.sync_retry_timeout`` / ``sync_backoff`` /
        ``sync_backoff_cap`` / ``sync_max_retries``)."""
        self.engine = engine
        self.network = network
        self.params = params
        self.injector = injector
        self.bus = bus
        # FIFO match queues; a key is deleted once its queue drains, so
        # both tables hold only the operations still waiting.
        self._unmatched_sends: Dict[_MatchKey, Deque[Request]] = {}
        self._unmatched_recvs: Dict[_MatchKey, Deque[Request]] = {}
        # Barrier state: name -> (arrived events, release event)
        self._barrier_waiting: List[SimEvent] = []
        self._barrier_expected = 0
        self.messages_matched = 0
        self.flows_started = 0
        # Metric handles captured once; None handles cost one test per
        # sync operation (see repro.obs.metrics_registry).
        registry = active_registry()
        if registry is not None:
            self._m_syncs_posted = registry.counter(
                "mpi.syncs_posted", "Pair-wise sync sends posted"
            )
            self._m_syncs_retired = registry.counter(
                "mpi.syncs_retired", "Sync deliveries completed"
            )
            self._m_retransmits = registry.counter(
                "mpi.retransmits", "Sync retransmission attempts"
            )
        else:
            self._m_syncs_posted = None
            self._m_syncs_retired = None
            self._m_retransmits = None
        #: Sync deliveries still outstanding (watchdog diagnosis):
        #: key (src, dst, tag) -> {"phase", "attempts", "state"}.
        self.pending_syncs: Dict[Tuple[str, str, int], Dict[str, object]] = {}
        # Fault-free syncs (see sync_send): per (src, dst, tag), the
        # arrival times of syncs no receiver has taken yet, and the
        # receivers parked before their sync was posted.  FIFO; a key
        # is deleted once its queue drains.
        self._sync_arrivals: Dict[_SyncKey, Deque[float]] = {}
        self._sync_waiters: Dict[_SyncKey, Deque[SimEvent]] = {}

    # ------------------------------------------------------------------
    def isend(
        self,
        rank: str,
        peer: str,
        tag: int,
        nbytes: int,
        blocks: Tuple[Block, ...] = (),
        *,
        sync: bool = False,
        phase: int = -1,
    ) -> Request:
        """Post a non-blocking send from *rank* to *peer*."""
        req = Request(
            self.engine.event(), "send", rank, peer, tag, nbytes, blocks, phase
        )
        if sync and self._m_syncs_posted is not None:
            self._m_syncs_posted.value += 1
        mode = "eager" if sync else self.params.transfer_mode(nbytes)
        if mode in ("eager", "buffered"):
            # The transport buffers the whole message: the sender's
            # request completes at post time, independent of matching.
            req.event.trigger()
        if mode == "buffered":
            # The flow drains toward the receiver immediately (TCP
            # pushes without waiting for a posted receive); arrival is
            # recorded so a late-posted receive completes instantly.
            self._launch_buffered(req)
        key: _MatchKey = (rank, peer, tag, sync)
        recvs = self._unmatched_recvs.get(key)
        if recvs is None:
            self._unmatched_sends.setdefault(key, deque()).append(req)
        else:
            recv = recvs.popleft()
            if not recvs:
                del self._unmatched_recvs[key]
            self._matched(req, recv, sync)
        return req

    def irecv(
        self,
        rank: str,
        peer: str,
        tag: int,
        *,
        sync: bool = False,
        phase: int = -1,
    ) -> Request:
        """Post a non-blocking receive at *rank* from *peer*."""
        req = Request(
            self.engine.event(), "recv", rank, peer, tag, 0, (), phase
        )
        key: _MatchKey = (peer, rank, tag, sync)
        sends = self._unmatched_sends.get(key)
        if sends is None:
            self._unmatched_recvs.setdefault(key, deque()).append(req)
        else:
            send = sends.popleft()
            if not sends:
                del self._unmatched_sends[key]
            self._matched(send, req, sync)
        return req

    def sync_send(self, rank: str, peer: str, tag: int, phase: int = -1) -> None:
        """Post a pair-wise sync from *rank* to *peer*; it never blocks.

        Under fault injection the sync is a zero-byte eager
        :class:`Request` and takes the resilience protocol.  Otherwise
        it is just its arrival time, ``post + sync_latency``: a parked
        receiver is woken then, or the time waits for
        :meth:`sync_recv`.  That is the float expression and the
        scheduling moment of :meth:`_eager_transfer`, so the engine
        sees the same events in the same order.
        """
        if self.injector is not None:
            self.isend(rank, peer, tag, 0, (), sync=True, phase=phase)
            return
        if self._m_syncs_posted is not None:
            self._m_syncs_posted.value += 1
        key = (rank, peer, tag)
        now = self.engine.now
        arrival = now + self.params.sync_latency
        waiters = self._sync_waiters.get(key)
        if waiters is None:
            self._sync_arrivals.setdefault(key, deque()).append(arrival)
            return
        event = waiters.popleft()
        if not waiters:
            del self._sync_waiters[key]
        self.messages_matched += 1
        self._deliver_sync(event, max(0.0, arrival - now))

    def sync_recv(
        self, rank: str, peer: str, tag: int, phase: int = -1
    ) -> Union[float, SimEvent]:
        """Wait for the next sync from *peer* to *rank*.

        Returns what the rank yields: the delay until the sync arrives
        when it was posted already (fault-free, no metrics to count its
        delivery), else an event that fires on delivery.
        """
        if self.injector is not None:
            return self.irecv(rank, peer, tag, sync=True, phase=phase).event
        key = (peer, rank, tag)
        arrivals = self._sync_arrivals.get(key)
        if arrivals is None:
            event = self.engine.event()
            self._sync_waiters.setdefault(key, deque()).append(event)
            return event
        arrival = arrivals.popleft()
        if not arrivals:
            del self._sync_arrivals[key]
        self.messages_matched += 1
        delay = max(0.0, arrival - self.engine.now)
        if self._m_syncs_retired is None:
            return delay
        event = self.engine.event()
        self._deliver_sync(event, delay)
        return event

    def _deliver_sync(self, event: SimEvent, delay: float) -> None:
        """Fire a fault-free sync's delivery *event* after *delay*."""
        if self._m_syncs_retired is None:
            self.engine.schedule(delay, event.trigger)
            return
        retired = self._m_syncs_retired

        def deliver() -> None:
            retired.value += 1
            event.trigger()

        self.engine.schedule(delay, deliver)

    def _matched(self, send: Request, recv: Request, sync: bool) -> None:
        self.messages_matched += 1
        recv.nbytes = send.nbytes
        recv.blocks = send.blocks
        mode = "eager" if sync else self.params.transfer_mode(send.nbytes)
        if mode == "eager":
            self._eager_transfer(send, recv, sync)
        elif mode == "buffered":
            assert send.arrival_event is not None
            send.arrival_event.on_trigger(lambda _v: recv.event.trigger())
        else:
            self._rendezvous_transfer(send, recv)

    def _eager_transfer(self, send: Request, recv: Request, sync: bool) -> None:
        """Small message: sender completed at post, receiver after latency."""
        if sync and self.injector is not None:
            self._resilient_sync_transfer(send, recv)
            return
        latency = self.params.sync_latency if sync else self.params.eager_latency
        arrival = send.post_time + latency
        delay = max(0.0, arrival - self.engine.now)
        if sync:
            self._deliver_sync(recv.event, delay)
        else:
            self.engine.schedule(delay, recv.event.trigger)

    # ------------------------------------------------------------------
    # resilience protocol for sync messages (fault injection active)
    # ------------------------------------------------------------------
    def _resilient_sync_transfer(self, send: Request, recv: Request) -> None:
        """Deliver a sync message across an unreliable control channel.

        Each transmission attempt consults the fault injector; lost
        attempts are retransmitted after a bounded exponential backoff.
        The whole attempt schedule is resolved now (the draws are
        deterministic in posting order) and the arrival — or
        abandonment, once the retry budget is spent — is scheduled on
        the engine.  Duplicate arrivals are delivered and discarded
        idempotently, like a real sequence-numbered control protocol.
        """
        from repro.faults.events import SyncAbandoned, SyncRetransmit
        from repro.faults.injector import DROP, DUPLICATE

        params = self.params
        injector = self.injector
        key = (send.rank, send.peer, send.tag)
        entry: Dict[str, object] = {
            "phase": send.phase,
            "attempts": 1,
            "state": "in-flight",
        }
        self.pending_syncs[key] = entry

        send_time = send.post_time
        arrivals: List[float] = []
        delivered = None
        for attempt in range(params.sync_max_retries + 1):
            if attempt > 0:
                injector.stats.sync_retransmits += 1
                if self._m_retransmits is not None:
                    self._m_retransmits.value += 1
                entry["attempts"] = attempt + 1
                if self.bus is not None:
                    self.bus.publish(
                        SyncRetransmit(
                            send_time, send.rank, send.peer, send.tag,
                            attempt, send_time - send.post_time,
                        )
                    )
            fate, extra = injector.sync_fate(
                send.rank, send.peer, send.tag, send_time, attempt
            )
            if fate != DROP:
                delivered = send_time + params.sync_latency + extra
                arrivals.append(delivered)
                if fate == DUPLICATE:
                    # The duplicate copy trails the original slightly.
                    arrivals.append(delivered + params.sync_latency)
                break
            send_time += min(
                params.sync_retry_timeout * (params.sync_backoff ** attempt),
                params.sync_backoff_cap,
            )

        if delivered is None:
            attempts = params.sync_max_retries + 1
            entry["state"] = "abandoned"
            entry["attempts"] = attempts
            injector.stats.syncs_abandoned += 1
            if self.bus is not None:
                self.bus.publish(
                    SyncAbandoned(
                        send_time, send.rank, send.peer, send.tag, attempts
                    )
                )
            return

        def arrive() -> None:
            if not recv.event.triggered:  # duplicates are discarded
                self.pending_syncs.pop(key, None)
                if self._m_syncs_retired is not None:
                    self._m_syncs_retired.value += 1
                recv.event.trigger()

        for arrival in arrivals:
            self.engine.schedule(max(0.0, arrival - self.engine.now), arrive)

    def _launch_buffered(self, send: Request) -> None:
        """Start a buffered send's flow right away (TCP-push behaviour)."""
        self.flows_started += 1
        send.arrival_event = self.engine.event()

        def on_flow_done(_flow: Flow) -> None:
            send.arrival_event.trigger()

        def launch() -> None:
            self.network.start_flow(
                send.rank, send.peer, float(send.nbytes), on_flow_done,
                tag=send.tag, phase=send.phase,
            )

        self.engine.schedule(self.params.eager_latency, launch)

    def _rendezvous_transfer(self, send: Request, recv: Request) -> None:
        """Large message: handshake, then a bandwidth-consuming flow."""
        self.flows_started += 1

        def on_flow_done(_flow: Flow) -> None:
            send.event.trigger()
            recv.event.trigger()

        def launch() -> None:
            self.network.start_flow(
                send.rank, send.peer, float(send.nbytes), on_flow_done,
                tag=send.tag, phase=send.phase,
            )

        self.engine.schedule(self.params.rendezvous_latency, launch)

    # ------------------------------------------------------------------
    def barrier(self, num_ranks: int) -> SimEvent:
        """Join a barrier over *num_ranks* ranks; returns the release event.

        All participating ranks must call with the same *num_ranks*.
        Released ``barrier_latency`` after the last arrival.
        """
        if self._barrier_expected == 0:
            self._barrier_expected = num_ranks
        elif self._barrier_expected != num_ranks:
            raise SimulationError(
                f"barrier size mismatch: {self._barrier_expected} vs {num_ranks}"
            )
        event = self.engine.event()
        self._barrier_waiting.append(event)
        if len(self._barrier_waiting) == self._barrier_expected:
            waiting, self._barrier_waiting = self._barrier_waiting, []
            self._barrier_expected = 0
            delay = self.params.barrier_latency

            def release() -> None:
                for ev in waiting:
                    ev.trigger(None)

            self.engine.schedule(delay, release)
        return event

    # ------------------------------------------------------------------
    def unmatched_sync_edges(self) -> List[Tuple[str, str, int, int, str]]:
        """Sync operations with no counterpart yet (stall diagnosis).

        Returns ``(src, dst, tag, phase, state)`` tuples: ``state`` is
        ``"unmatched-recv"`` when the receiver is waiting but the sender
        never posted (it is blocked upstream), ``"unmatched-send"`` for
        the reverse.
        """
        out: List[Tuple[str, str, int, int, str]] = []
        for (src, dst, tag, is_sync), reqs in self._unmatched_recvs.items():
            if is_sync:
                for req in reqs:
                    out.append((src, dst, tag, req.phase, "unmatched-recv"))
        for (src, dst, tag, is_sync), reqs in self._unmatched_sends.items():
            if is_sync:
                for req in reqs:
                    out.append((src, dst, tag, req.phase, "unmatched-send"))
        return out

    # ------------------------------------------------------------------
    def assert_drained(self) -> None:
        """Raise if unmatched operations remain (deadlock diagnosis)."""
        if (
            self._unmatched_sends or self._unmatched_recvs
            or self._sync_arrivals or self._sync_waiters
        ):
            leftovers = [
                (key, len(reqs))
                for table in (self._unmatched_sends, self._unmatched_recvs)
                for key, reqs in table.items()
            ] + [
                ((*key, True), len(queue))
                for table in (self._sync_arrivals, self._sync_waiters)
                for key, queue in table.items()
            ]
            raise SimulationError(
                f"unmatched operations at end of run: {leftovers[:10]}"
            )
