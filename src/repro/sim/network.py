"""Flow-level network model with max-min fair bandwidth sharing.

Every in-flight (rendezvous) message is a :class:`Flow` over the unique
directed tree path between its endpoints.  Whenever the flow set
changes, rates are recomputed by **progressive filling**: repeatedly
find the directed edge with the smallest fair share
``available_capacity / unfrozen_flows`` and freeze its flows at that
share — the classic max-min allocation.  Edge capacity shrinks under
multiplexing via :meth:`NetworkParams.effective_capacity`, modelling
TCP/Ethernet goodput collapse (see :mod:`repro.sim.params`).

The solve itself is delegated to an allocator
(:mod:`repro.sim.allocator`): the default ``incremental`` allocator
re-solves only the flows linked, directly or through shared edges, to
an edge whose flow set changed — flows elsewhere keep their rates,
which max-min decomposition makes exact — while the ``reference``
allocator re-runs the original full filling every time.

The network keeps one **edge table**: a directed edge gets a dense int
id the first time a flow crosses it, so ids are first-seen ranks and
sorting them reproduces the reference scan order.  Per-edge solver
state lives in lists indexed by id — the flow-id set, the endpoint
flag, the bandwidth override, and a count of in-flight flow sizes with
the largest one kept up to date — and each :class:`Flow` carries its
path as ids (``eids``) next to the edge tuples (``edges``).  Edge
tuples remain only at the boundaries: bus events, ``edge_bytes`` and
the fault injector.

Rate-change instants are *batched*: adds/removes/completions at the
same instant coalesce into a single settle that runs at the end of the
engine's same-timestamp batch (:meth:`Engine.defer`), which keeps both
event counts and re-solve counts manageable when e.g. the LAM
algorithm launches ~1000 flows at once.  Under an allocator that
re-solves only the dirty closure, a flow that needs no company skips
the solve.  A completion that leaves every edge of its path idle (a
*lone-flow finish*) defers no settle at all: that settle's scope would
be empty.  A start on a path whose edges are all idle (a *lone-flow
start*) takes its rate at once, the one a settle would have given it
alone in its closure, and dirties nothing; its deadline still waits
for the end-of-batch settle, which pushes the instant's deadlines and
arms the completion timer, so timer events keep their order.  A
later same-instant start on one of its edges dirties its own path, and
the settle's closure walk re-rates both.  A flow's ``remaining`` is
caught up when it is re-solved, at its completion deadline, or via
:meth:`sync_progress`; the bytes it moved collect in a per-flow
``pending`` total that is folded into the byte ledgers
(``bytes_delivered``/``edge_bytes``) only at completion and in
:meth:`sync_progress`.  Completions come from a deadline heap with
stale-entry invalidation, rebuilt whenever its entries would exceed
twice the active flows.  Completed :class:`Flow` objects are always
pooled and reused by later :meth:`start_flow` calls: a completed
flow's fields stay readable until the object is reused, so a handle
must not be kept past its completion callback.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.errors import SimulationError
from repro.obs.bus import EventBus, FlowFinished, FlowStarted, LinkOccupancy
from repro.obs.metrics_registry import active_registry
from repro.sim.allocator import make_allocator
from repro.sim.engine import Engine
from repro.sim.params import NetworkParams
from repro.topology.graph import Edge, Topology
from repro.topology.paths import PathOracle

#: Residual bytes below which a flow counts as finished (float safety).
_EPSILON_BYTES = 1e-6

#: Slack when popping deadline-heap entries: the engine may fire a
#: timer one rounding step before the stored deadline (``now + (d -
#: now)`` need not equal ``d`` in floats); entries this close are due.
_EPSILON_TIME = 1e-12


class Flow:
    """One fluid transfer over a fixed directed path."""

    __slots__ = (
        "fid", "src", "dst", "edges", "eids", "size", "remaining", "rate",
        "on_complete", "start_time", "end_time", "tag", "phase",
        "gen", "updated", "drate", "pending",
    )

    def __init__(
        self,
        fid: int,
        src: str,
        dst: str,
        edges: Tuple[Edge, ...],
        eids: Tuple[int, ...],
        nbytes: float,
        on_complete: Callable[["Flow"], None],
        start_time: float,
        tag: int = -1,
        phase: int = -1,
    ) -> None:
        #: Invalidates queued deadline entries when the rate changes.
        self.gen = 0
        self.reinit(
            fid, src, dst, edges, eids, nbytes, on_complete, start_time,
            tag, phase,
        )

    def reinit(
        self,
        fid: int,
        src: str,
        dst: str,
        edges: Tuple[Edge, ...],
        eids: Tuple[int, ...],
        nbytes: float,
        on_complete: Callable[["Flow"], None],
        start_time: float,
        tag: int = -1,
        phase: int = -1,
    ) -> None:
        """Recycle a pooled object for a fresh transfer."""
        self.fid = fid
        self.src = src
        self.dst = dst
        self.edges = edges
        #: The same path as ids into the network's edge table.
        self.eids = eids
        self.size = float(nbytes)
        self.remaining = float(nbytes)
        self.rate = 0.0
        self.on_complete = on_complete
        self.start_time = start_time
        self.end_time: Optional[float] = None
        self.tag = tag
        self.phase = phase
        self.gen += 1
        #: Simulated time up to which ``remaining`` is accounted.
        self.updated = start_time
        #: Rate under which the live deadline-heap entry was computed
        #: (0.0 = no live entry).  A solve that lands on the same rate
        #: keeps the entry: the completion instant is unchanged.
        self.drate = 0.0
        #: Bytes moved but not yet folded into the network's ledgers.
        self.pending = 0.0


class FlowNetwork:
    """The cluster's links plus the active flow set and rate solver."""

    def __init__(
        self,
        engine: Engine,
        topology: Topology,
        params: NetworkParams,
        link_bandwidths: Optional[Dict[Tuple[str, str], float]] = None,
        bus: Optional[EventBus] = None,
        injector=None,
    ) -> None:
        """*link_bandwidths* optionally overrides the uniform link speed
        per physical link; keys may name either orientation and apply to
        both directed edges (full-duplex links).  *bus* is an optional
        telemetry bus: flow starts/finishes and per-edge occupancy
        changes are published to it (``None`` = zero overhead).
        *injector* is an optional
        :class:`~repro.faults.injector.FaultInjector`: edge capacities
        are scaled by its per-edge factor and rates are re-solved at
        every fault boundary (degradation onset/clearance)."""
        self.engine = engine
        self.bus = bus
        self.injector = injector
        self.topology = topology
        self.params = params
        self.oracle = PathOracle(topology)
        self._edge_bandwidth: Dict[Edge, float] = {}
        if link_bandwidths:
            for (u, v), bw in link_bandwidths.items():
                if bw <= 0:
                    raise SimulationError(
                        f"bandwidth for link ({u!r}, {v!r}) must be positive"
                    )
                if v not in topology.neighbors(u):
                    raise SimulationError(
                        f"no physical link between {u!r} and {v!r}"
                    )
                self._edge_bandwidth[(u, v)] = bw
                self._edge_bandwidth[(v, u)] = bw
        self._flows: Dict[int, Flow] = {}
        # The edge table: id -> per-edge state, ids assigned in
        # first-seen order so the solvers' id-sorted scans break ties
        # like the reference's scan over every edge.
        self._edge_id: Dict[Edge, int] = {}
        self._edges: List[Edge] = []
        self._edge_flows: List[Set[int]] = []
        #: Endpoint edges (machine uplinks/downlinks) suffer the incast
        #: collapse; switch-to-switch trunks share fluidly.
        self._edge_endpoint: List[bool] = []
        self._edge_line_bw: List[Optional[float]] = []
        #: In-flight flow size -> count, and the largest such size
        #: (0.0 on an idle edge), kept up to date per edge.
        self._edge_sizes: List[Dict[float, int]] = []
        self._edge_largest: List[float] = []
        self._next_fid = 0
        #: The allocator holds dirty edges that the next settle solves.
        self._dirty = False
        #: A settle is deferred to the end of the current batch.
        self._settle_deferred = False
        #: Deadline entries of this instant's lone-flow starts, pushed
        #: by the end-of-batch settle.
        self._lone_pushes: List[Tuple[float, int, int]] = []
        self._allocator = make_allocator(params.allocator, self)
        #: (deadline, fid, flow.gen) completion heap; entries whose fid
        #: is gone or whose gen lags the flow's are stale and skipped.
        self._deadlines: List[Tuple[float, int, int]] = []
        self._timer_target = math.inf
        self._timer_epoch = 0
        self._pool: List[Flow] = []
        # Statistics for the invariant tests and reports.
        self.bytes_injected = 0.0
        self.bytes_delivered = 0.0
        self.peak_concurrent_flows = 0
        self.max_edge_multiplexing = 0
        self.flow_pool_reuses = 0
        #: Bytes actually transported per directed edge.
        self.edge_bytes: Dict[Edge, float] = {}
        # Fault boundaries are rate-change instants: re-solve max-min
        # whenever a link degrades, fails or recovers so every flow's
        # piecewise-constant rate stays exact.  Capacities change
        # globally, so the whole flow set is dirtied.
        if injector is not None:
            for t in injector.plan.boundaries():
                if t > 0:
                    self.engine.schedule(t, self._boundary_resolve)
        # Metric handles captured once; None handles keep the hot paths
        # at one test per site (see repro.obs.metrics_registry).
        registry = active_registry()
        if registry is not None:
            self._m_resolves = registry.counter(
                "network.resolves_total", "Max-min rate re-solves"
            )
            self._m_flowset = registry.counter(
                "network.flow_set_changes", "Flow-set / rate-change instants"
            )
            self._m_touched = registry.histogram(
                "network.resolve_touched", "Flow x link pairs per re-solve"
            )
            self._m_waterfill = registry.histogram(
                "network.waterfill_iterations", "Progressive-filling rounds"
            )
            self._m_saturated = registry.histogram(
                "network.saturated_links", "Edges frozen per re-solve"
            )
            self._m_inflight = registry.gauge(
                "network.flows_in_flight", "Active flows after a settle"
            )
            self._m_component = registry.histogram(
                "network.component_flows", "Flows re-rated per solve"
            )
            self._m_full = registry.counter(
                "network.full_resolves", "Solves covering the whole flow set"
            )
            self._m_pool = registry.counter(
                "network.flow_pool_reuses", "Flow objects recycled from the pool"
            )
        else:
            self._m_resolves = None
            self._m_flowset = None
            self._m_touched = None
            self._m_waterfill = None
            self._m_saturated = None
            self._m_inflight = None
            self._m_component = None
            self._m_full = None
            self._m_pool = None

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def start_flow(
        self,
        src: str,
        dst: str,
        nbytes: float,
        on_complete: Callable[[Flow], None],
        *,
        tag: int = -1,
        phase: int = -1,
    ) -> Flow:
        """Inject a transfer of *nbytes* from *src* to *dst*.

        *on_complete* fires (via the engine) when the last byte arrives.
        *tag*/*phase* identify the carrying message for telemetry.
        """
        if nbytes <= 0:
            raise SimulationError(f"flow size must be positive, got {nbytes}")
        edges = self.oracle.path_edges(src, dst)
        if not edges:
            raise SimulationError(f"no path from {src!r} to {dst!r}")
        try:
            eids = tuple(map(self._edge_id.__getitem__, edges))
        except KeyError:
            eids = tuple(map(self._register_edge, edges))
        now = self.engine.now
        fid = self._next_fid
        self._next_fid += 1
        pool = self._pool
        if pool:
            flow = pool.pop()
            flow.reinit(
                fid, src, dst, edges, eids, nbytes, on_complete, now, tag,
                phase,
            )
            self.flow_pool_reuses += 1
            if self._m_pool is not None:
                self._m_pool.value += 1
        else:
            flow = Flow(
                fid, src, dst, edges, eids, nbytes, on_complete, now, tag,
                phase,
            )
        self._flows[fid] = flow
        edge_flows = self._edge_flows
        edge_sizes = self._edge_sizes
        largest = self._edge_largest
        size = flow.size
        lone = True
        for e in eids:
            fids = edge_flows[e]
            if fids:
                lone = False
            fids.add(fid)
            counts = edge_sizes[e]
            counts[size] = counts.get(size, 0) + 1
            if size > largest[e]:
                largest[e] = size
        self.bytes_injected += nbytes
        if len(self._flows) > self.peak_concurrent_flows:
            self.peak_concurrent_flows = len(self._flows)
        if self.bus is not None:
            self.bus.publish(
                FlowStarted(
                    now, fid, src, dst, flow.size, edges,
                    flow.tag, flow.phase,
                )
            )
            for e, eid in zip(edges, eids):
                self.bus.publish(
                    LinkOccupancy(now, e, len(edge_flows[eid]))
                )
        if lone and self._allocator.scoped:
            self._start_lone(flow, now)
        else:
            self._allocator.note_edges_dirty(eids)
            self._mark_dirty()
        return flow

    @property
    def active_flows(self) -> int:
        return len(self._flows)

    @property
    def flows_finished(self) -> int:
        """Flows started so far that are no longer in flight."""
        return self._next_fid - len(self._flows)

    def flows_moving(self) -> bool:
        """Whether some in-flight flow has a positive rate."""
        return any(flow.rate > 0.0 for flow in self._flows.values())

    @property
    def full_resolves(self) -> int:
        """Solves that covered the entire flow set (see allocator)."""
        return self._allocator.full_solves

    def sync_progress(self) -> None:
        """Bring every active flow's byte accounting up to ``now``.

        Rates and completions are always exact; only the byte ledgers
        (``bytes_delivered``/``edge_bytes``/``Flow.remaining``) are
        lazy.  Call this before reading them while flows are still in
        flight (the executor does, for stalled/crashed runs)."""
        now = self.engine.now
        for flow in self._flows.values():
            if flow.updated != now:
                self._advance_flow(flow, now)
            self._fold_bytes(flow)

    def close(self) -> None:
        """Unlink the allocator once the run is over.

        The allocator refers back to its network, so the two form a
        cycle.  Cutting it lets reference counting free the network, its
        engine and its pooled flows as soon as the caller drops them.
        The counters stay readable; the network starts no more flows.
        """
        self._allocator.net = None

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _register_edge(self, e: Edge) -> int:
        """The id of edge *e*, appending it to the edge table if new."""
        eid = self._edge_id.get(e)
        if eid is None:
            eid = self._edge_id[e] = len(self._edges)
            u, v = e
            topology = self.topology
            self._edges.append(e)
            self._edge_flows.append(set())
            self._edge_endpoint.append(
                topology.is_machine(u) or topology.is_machine(v)
            )
            self._edge_line_bw.append(self._edge_bandwidth.get(e))
            self._edge_sizes.append({})
            self._edge_largest.append(0.0)
        return eid

    def _fold_bytes(self, flow: Flow) -> None:
        """Move *flow*'s pending bytes into the network's byte ledgers."""
        moved = flow.pending
        if moved:
            flow.pending = 0.0
            self.bytes_delivered += moved
            edge_bytes = self.edge_bytes
            for e in flow.edges:
                edge_bytes[e] = edge_bytes.get(e, 0.0) + moved

    def _start_lone(self, flow: Flow, now: float) -> None:
        """Rate a flow that started on idle edges, without a settle.

        No other flow crosses its path, so a settle would find it alone
        in its closure and give it :meth:`IncrementalAllocator.lone_rate`.
        It gets that rate now and its deadline joins the end-of-batch
        push, so the completion timer is armed at the same moment as
        after a settle.  A later same-instant start on one of its edges
        dirties that edge, and the settle's closure re-rates both.
        """
        rate = self._allocator.lone_rate(flow, now)
        flow.rate = rate
        if self.max_edge_multiplexing < 1:
            self.max_edge_multiplexing = 1
        if rate > 0.0:
            flow.gen += 1
            flow.drate = rate
            self._lone_pushes.append(
                (now + flow.remaining / rate, flow.fid, flow.gen)
            )
        self._defer_settle()

    def _mark_dirty(self) -> None:
        if not self._dirty:
            self._dirty = True
            self._defer_settle()
            if self._m_flowset is not None:
                self._m_flowset.value += 1

    def _defer_settle(self) -> None:
        """Run :meth:`_settle` once at the end of this instant's batch."""
        if not self._settle_deferred:
            self._settle_deferred = True
            self.engine.defer(self._settle)

    def _boundary_resolve(self) -> None:
        """Fault boundary: capacities changed globally — re-solve all."""
        self._allocator.note_all_dirty()
        self._mark_dirty()

    @staticmethod
    def _advance_flow(flow: Flow, now: float) -> None:
        """Drain the bytes *flow* moved since its last catch-up.

        :meth:`_solve_dirty` inlines the same subtraction chain; the two
        must stay identical, since ``remaining`` feeds the deadlines.
        """
        dt = now - flow.updated
        if dt > 0.0 and flow.rate > 0.0:
            before = flow.remaining
            after = before - flow.rate * dt
            if after < 0.0:
                after = 0.0
            flow.remaining = after
            flow.pending += before - after
        flow.updated = now

    def _settle(self) -> None:
        """Recompute rates for every flow a change could have touched,
        then push this instant's deadlines and arm the timer.

        Runs at the end of the engine's same-timestamp batch (see
        :meth:`Engine.defer`), so any number of same-instant flow-set
        changes produce one solve.  Completion callbacks may start new
        flows at the same instant; the loop folds them into the scope
        until the instant is quiescent, then solves once.  Lone-flow
        starts were rated already: only their deadlines are pushed.
        """
        self._settle_deferred = False
        pushes: List[Tuple[float, int, int]] = []
        if self._dirty:
            self._solve_dirty(pushes)
        if self._m_inflight is not None:
            self._m_inflight.value = len(self._flows)
        if self._lone_pushes:
            pushes.extend(self._lone_pushes)
            self._lone_pushes = []
        self._push_deadlines(pushes)
        self._arm_timer()

    def _solve_dirty(self, pushes: List[Tuple[float, int, int]]) -> None:
        """Re-rate the closure of the dirty edges; collect the new
        deadlines in *pushes*."""
        now = self.engine.now
        alloc = self._allocator
        full_before = alloc.full_solves
        scope: Dict[int, Flow] = {}
        while self._dirty:
            self._dirty = False
            if self._m_resolves is not None:
                self._m_resolves.value += 1
            alloc.collect_scope(scope)
            due: List[Flow] = []
            for flow in scope.values():
                if flow.updated != now:
                    # _advance_flow, inlined: this is the hottest loop.
                    rate = flow.rate
                    if rate > 0.0:
                        dt = now - flow.updated
                        if dt > 0.0:
                            before = flow.remaining
                            after = before - rate * dt
                            if after < 0.0:
                                after = 0.0
                            flow.remaining = after
                            flow.pending += before - after
                    flow.updated = now
                if flow.remaining <= _EPSILON_BYTES:
                    due.append(flow)
            if due:
                due.sort(key=lambda f: f.fid)
                for flow in due:
                    scope.pop(flow.fid, None)
                    self._complete_flow(flow)
        if not scope:
            return
        touched, iterations, saturated = alloc.solve(scope, now)
        if self._m_waterfill is not None:
            self._m_touched.observe(touched)
            self._m_waterfill.observe(iterations)
            self._m_saturated.observe(saturated)
            self._m_component.observe(len(scope))
            full_delta = alloc.full_solves - full_before
            if full_delta:
                self._m_full.value += full_delta
        for flow in scope.values():
            rate = flow.rate
            if rate == flow.drate:
                # Unchanged rate: the live entry (if any) still names
                # the right completion instant — no heap churn.
                continue
            flow.gen += 1
            flow.drate = rate
            if rate > 0.0:
                pushes.append((now + flow.remaining / rate, flow.fid, flow.gen))
            # rate == 0: frozen behind a failed link; a fault boundary
            # (recovery) or the stall watchdog wakes us.

    def _push_deadlines(self, pushes: List[Tuple[float, int, int]]) -> None:
        """Add *pushes* to the deadline heap, keeping it within twice
        the active flows.

        Stale entries (completed flows, superseded rates) are skipped
        lazily when they surface.  Once the entries would exceed twice
        the active flows, the heap is rebuilt from its live survivors
        plus the new entries in one O(n) heapify instead.  Entries are
        totally ordered by (deadline, fid, gen), so the live ones pop
        in the same sequence from any heap layout.
        """
        deadlines = self._deadlines
        flows = self._flows
        if len(deadlines) + len(pushes) > 2 * len(flows):
            live = [
                entry
                for entry in deadlines
                if (f := flows.get(entry[1])) is not None and f.gen == entry[2]
            ]
            live.extend(pushes)
            heapq.heapify(live)
            self._deadlines = live
        else:
            for entry in pushes:
                heapq.heappush(deadlines, entry)

    def _arm_timer(self) -> None:
        """Schedule the completion timer for the earliest live deadline.

        Each arming that actually schedules bumps ``_timer_epoch``,
        instantly invalidating every previously scheduled timer event:
        we only schedule when the new deadline is *earlier* than the
        outstanding target, so the newest event is always the one that
        should fire, and superseded events die in O(1) at dispatch.
        """
        deadlines = self._deadlines
        flows = self._flows
        while deadlines:
            d, fid, gen = deadlines[0]
            flow = flows.get(fid)
            if flow is None or flow.gen != gen:
                heapq.heappop(deadlines)
                continue
            if d < self._timer_target:
                self._timer_target = d
                self._timer_epoch += 1
                epoch = self._timer_epoch
                self.engine.schedule(
                    max(0.0, d - self.engine.now),
                    lambda: self._on_deadline(epoch),
                )
            return

    def _on_deadline(self, epoch: int) -> None:
        """Completion timer: finish every flow whose deadline is due.

        Stale heap entries (completed flows, superseded rates) are
        dropped lazily via the fid lookup and generation check — a
        flow can never be completed twice, however events batch.
        """
        if epoch != self._timer_epoch:
            return  # superseded by a later arming at an earlier time
        self._timer_target = math.inf
        now = self.engine.now
        deadlines = self._deadlines
        flows = self._flows
        edge_flows = self._edge_flows
        scoped = self._allocator.scoped
        completed = lone = False
        while deadlines and deadlines[0][0] <= now + _EPSILON_TIME:
            d, fid, gen = heapq.heappop(deadlines)
            flow = flows.get(fid)
            if flow is None or flow.gen != gen:
                continue
            if flow.updated != now:
                self._advance_flow(flow, now)
            # Done when the byte residue is negligible — or when it
            # would drain within the timer's own resolution.  Without
            # the second clause a sub-ulp residue requeues a deadline
            # at (float-)``now`` forever: the flow can't advance twice
            # at one timestamp, so nothing ever shrinks the residue.
            if (
                flow.remaining <= _EPSILON_BYTES
                or flow.remaining <= flow.rate * _EPSILON_TIME
            ):
                eids = flow.eids
                self._complete_flow(flow)
                if scoped and not any(map(edge_flows.__getitem__, eids)):
                    # Lone-flow finish: no flow is left on its path, so
                    # a settle would collect an empty scope.
                    lone = True
                    continue
                self._allocator.note_edges_dirty(eids)
                completed = True
            else:
                # Fired a rounding step early: requeue and retry at the
                # recomputed deadline (a fresh timer, not this batch).
                heapq.heappush(
                    deadlines, (now + flow.remaining / flow.rate, fid, gen)
                )
                break
        if completed:
            self._mark_dirty()
        elif lone:
            # No settle follows to keep the heap within its bound.
            self._push_deadlines([])
        self._arm_timer()

    def _complete_flow(self, flow: Flow) -> None:
        fid = flow.fid
        if self._flows.get(fid) is not flow:
            return  # already completed
        del self._flows[fid]
        edge_flows = self._edge_flows
        edge_sizes = self._edge_sizes
        largest = self._edge_largest
        size = flow.size
        for e in flow.eids:
            edge_flows[e].discard(fid)
            counts = edge_sizes[e]
            left = counts[size] - 1
            if left:
                counts[size] = left
            else:
                del counts[size]
                if size == largest[e]:
                    largest[e] = max(counts) if counts else 0.0
        self._fold_bytes(flow)
        flow.remaining = 0.0
        flow.rate = 0.0
        flow.gen += 1
        now = self.engine.now
        flow.end_time = now
        if self.bus is not None:
            self.bus.publish(
                FlowFinished(
                    now, fid, flow.src, flow.dst, flow.size,
                    flow.start_time, flow.tag, flow.phase,
                )
            )
            for e, eid in zip(flow.edges, flow.eids):
                self.bus.publish(
                    LinkOccupancy(now, e, len(edge_flows[eid]))
                )
        flow.on_complete(flow)
        # Only after the callback: the handle it received must not
        # mutate under it.  The object stays readable (end_time, size,
        # ...) until a later start_flow recycles it, but drops the
        # callback, whose closure holds the finished transfer's requests.
        flow.on_complete = None
        self._pool.append(flow)
