"""Max-min rate solvers: the reference filler and the incremental one.

Two interchangeable allocators compute the max-min fair rate vector for
the active flow set (see :mod:`repro.sim.network` for the model):

* :class:`ReferenceAllocator` — the original, deliberately simple
  progressive filling over **every** directed edge at **every**
  rate-change instant.  O(flows x links) per re-solve; kept as the
  trusted oracle for the differential suite
  (``tests/sim/test_allocator_differential.py``).
* :class:`IncrementalAllocator` — tracks the set of *dirty* edges
  (edges whose flow set changed since the last solve) and re-solves
  **only their closure**: every flow on a dirty edge, plus every flow
  linked to one through shared edges.  Max-min allocation decomposes
  exactly over these components — flows in different components share
  no edge, so the filling rounds of one component never touch the
  state of another — hence untouched flows keep their previous rates
  unchanged.  The scope is exactly that closure, or every flow after a
  fault boundary (capacities change globally).  The solve takes one
  of three paths: a lone flow gets its path minimum
  (:meth:`~IncrementalAllocator.lone_rate`) without any filling — the
  network calls the same method when a flow starts on idle edges, so
  a contention-free schedule's flows never reach a solve; a component of
  at most ``_VECTORIZE_EDGES`` edges runs the reference filler
  restricted to it; a wider one runs a numpy-vectorized waterfill on
  one flat gather of the scope's paths.

Both work on the network's integer edge ids (see
:mod:`repro.sim.network`): dirty sets, closures and component edge
lists are ids, and per-edge state is read from id-indexed lists (the
numpy waterfill keeps the fixed per-edge state in id-indexed arrays).
The incremental solvers read each edge's largest in-flight size from the
network's maintained value; the reference recomputes it by brute force
at every solve, so it stays an independent oracle.

Both allocators produce the same rate vector up to float rounding: the
vectorized waterfill freezes the same share levels in the same order
(component edges are scanned in the reference's global first-seen
order, exact ties — ubiquitous in symmetric AAPC flow sets — are
frozen together, which is the identical fixpoint), so differences stay
at the accumulation-order ulp level — bounded well inside the
differential suite's 1e-9 tolerance.  Pick one via
:attr:`NetworkParams.allocator`.
"""

from __future__ import annotations

from itertools import chain
from operator import attrgetter
from typing import (
    TYPE_CHECKING, Collection, Dict, Iterable, List, Set, Tuple,
)

import numpy as np

from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.network import Flow, FlowNetwork

#: The one crossover between the two fillers: components spanning more
#: edges than this run the numpy waterfill, the rest the python filler.
#: The python filler scans every unfrozen edge once per share level,
#: O(edges^2) per solve; numpy pays a flat gather of the scope's paths
#: plus a few array ops per level.  The two sum the frozen shares in
#: different orders, so moving the crossover moves pinned completion
#: times: it stays where it was measured before the gather cut the
#: numpy side's fixed cost (python won on the small components, up to
#: ~80 edges in the contention-heavy bench cells, numpy on bruck's
#: 161-1472-edge ones at 1024 ranks).
_VECTORIZE_EDGES = 160

_EIDS = attrgetter("eids")


class BaseAllocator:
    """Shared dirty-tracking interface driven by :class:`FlowNetwork`."""

    name = "base"
    #: Whether a solve covers only the closure of the dirty edges, so a
    #: change on edges that no flow crosses leaves nothing to re-solve.
    scoped = False

    def __init__(self, network: "FlowNetwork") -> None:
        self.net = network
        #: Solves that covered the whole flow set (fault boundaries,
        #: and every reference solve).
        self.full_solves = 0

    # -- dirty tracking ------------------------------------------------
    def note_edges_dirty(self, eids: Iterable[int]) -> None:
        """The flow set of the edges with ids *eids* changed since the
        last solve."""

    def note_all_dirty(self) -> None:
        """Every edge must be re-solved (capacities changed globally)."""

    # -- solving -------------------------------------------------------
    def collect_scope(self, scope: Dict[int, "Flow"]) -> None:
        """Move the closure of the dirty set into *scope* and clear it.

        *scope* maps fid -> Flow and accumulates across calls (the
        settle loop re-collects after completion callbacks mutate the
        flow set).  Entries already present are kept.
        """
        raise NotImplementedError

    def solve(
        self, scope: Dict[int, "Flow"], now: float
    ) -> Tuple[int, int, int]:
        """Assign max-min rates to every flow in *scope*.

        Returns ``(touched, iterations, saturated)``: flow x link
        incidence pairs examined, filling rounds run, and edges frozen
        (the reference saturates exactly one edge per round; the
        vectorized filler batches exact ties, so rounds <= edges).
        """
        raise NotImplementedError


class ReferenceAllocator(BaseAllocator):
    """Full progressive filling over all edges — the trusted oracle."""

    name = "reference"

    def collect_scope(self, scope: Dict[int, "Flow"]) -> None:
        scope.update(self.net._flows)

    def solve(
        self, scope: Dict[int, "Flow"], now: float
    ) -> Tuple[int, int, int]:
        net = self.net
        params = net.params
        injector = net.injector
        self.full_solves += 1
        # Per-edge state, keyed by edge id in first-seen order: unfrozen
        # flow count and available capacity.
        unfrozen_count: Dict[int, int] = {}
        available: Dict[int, float] = {}
        touched = 0
        for e, fids in enumerate(net._edge_flows):
            n = len(fids)
            if n == 0:
                continue
            touched += n
            largest = max(net._flows[fid].size for fid in fids)
            unfrozen_count[e] = n
            capacity = params.effective_capacity(
                n,
                largest,
                net._edge_endpoint[e],
                line_bandwidth=net._edge_line_bw[e],
            )
            if injector is not None:
                capacity *= injector.link_factor(net._edges[e], now)
            available[e] = capacity
            if n > net.max_edge_multiplexing:
                net.max_edge_multiplexing = n
        frozen: Set[int] = set()
        for flow in scope.values():
            flow.rate = 0.0
        remaining_flows = len(scope)
        iterations = 0
        while remaining_flows > 0:
            iterations += 1
            # Find the tightest edge.
            best_edge = -1
            best_share = float("inf")
            for e, count in unfrozen_count.items():
                if count <= 0:
                    continue
                share = available[e] / count
                if share < best_share - 1e-15:
                    best_share = share
                    best_edge = e
            if best_edge < 0:
                raise SimulationError(
                    "max-min allocation stalled with flows unassigned"
                )
            # Freeze every unfrozen flow crossing the tightest edge.
            for fid in list(net._edge_flows[best_edge]):
                if fid in frozen:
                    continue
                flow = net._flows[fid]
                flow.rate = best_share
                frozen.add(fid)
                remaining_flows -= 1
                for e in flow.eids:
                    unfrozen_count[e] -= 1
                    available[e] -= best_share
            unfrozen_count[best_edge] = 0
        return touched, iterations, iterations


class IncrementalAllocator(BaseAllocator):
    """Dirty-component re-solve with a vectorized waterfill."""

    name = "incremental"
    scoped = True

    def __init__(self, network: "FlowNetwork") -> None:
        super().__init__(network)
        #: Ids of edges whose flow set changed since the last collect.
        self._dirty_edges: Set[int] = set()
        self._all_dirty = False
        # Python-filler scratch, indexed by edge id and grown with the
        # edge table: each solve writes only its own component's slots,
        # so no per-solve allocation scales with the network's size.
        self._unfrozen: List[int] = []
        self._available: List[float] = []
        # Numpy-filler copies of the fixed per-edge state, by edge id.
        self._endpoint_arr = np.empty(0, dtype=bool)
        self._line_bw_arr = np.empty(0, dtype=np.float64)

    # -- dirty tracking ------------------------------------------------
    def note_edges_dirty(self, eids: Iterable[int]) -> None:
        if not self._all_dirty:
            self._dirty_edges.update(eids)

    def note_all_dirty(self) -> None:
        self._all_dirty = True
        self._dirty_edges.clear()

    # -- solving -------------------------------------------------------
    def collect_scope(self, scope: Dict[int, "Flow"]) -> None:
        net = self.net
        if self._all_dirty:
            self._all_dirty = False
            self._dirty_edges.clear()
            scope.update(net._flows)
            self.full_solves += 1
            return
        dirty = self._dirty_edges
        if not dirty:
            return
        self._dirty_edges = set()
        edge_flows = net._edge_flows
        flows = net._flows
        nflows = len(flows)
        # Transitive closure over the flow/edge incidence graph: every
        # flow sharing an edge (directly or through intermediaries)
        # with a changed edge may see its bottleneck shift; nothing
        # outside the closure can.  The walk adds the flows on the
        # dirty edges, then expands one flow's path at a time, scanning
        # each edge once.  It stops once the scope holds every active
        # flow: the rest of the frontier cannot add anything (dense
        # workloads end here early).
        seen: Set[int] = set()
        paths: List[Iterable[int]] = [dirty]
        while paths and len(scope) < nflows:
            for e in paths.pop():
                if e in seen:
                    continue
                seen.add(e)
                for fid in edge_flows[e]:
                    if fid not in scope:
                        flow = flows[fid]
                        scope[fid] = flow
                        paths.append(flow.eids)

    def solve(
        self, scope: Dict[int, "Flow"], now: float
    ) -> Tuple[int, int, int]:
        if len(scope) == 1:
            return self._solve_single(next(iter(scope.values())), now)
        net = self.net
        comp_edges: Collection[int]
        if len(scope) == len(net._flows):
            # Full-scope solve (dense regime): the component is every
            # populated edge.
            comp_edges = [e for e, fids in enumerate(net._edge_flows) if fids]
        else:
            comp_edges = set(chain.from_iterable(map(_EIDS, scope.values())))
        if len(comp_edges) > _VECTORIZE_EDGES:
            return self._solve_numpy(scope, now)
        # Component edge ids in ascending order: ids are first-seen
        # ranks, so this is the reference scan order restricted to the
        # component, and near-tie breaks agree.
        return self._solve_python(scope, sorted(comp_edges), now)

    # -- fast paths ----------------------------------------------------
    def lone_rate(self, flow: "Flow", now: float) -> float:
        """The rate of a flow alone on its path: the path's minimum
        single-flow capacity (eta = 1), scaled by the fault factors.

        The network also calls this when a flow starts on idle edges
        (a lone-flow start), so that flow never enters a settle.
        """
        net = self.net
        params = net.params
        injector = net.injector
        endpoint = net._edge_endpoint
        line_bw = net._edge_line_bw
        size = flow.size
        best = float("inf")
        for e in flow.eids:
            capacity = params.effective_capacity(
                1, size, endpoint[e], line_bandwidth=line_bw[e]
            )
            if injector is not None:
                capacity *= injector.link_factor(net._edges[e], now)
            if capacity < best:
                best = capacity
        return best

    def _solve_single(
        self, flow: "Flow", now: float
    ) -> Tuple[int, int, int]:
        """A lone flow gets :meth:`lone_rate`, with no filling at all."""
        net = self.net
        flow.rate = self.lone_rate(flow, now)
        if net.max_edge_multiplexing < 1:
            net.max_edge_multiplexing = 1
        return len(flow.eids), 1, 1

    def _solve_python(
        self,
        scope: Dict[int, "Flow"],
        comp_edges: List[int],
        now: float,
    ) -> Tuple[int, int, int]:
        """The reference filler restricted to one small component."""
        net = self.net
        params = net.params
        injector = net.injector
        edge_flows = net._edge_flows
        largest = net._edge_largest
        endpoint = net._edge_endpoint
        line_bw = net._edge_line_bw
        flows = net._flows
        unfrozen = self._unfrozen
        available = self._available
        grow = len(edge_flows) - len(unfrozen)
        if grow > 0:
            unfrozen.extend([0] * grow)
            available.extend([0.0] * grow)
        # The component's populated edges, in first-seen order; each
        # filling round drops the ones that froze.
        live: List[int] = []
        touched = 0
        peak = net.max_edge_multiplexing
        for e in comp_edges:
            n = len(edge_flows[e])
            if n == 0:
                continue
            touched += n
            capacity = params.effective_capacity(
                n, largest[e], endpoint[e], line_bandwidth=line_bw[e]
            )
            if injector is not None:
                capacity *= injector.link_factor(net._edges[e], now)
            unfrozen[e] = n
            available[e] = capacity
            live.append(e)
            if n > peak:
                peak = n
        net.max_edge_multiplexing = peak
        frozen: Set[int] = set()
        for flow in scope.values():
            flow.rate = 0.0
        remaining_flows = len(scope)
        iterations = 0
        while remaining_flows > 0:
            iterations += 1
            best_edge = -1
            best_share = float("inf")
            still: List[int] = []
            for e in live:
                count = unfrozen[e]
                if count <= 0:
                    continue
                still.append(e)
                share = available[e] / count
                if share < best_share - 1e-15:
                    best_share = share
                    best_edge = e
            live = still
            if best_edge < 0:
                raise SimulationError(
                    "max-min allocation stalled with flows unassigned"
                )
            for fid in edge_flows[best_edge]:
                if fid in frozen:
                    continue
                flow = flows[fid]
                flow.rate = best_share
                frozen.add(fid)
                remaining_flows -= 1
                for e in flow.eids:
                    unfrozen[e] -= 1
                    available[e] -= best_share
            unfrozen[best_edge] = 0
        return touched, iterations, iterations

    # -- vectorized waterfill ------------------------------------------
    def _edge_constants(self) -> Tuple["np.ndarray", "np.ndarray"]:
        """Every edge's endpoint flag and line bandwidth, by edge id.

        Both are fixed when the network registers an edge, so the arrays
        are rebuilt only when the edge table has grown.
        """
        net = self.net
        if self._endpoint_arr.size != len(net._edge_endpoint):
            bandwidth = net.params.bandwidth
            self._endpoint_arr = np.array(net._edge_endpoint, dtype=bool)
            self._line_bw_arr = np.array(
                [bandwidth if bw is None else bw for bw in net._edge_line_bw],
                dtype=np.float64,
            )
        return self._endpoint_arr, self._line_bw_arr

    def _solve_numpy(
        self, scope: Dict[int, "Flow"], now: float
    ) -> Tuple[int, int, int]:
        net = self.net
        params = net.params
        injector = net.injector
        flow_list = list(scope.values())
        nflows = len(flow_list)

        # One flat gather of the scope's paths: incidence k is flow
        # flow_of[k] crossing edge id flat[k].  A scope is closed under
        # the flow/edge incidence, so the edges it crosses are exactly
        # the component's and each edge's incidence count is its
        # in-flight flow count.
        paths = list(map(_EIDS, flow_list))
        lens = np.fromiter(map(len, paths), dtype=np.int64, count=nflows)
        flow_of = np.repeat(np.arange(nflows, dtype=np.int64), lens)
        touched = int(flow_of.size)
        flat = np.fromiter(
            chain.from_iterable(paths), dtype=np.int64, count=touched
        )
        # The populated ids in ascending order are the component's
        # edges in the reference scan order; edge_of[k] is incidence
        # k's position among them.
        per_edge = np.bincount(flat)
        edges = np.flatnonzero(per_edge)
        nedges = int(edges.size)
        count_arr = per_edge[edges].astype(np.float64)
        position = np.empty(per_edge.size, dtype=np.int64)
        position[edges] = np.arange(nedges, dtype=np.int64)
        edge_of = position[flat]
        peak = int(per_edge.max())
        if peak > net.max_edge_multiplexing:
            net.max_edge_multiplexing = peak

        # Vectorized effective_capacity: identical elementwise IEEE ops
        # to the scalar path in NetworkParams, so results match the
        # reference bit for bit.
        edge_list = edges.tolist()
        largest_arr = np.fromiter(
            map(net._edge_largest.__getitem__, edge_list),
            dtype=np.float64,
            count=nedges,
        )
        endpoint_all, line_bw_all = self._edge_constants()
        endpoint = endpoint_all[edges]
        raw = line_bw_all[edges]
        big_mask = largest_arr >= params.large_flow_threshold
        floor = np.where(
            endpoint,
            np.where(
                big_mask,
                params.contention_floor_large,
                params.contention_floor_small,
            ),
            np.where(big_mask, params.trunk_floor_large, params.trunk_floor_small),
        )
        excess = count_arr - params.contention_grace
        denom = 1.0 + params.contention_gamma * excess
        safe = np.where(excess > 0, denom, 1.0)
        eta = np.where(excess > 0, floor + (1.0 - floor) / safe, 1.0)
        available = (raw * params.base_efficiency) * eta
        if injector is not None:
            for i, e in enumerate(edge_list):
                available[i] *= injector.link_factor(net._edges[e], now)

        rates = np.zeros(nflows, dtype=np.float64)
        unfrozen = np.ones(nflows, dtype=bool)
        shares = np.empty(nedges, dtype=np.float64)
        nfrozen = 0
        iterations = 0
        saturated = 0
        while nfrozen < nflows:
            iterations += 1
            active = count_arr > 0
            if not active.any():
                raise SimulationError(
                    "max-min allocation stalled with flows unassigned"
                )
            shares.fill(np.inf)
            np.divide(available, count_arr, out=shares, where=active)
            s = float(shares.min())
            if not np.isfinite(s):
                raise SimulationError(
                    "max-min allocation stalled with flows unassigned"
                )
            # Every edge at the exact minimum saturates this round.
            # The reference freezes them one scan at a time, but an
            # exactly-tied edge keeps its share after each freeze
            # (avail = n*s implies (avail - k*s)/(n - k) = s), so
            # batching them is the same fixpoint — and it collapses
            # the highly symmetric AAPC flow sets from O(edges) rounds
            # to a handful of share levels.
            tied = shares == s
            saturated += int(np.count_nonzero(tied))
            # The unfrozen flows crossing a tied edge freeze at s.
            new = np.zeros(nflows, dtype=bool)
            new[flow_of[tied[edge_of]]] = True
            new &= unfrozen
            count = int(np.count_nonzero(new))
            if count:
                rates[new] = s
                unfrozen[new] = False
                nfrozen += count
                # One subtraction per (flow, edge) incidence of the
                # newly frozen flows, all at the same share s.
                delta = np.bincount(edge_of[new[flow_of]], minlength=nedges)
                available -= delta * s
                count_arr -= delta
            count_arr[tied] = 0.0
        for flow, rate in zip(flow_list, rates.tolist()):
            flow.rate = rate
        return touched, iterations, saturated


def make_allocator(name: str, network: "FlowNetwork") -> BaseAllocator:
    """Build the allocator selected by :attr:`NetworkParams.allocator`."""
    if name == "incremental":
        return IncrementalAllocator(network)
    if name == "reference":
        return ReferenceAllocator(network)
    raise SimulationError(f"unknown allocator {name!r}")
