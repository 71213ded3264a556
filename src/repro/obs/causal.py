"""Happens-before DAG reconstruction and critical-path extraction.

The flight recorder (PR 1) captures *what happened when*; this module
reconstructs *why*.  From one run's :class:`~repro.obs.telemetry.
RunTelemetry` it rebuilds the happens-before DAG the execution actually
traversed and walks the **critical path** — the single causal chain of
operations, sync messages and wire transfers whose lengths sum exactly
to the measured completion time.

Nodes and edges
---------------
Nodes are the per-rank :class:`~repro.sim.trace.TraceRecord` instants
plus one *wire-entry* and one *last-byte* node per network flow, framed
by ``START`` (t=0) and ``END`` (t=completion) sentinels.  Edges:

* **program** — consecutive records of the same rank (ranks are
  sequential interpreters, so trace order *is* program order);
* **sync** — ``sync_send`` at the sender to the matching ``sync_recv``
  completion at the receiver (tags are unique per sync edge);
* **handshake** — send/recv post to the flow's wire entry (rendezvous
  flows wait for both posts; buffered flows only for the send);
* **transfer** — wire entry to last byte of one flow;
* **delivery** — a flow's last byte to the trace record it unblocked
  (``complete_send``/``complete_recv``/``waitall_done``);
* **eager** — an eager message's send post to the receive completion it
  gates (eager messages never enter the flow network);
* **barrier** — every rank's pre-barrier record to each barrier exit.

Flows are re-associated with trace records through the ``tag``/``phase``
stamps the network publishes on ``FlowStarted``/``FlowFinished``
(FIFO per ``(src, dst, tag)``, mirroring MPI matching order).

Critical path
-------------
Walking back from ``END``, each step picks the *latest-arriving
predecessor*: the one maximizing ``pred.time + min_edge_cost``, where
the cost is the edge's physical lower bound (sync latency, handshake
latency, the transfer's own duration, zero for local edges).  Ties
prefer message edges, so waiting is attributed to the peer that caused
it rather than to the wait itself.  Because consecutive path segments
share endpoints, segment durations telescope: their sum equals the
measured completion time *exactly*, which is what makes the downstream
gap attribution (:mod:`repro.obs.attribution`) an identity rather than
an estimate.

Every segment's duration is split into named components (``startup``,
``sync_wait``, ``transfer``, ``contention``, ``fault``) — see
:func:`analyze` and ``docs/observability.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Tuple

from collections import deque

from repro.errors import ReproError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.telemetry import RunTelemetry

#: Edge-time slop: event handlers firing at one engine instant may
#: produce records whose float timestamps differ by rounding only.
_EPS = 1e-9

#: The component vocabulary (order = display order).
PATH_COMPONENTS = ("startup", "sync_wait", "transfer", "contention", "fault")

#: Edge kinds whose binding time is a message from another rank.
_MESSAGE_KINDS = frozenset({"sync", "transfer", "delivery", "eager",
                            "handshake", "barrier"})


@dataclass(frozen=True)
class _Node:
    """One vertex of the happens-before DAG."""

    nid: int
    kind: str  # "record" | "flow_start" | "flow_end" | "start" | "end"
    time: float
    rank: str = ""
    what: str = ""
    peer: str = ""
    tag: int = -1
    phase: int = -1
    fid: int = -1
    nbytes: float = 0.0


@dataclass(frozen=True)
class PathSegment:
    """One edge of the critical path, with its time decomposition."""

    start: float
    end: float
    kind: str
    #: Where the segment begins/ends (rank names; "" for wire segments).
    src_rank: str
    dst_rank: str
    #: Human-readable description ("transfer n0->n3 (65536 B)", ...).
    label: str
    phase: int
    #: Split of the segment's duration into named components; values
    #: are seconds and sum to ``duration``.
    components: Dict[str, float]

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def component(self) -> str:
        """The dominant component (largest share of the duration)."""
        if not self.components:
            return "startup"
        return max(self.components.items(), key=lambda kv: kv[1])[0]

    def as_dict(self) -> Dict[str, object]:
        return {
            "start_ms": self.start * 1e3,
            "end_ms": self.end * 1e3,
            "duration_ms": self.duration * 1e3,
            "kind": self.kind,
            "label": self.label,
            "src_rank": self.src_rank,
            "dst_rank": self.dst_rank,
            "phase": self.phase,
            "component": self.component,
            "components_ms": {
                k: v * 1e3 for k, v in self.components.items()
            },
        }


@dataclass
class CausalAnalysis:
    """The critical path and slack structure of one run."""

    completion_time: float
    #: Critical-path segments in time order (first send → last byte).
    segments: List[PathSegment]
    #: Seconds of critical-path time per component; sums (within float
    #: tolerance) to :attr:`completion_time`.
    component_totals: Dict[str, float]
    #: Per-flow slack: how long the flow's last byte sat before the
    #: consuming operation completed (0 = the flow was binding).
    flow_slack: Dict[int, float] = field(default_factory=dict)
    #: Per-sync-edge slack, keyed ``(src, dst, tag)``: completion time
    #: minus earliest possible arrival (0 = the sync was binding).
    sync_slack: Dict[Tuple[str, str, int], float] = field(
        default_factory=dict
    )
    num_nodes: int = 0
    num_edges: int = 0
    #: Events that could not be wired causally (crashed flows, ring
    #: mismatches).  Non-zero means the DAG is best-effort.
    anomalies: int = 0

    def critical_path_length(self) -> float:
        """Sum of segment durations (telescopes to the completion time)."""
        return sum(s.duration for s in self.segments)

    def top_segments(self, n: int = 10) -> List[PathSegment]:
        """The *n* longest critical-path segments."""
        return sorted(self.segments, key=lambda s: s.duration, reverse=True)[:n]

    def as_dict(self) -> Dict[str, object]:
        return {
            "completion_time_ms": self.completion_time * 1e3,
            "critical_path_ms": self.critical_path_length() * 1e3,
            "num_segments": len(self.segments),
            "num_nodes": self.num_nodes,
            "num_edges": self.num_edges,
            "anomalies": self.anomalies,
            "component_totals_ms": {
                k: v * 1e3 for k, v in self.component_totals.items()
            },
            "top_segments": [s.as_dict() for s in self.top_segments(10)],
        }


def _require_full_trace(telemetry: "RunTelemetry") -> None:
    trace = telemetry.trace
    if len(trace) == 0:
        raise ReproError(
            "causal analysis needs a full execution trace; rerun with "
            "telemetry enabled"
        )
    if trace.dropped > 0:
        raise ReproError(
            f"trace ring buffer dropped {trace.dropped} records; causal "
            "analysis needs an unbounded trace (remove max_trace_records)"
        )
    if telemetry.params is None:
        raise ReproError(
            "telemetry carries no NetworkParams; re-run with a current "
            "simulator build (params are attached by run_programs)"
        )


def analyze(telemetry: "RunTelemetry") -> "CausalAnalysis":
    """Reconstruct the happens-before DAG and extract the critical path."""
    _require_full_trace(telemetry)
    params = telemetry.params
    completion = telemetry.completion_time

    nodes: List[_Node] = []
    # preds[nid] -> list of (pred_nid, edge_kind, min_cost)
    preds: List[List[Tuple[int, str, float]]] = []
    anomalies = 0
    num_edges = 0

    def new_node(kind: str, time: float, **kw) -> int:
        nid = len(nodes)
        nodes.append(_Node(nid, kind, time, **kw))
        preds.append([])
        return nid

    def add_edge(pred: int, node: int, kind: str, cost: float = 0.0) -> None:
        nonlocal anomalies, num_edges
        # A reconstructed edge running backwards in time means the
        # event matching misfired; dropping it keeps the DAG sound.
        if nodes[pred].time > nodes[node].time + _EPS:
            anomalies += 1
            return
        preds[node].append((pred, kind, cost))
        num_edges += 1

    start_nid = new_node("start", 0.0)

    # --- flow nodes, matched to posts FIFO per (src, dst, tag) -------
    flows = sorted(telemetry.links.flows, key=lambda f: (f.start, f.fid))
    fs_of: Dict[int, int] = {}
    fe_of: Dict[int, int] = {}
    link_bw = telemetry.link_bandwidths or {}

    def _line_bw(edge: Tuple[str, str]) -> float:
        return link_bw.get(edge, link_bw.get((edge[1], edge[0]),
                                             telemetry.bandwidth))

    flow_mode: Dict[int, str] = {}
    flow_ideal: Dict[int, float] = {}
    send_q: Dict[Tuple[str, str, int], Deque[int]] = {}
    recv_q: Dict[Tuple[str, str, int], Deque[int]] = {}
    for f in flows:
        fs = new_node("flow_start", f.start, rank=f.src, peer=f.dst,
                      what="flow", tag=f.tag, phase=f.phase, fid=f.fid,
                      nbytes=f.nbytes)
        fe = new_node("flow_end", f.end, rank=f.src, peer=f.dst,
                      what="flow", tag=f.tag, phase=f.phase, fid=f.fid,
                      nbytes=f.nbytes)
        add_edge(fs, fe, "transfer", f.end - f.start)
        fs_of[f.fid], fe_of[f.fid] = fs, fe
        flow_mode[f.fid] = params.transfer_mode(int(f.nbytes))
        bottleneck = min(
            (_line_bw(e) for e in f.path), default=telemetry.bandwidth
        )
        flow_ideal[f.fid] = f.nbytes / (bottleneck * params.base_efficiency)
        key = (f.src, f.dst, f.tag)
        send_q.setdefault(key, deque()).append(f.fid)
        recv_q.setdefault(key, deque()).append(f.fid)

    # --- record nodes, in global (= per-rank program) order ----------
    # Sync-disrupted edges, for classifying excess sync latency.
    disrupted = {
        (ev.src, ev.dst, ev.tag)
        for ev in telemetry.sync_disruptions
        if hasattr(ev, "src")
    }
    straggler_windows = [
        (w.target, w.start, completion if w.end is None else w.end)
        for w in telemetry.faults
        if getattr(w, "kind", "") == "straggler"
    ]

    prev_of: Dict[str, int] = {}
    first_of: Dict[str, int] = {}
    sync_pending: Dict[Tuple[str, str, int], Deque[int]] = {}
    eager_posts: Dict[Tuple[str, str, int], Deque[int]] = {}
    # Per-rank operations whose completion is still outstanding:
    # ("flow", key, fid) awaiting the flow's last byte, or
    # ("eager", key) awaiting an eager arrival (resolved lazily —
    # the sender may not have posted yet when the recv posts).
    outstanding: Dict[str, List[Tuple]] = {}
    flow_slack: Dict[int, float] = {}
    sync_slack: Dict[Tuple[str, str, int], float] = {}
    barrier_rounds: Dict[int, List[Tuple[int, Optional[int]]]] = {}
    barrier_count: Dict[str, int] = {}

    def _settle_dep(rank: str, nid: int, dep: Tuple) -> None:
        """Wire one outstanding dependency into its completion record."""
        nonlocal anomalies
        if dep[0] == "flow":
            _, key, fid = dep
            add_edge(fe_of[fid], nid, "delivery")
            slack = nodes[nid].time - nodes[fe_of[fid]].time
            flow_slack[fid] = min(flow_slack.get(fid, slack), slack)
        else:
            _, key = dep
            src, dst, tag = key
            posts = eager_posts.get(key)
            if posts:
                add_edge(posts.popleft(), nid, "eager",
                         params.eager_latency)
            else:
                anomalies += 1

    for r in telemetry.trace.records:
        rank = r.rank
        nid = new_node("record", r.time, rank=rank, what=r.what,
                       peer=r.peer, tag=r.tag, phase=r.phase)
        prev = prev_of.get(rank)
        if prev is None:
            first_of[rank] = nid
            add_edge(start_nid, nid, "program")
        else:
            add_edge(prev, nid, "program")
        prev_of[rank] = nid
        pend = outstanding.setdefault(rank, [])

        if r.what == "sync_send":
            sync_pending.setdefault(
                (rank, r.peer, r.tag), deque()
            ).append(nid)
        elif r.what == "sync_recv":
            key = (r.peer, rank, r.tag)
            senders = sync_pending.get(key)
            if senders:
                snd = senders.popleft()
                add_edge(snd, nid, "sync", params.sync_latency)
                sync_slack[key] = max(
                    0.0,
                    r.time - (nodes[snd].time + params.sync_latency),
                )
            else:
                anomalies += 1
        elif r.what == "post_send":
            key = (rank, r.peer, r.tag)
            q = send_q.get(key)
            if q:
                fid = q.popleft()
                add_edge(nid, fs_of[fid], "handshake",
                         params.rendezvous_latency
                         if flow_mode[fid] == "rendezvous"
                         else params.eager_latency)
                if flow_mode[fid] == "rendezvous":
                    # Rendezvous sends complete at the last byte;
                    # buffered sends completed at post already.
                    pend.append(("flow", key, fid))
            else:
                eager_posts.setdefault(key, deque()).append(nid)
        elif r.what == "post_recv":
            key = (r.peer, rank, r.tag)
            q = recv_q.get(key)
            if q:
                fid = q.popleft()
                if flow_mode[fid] == "rendezvous":
                    add_edge(nid, fs_of[fid], "handshake",
                             params.rendezvous_latency)
                pend.append(("flow", key, fid))
            else:
                pend.append(("eager", key))
        elif r.what == "complete_send":
            key = (rank, r.peer, r.tag)
            for i, dep in enumerate(pend):
                if dep[0] == "flow" and dep[1] == key:
                    _settle_dep(rank, nid, dep)
                    del pend[i]
                    break
        elif r.what == "complete_recv":
            key = (r.peer, rank, r.tag)
            for i, dep in enumerate(pend):
                if dep[1] == key:
                    _settle_dep(rank, nid, dep)
                    del pend[i]
                    break
        elif r.what == "waitall_done":
            for dep in pend:
                _settle_dep(rank, nid, dep)
            pend.clear()
        elif r.what == "barrier":
            k = barrier_count.get(rank, 0)
            barrier_count[rank] = k + 1
            barrier_rounds.setdefault(k, []).append((nid, prev))
        # sync_wait / crashed need only the program edge added above.

    # Barrier exits: every participant's pre-barrier record gates every
    # exit in the same round (the release waits for the last arrival).
    for members in barrier_rounds.values():
        arrivals = [p for _, p in members if p is not None]
        for nid, own_prev in members:
            for p in arrivals:
                if p != own_prev:  # own program edge already present
                    add_edge(p, nid, "barrier", params.barrier_latency)

    end_nid = new_node("end", completion)
    for rank, last in prev_of.items():
        add_edge(last, end_nid, "finish")

    # --- critical path: latest-arriving-predecessor backward walk ----
    path_edges: List[Tuple[int, int, str, float]] = []
    cur = end_nid
    while preds[cur]:
        best = max(
            preds[cur],
            key=lambda e: (
                nodes[e[0]].time + e[2],
                e[1] in _MESSAGE_KINDS,
            ),
        )
        path_edges.append((best[0], cur, best[1], best[2]))
        cur = best[0]
    path_edges.reverse()

    # --- classify each segment into components -----------------------
    def _in_straggler(rank: str, t0: float, t1: float) -> bool:
        return any(
            target == rank and t0 < wend and t1 > wstart
            for target, wstart, wend in straggler_windows
        )

    segments: List[PathSegment] = []
    totals: Dict[str, float] = {c: 0.0 for c in PATH_COMPONENTS}
    for pred, node, kind, cost in path_edges:
        p, n = nodes[pred], nodes[node]
        d = max(0.0, n.time - p.time)
        comp: Dict[str, float]
        if kind == "transfer":
            ideal = min(flow_ideal.get(p.fid, d), d)
            comp = {"transfer": ideal, "contention": d - ideal}
            label = f"transfer {p.rank}->{p.peer} ({int(p.nbytes)} B)"
            src_rank, dst_rank = p.rank, p.peer
        elif kind == "sync":
            key = (p.rank, n.rank, n.tag)
            base = min(d, cost)
            if key in disrupted and d > base:
                comp = {"sync_wait": base, "fault": d - base}
            else:
                comp = {"sync_wait": d}
            label = f"sync {p.rank}->{n.rank}"
            src_rank, dst_rank = p.rank, n.rank
        elif kind == "barrier":
            comp = {"sync_wait": d}
            label = f"barrier ({p.rank}->{n.rank})"
            src_rank, dst_rank = p.rank, n.rank
        elif kind == "program":
            if n.what == "sync_recv":
                comp = {"sync_wait": d}
                label = f"wait for sync from {n.peer} @ {n.rank}"
            elif _in_straggler(n.rank, p.time, n.time):
                comp = {"fault": d}
                label = f"straggling {n.what} @ {n.rank}"
            else:
                comp = {"startup": d}
                label = f"{n.what or 'finish'} @ {n.rank or p.rank}"
            src_rank = dst_rank = n.rank or p.rank
        elif kind in ("handshake", "eager"):
            comp = {"startup": d}
            verb = "handshake" if kind == "handshake" else "eager"
            label = f"{verb} {p.rank}->{p.peer or n.rank}"
            src_rank, dst_rank = p.rank, p.peer or n.rank
        else:  # delivery / finish / start bookkeeping edges
            comp = {"startup": d}
            label = f"{kind} @ {n.rank or p.rank}"
            src_rank, dst_rank = p.rank or n.rank, n.rank or p.rank
        phase = n.phase if n.phase >= 0 else p.phase
        segments.append(
            PathSegment(
                start=p.time, end=n.time, kind=kind,
                src_rank=src_rank, dst_rank=dst_rank,
                label=label, phase=phase, components=comp,
            )
        )
        for c, v in comp.items():
            totals[c] = totals.get(c, 0.0) + v

    return CausalAnalysis(
        completion_time=completion,
        segments=segments,
        component_totals=totals,
        flow_slack=flow_slack,
        sync_slack=sync_slack,
        num_nodes=len(nodes),
        num_edges=num_edges,
        anomalies=anomalies,
    )
