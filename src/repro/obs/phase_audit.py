"""Phase observatory: observed phase windows and predicted-vs-observed
divergence auditing.

:func:`phase_windows` is the one per-phase analysis of a run: from the
flight recorder's flow records and phase-tagged trace records it
derives each phase's **observed window** (first to last activity),
per-rank **barrier skew** (how staggered the ranks entered the phase),
the **sync wait** ranks spent blocked on the phase's sync messages and
the **bottleneck rank** whose activity closed the phase.
:class:`~repro.obs.telemetry.RunTelemetry` exposes it as
``telemetry.phase_windows``.

The paper's Theorem makes each scheduled phase *predictable*: no two
messages share a directed link, so static analysis can state exactly
which links a phase loads and by how many bytes.  :func:`audit_phases`
checks that promise against reality.  It joins the static model
(:func:`repro.core.program_analysis.analyze_programs`) with the flow
records (:mod:`repro.obs.link_metrics`) on the shared *effective round*
key and produces, per phase:

* the observed window from :func:`phase_windows`;
* per directed link, predicted message count and bytes vs observed
  bytes, flow count and **contention events** (flow arrivals onto a
  link already busy *within the phase's own traffic*, recomputed from
  flow intervals so cross-phase bleed is attributed to the arriving
  phase);
* a **duration ratio**: observed span against the contention-free
  serial transfer bound ``max_link_bytes / (line_rate * efficiency)``;
* a **verdict** per (phase, link): ``contention-violation`` when
  contention was observed inside a phase the static certificate deemed
  contention-free (concurrency ≤ 1 — the Theorem broken), ``divergent``
  when occupancy strays outside tolerance or an uncertified phase shows
  real contention, ``unobserved`` when the run carried no wire flows at
  all (eager messages), else ``ok``.

:func:`audit_phases` returns a :class:`PhaseAuditReport`; its ranked
``divergences``, ``summary()`` table, schema-versioned ``as_dict()``
and condensed ``summary_dict()`` (the form the ledger stores per
algorithm entry) power the ``repro-aapc phases`` subcommand, the
Perfetto divergence track and the ledger's per-run phase verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro._version import __version__
from repro.core.program import Program
from repro.core.program_analysis import analyze_programs
from repro.errors import ReproError
from repro.obs.bus import Edge
from repro.topology.graph import Topology

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.link_metrics import FlowRecord
    from repro.obs.telemetry import RunTelemetry
    from repro.sim.trace import Trace

#: Version of the phase-audit report schema.  Bump on incompatible
#: change; consumers (ledger summaries) key on it.
PHASE_AUDIT_SCHEMA_VERSION = 1

VERDICT_OK = "ok"
VERDICT_DIVERGENT = "divergent"
VERDICT_VIOLATION = "contention-violation"
VERDICT_UNOBSERVED = "unobserved"

#: Severity order for ranking divergence rows (worst first).
_VERDICT_RANK = {
    VERDICT_VIOLATION: 0,
    VERDICT_DIVERGENT: 1,
    VERDICT_UNOBSERVED: 2,
    VERDICT_OK: 3,
}

#: Default relative tolerance for predicted-vs-observed occupancy.
DEFAULT_OCCUPANCY_TOLERANCE = 0.10

#: Two flows "overlap" only if one starts this much before the other
#: ends — guards against same-instant handoffs at phase boundaries.
_OVERLAP_EPS = 1e-12


def _edge_key(edge: Edge) -> str:
    return f"{edge[0]}->{edge[1]}"


@dataclass(frozen=True)
class PhaseWindow:
    """Observed time window of one phase, with per-rank entry skew."""

    phase: int
    start: float
    end: float
    #: Per sending rank: first flow start minus the earliest rank's (s)
    #: — how late each rank entered the phase.
    rank_offsets: Dict[str, float] = field(default_factory=dict)
    #: Seconds ranks spent blocked in ``sync_wait`` until the matching
    #: ``sync_recv`` — nonzero only for synchronized programs.
    sync_wait: float = 0.0
    #: Rank whose activity closed the phase ("" when unknown).
    bottleneck_rank: str = ""

    @property
    def span(self) -> float:
        return max(self.end - self.start, 0.0)

    @property
    def barrier_skew(self) -> float:
        """Spread of per-rank phase entry (max offset), seconds."""
        if not self.rank_offsets:
            return 0.0
        return max(self.rank_offsets.values())

    def as_dict(self) -> Dict[str, object]:
        return {
            "phase": self.phase,
            "start_ms": self.start * 1e3,
            "end_ms": self.end * 1e3,
            "span_ms": self.span * 1e3,
            "barrier_skew_ms": self.barrier_skew * 1e3,
            "sync_wait_ms": self.sync_wait * 1e3,
            "bottleneck_rank": self.bottleneck_rank,
            "rank_offsets_ms": {
                rank: off * 1e3
                for rank, off in sorted(self.rank_offsets.items())
            },
        }


def phase_windows(
    trace: "Optional[Trace]" = None, flows: "Sequence[FlowRecord]" = ()
) -> List[PhaseWindow]:
    """Observed window of every phase, in phase order.

    Activity is every flow (keyed by its effective round; flows are
    never capped) and every phase-tagged trace record (which also sees
    posts and syncs the flows do not).  Per phase: the window spans all
    activity and the bottleneck rank is the one whose activity ends
    last (a flow's end is its receiver's).  A rank *enters* a phase
    when its first flow of the phase reaches the wire — receives posted
    early for later phases are pipelining, not entry — so phases whose
    data never crossed the wire (eager sizes) report no skew.  Sync
    wait pairs ``sync_wait`` with the matching ``sync_recv`` record.
    """
    activity: List[Tuple[int, float, float, str]] = [
        (f.phase, f.start, f.end, f.dst) for f in flows
    ]
    sync_wait: Dict[int, float] = {}
    if trace is not None:
        waiting: Dict[Tuple[str, str, int], float] = {}
        for r in trace.records:
            if r.phase >= 0:
                activity.append((r.phase, r.time, r.time, r.rank))
            key = (r.rank, r.peer, r.tag)
            if r.what == "sync_wait":
                waiting[key] = r.time
            elif r.what == "sync_recv" and key in waiting:
                sync_wait[r.phase] = (
                    sync_wait.get(r.phase, 0.0) + r.time - waiting.pop(key)
                )
    bounds: Dict[int, Tuple[float, float]] = {}
    closers: Dict[int, Tuple[float, str]] = {}
    for phase, start, end, rank in activity:
        lo, hi = bounds.get(phase, (start, end))
        bounds[phase] = (min(lo, start), max(hi, end))
        if phase not in closers or end >= closers[phase][0]:
            closers[phase] = (end, rank)
    entries: Dict[int, Dict[str, float]] = {}
    for f in flows:
        ranks = entries.setdefault(f.phase, {})
        ranks[f.src] = min(ranks.get(f.src, f.start), f.start)
    windows = []
    for phase in sorted(bounds):
        lo, hi = bounds[phase]
        ranks = entries.get(phase, {})
        earliest = min(ranks.values(), default=lo)
        windows.append(
            PhaseWindow(
                phase=phase,
                start=lo,
                end=hi,
                rank_offsets={rank: t - earliest for rank, t in ranks.items()},
                sync_wait=sync_wait.get(phase, 0.0),
                bottleneck_rank=closers[phase][1],
            )
        )
    return windows


def overlap_fraction(windows: Sequence[PhaseWindow]) -> float:
    """Fraction of consecutive phase pairs whose windows overlap.

    Windows include operation *posting*: ranks legitimately post
    receives for future phases early (pipelining), so even a perfectly
    synchronized run overlaps.  This measures pipelining depth, not
    contention — for contention use the link counters or the audit.
    """
    if len(windows) < 2:
        return 0.0
    overlapping = sum(
        1 for a, b in zip(windows, windows[1:]) if b.start < a.end
    )
    return overlapping / (len(windows) - 1)


def windows_dict(windows: Sequence[PhaseWindow]) -> Dict[str, object]:
    """The ``phase_windows`` block of the metrics report."""
    return {
        "num_phases": len(windows),
        "total_sync_wait_ms": sum(w.sync_wait for w in windows) * 1e3,
        "max_barrier_skew_ms": max(
            (w.barrier_skew for w in windows), default=0.0
        ) * 1e3,
        "overlap_fraction": overlap_fraction(windows),
        "windows": [w.as_dict() for w in windows],
    }


def windows_table(windows: Sequence[PhaseWindow]) -> str:
    """Terminal table: one row per phase window, times in ms."""
    lines = [
        f"{'phase':>5s} {'start ms':>9s} {'end ms':>9s} {'skew ms':>8s} "
        f"{'sync wait':>9s}  bottleneck"
    ]
    for w in windows:
        lines.append(
            f"{w.phase:>5d} {w.start * 1e3:9.2f} {w.end * 1e3:9.2f} "
            f"{w.barrier_skew * 1e3:8.2f} {w.sync_wait * 1e3:9.2f}  "
            f"{w.bottleneck_rank}"
        )
    return "\n".join(lines)


@dataclass(frozen=True)
class PhaseDivergence:
    """Predicted vs observed load of one directed link in one phase."""

    phase: int
    edge: Edge
    predicted_messages: int
    predicted_bytes: float
    observed_bytes: float
    observed_flows: int
    #: Flow arrivals onto this edge while it already carried a flow,
    #: counted within the phase's window (arriving flow's phase).
    contention_events: int
    #: Static certificate: analysis found concurrency ≤ 1 here, i.e.
    #: the verifier's contention-free promise covers this (phase, link).
    certified_contention_free: bool
    verdict: str

    @property
    def occupancy_ratio(self) -> float:
        """Observed bytes / predicted bytes (inf when unpredicted)."""
        if self.predicted_bytes <= 0:
            return float("inf") if self.observed_bytes > 0 else 1.0
        return self.observed_bytes / self.predicted_bytes

    @property
    def deviation(self) -> float:
        """``|occupancy_ratio - 1|`` — the gate's distance measure."""
        ratio = self.occupancy_ratio
        if ratio == float("inf"):
            return float("inf")
        return abs(ratio - 1.0)

    def as_dict(self) -> Dict[str, object]:
        return {
            "phase": self.phase,
            "link": _edge_key(self.edge),
            "predicted_messages": self.predicted_messages,
            "predicted_bytes": self.predicted_bytes,
            "observed_bytes": self.observed_bytes,
            "observed_flows": self.observed_flows,
            "contention_events": self.contention_events,
            "certified_contention_free": self.certified_contention_free,
            "occupancy_ratio": self.occupancy_ratio,
            "verdict": self.verdict,
        }


@dataclass(frozen=True)
class PhaseDuration:
    """Observed phase span vs the contention-free transfer bound."""

    phase: int
    #: ``max_link_bytes / (line_rate * base_efficiency)`` — the serial
    #: bound a contention-free phase cannot beat (excludes handshakes).
    predicted: float
    observed: float

    @property
    def ratio(self) -> float:
        if self.predicted <= 0:
            return float("inf") if self.observed > 0 else 1.0
        return self.observed / self.predicted

    def as_dict(self) -> Dict[str, object]:
        ratio = self.ratio
        return {
            "phase": self.phase,
            "predicted_ms": self.predicted * 1e3,
            "observed_ms": self.observed * 1e3,
            "ratio": None if ratio == float("inf") else ratio,
        }


@dataclass
class PhaseAuditReport:
    """Everything the phase observatory learned about one run."""

    msize: int
    occupancy_tolerance: float
    windows: List[PhaseWindow]
    durations: List[PhaseDuration]
    #: Every (phase, link) row, ranked worst-first.
    rows: List[PhaseDivergence]
    #: Static worst per-phase edge concurrency (analysis echo).
    max_phase_edge_concurrency: int = 0

    # ------------------------------------------------------------------
    @property
    def num_phases(self) -> int:
        phases = {w.phase for w in self.windows} | {r.phase for r in self.rows}
        return len(phases)

    @property
    def violations(self) -> List[PhaseDivergence]:
        return [r for r in self.rows if r.verdict == VERDICT_VIOLATION]

    @property
    def divergences(self) -> List[PhaseDivergence]:
        """Rows that are not ``ok``, worst first."""
        return [r for r in self.rows if r.verdict != VERDICT_OK]

    @property
    def max_occupancy_deviation(self) -> float:
        """Worst ``|ratio - 1|`` over rows with any observed traffic."""
        observed = [
            r.deviation
            for r in self.rows
            if r.verdict != VERDICT_UNOBSERVED
            and (r.observed_bytes > 0 or r.predicted_bytes > 0)
        ]
        return max(observed, default=0.0)

    @property
    def worst_duration_ratio(self) -> float:
        finite = [
            d.ratio for d in self.durations if d.ratio != float("inf")
        ]
        return max(finite, default=1.0)

    @property
    def total_contention_events(self) -> int:
        return sum(r.contention_events for r in self.rows)

    @property
    def worst_divergence(self) -> float:
        """One number for sweep cells: inf on a Theorem violation,
        else the worst occupancy deviation."""
        if self.violations:
            return float("inf")
        return self.max_occupancy_deviation

    @property
    def clean(self) -> bool:
        """No violation and no divergent row (unobserved rows pass)."""
        return not any(
            r.verdict in (VERDICT_VIOLATION, VERDICT_DIVERGENT)
            for r in self.rows
        )

    # ------------------------------------------------------------------
    def gate(self, max_divergence: float) -> List[str]:
        """Budget-style gate: the list of failures (empty = pass).

        Any Theorem violation fails outright; otherwise the worst
        occupancy deviation must stay within *max_divergence*.
        """
        if not max_divergence >= 0:  # also rejects NaN
            raise ReproError(
                f"max divergence must be non-negative, got {max_divergence}"
            )
        problems: List[str] = []
        for row in self.violations:
            problems.append(
                f"phase {row.phase} link {_edge_key(row.edge)}: "
                f"{row.contention_events} contention event(s) inside a "
                f"certified contention-free phase"
            )
        dev = self.max_occupancy_deviation
        if dev > max_divergence:
            worst = max(
                (
                    r
                    for r in self.rows
                    if r.verdict != VERDICT_UNOBSERVED
                ),
                key=lambda r: (r.deviation, r.observed_bytes),
                default=None,
            )
            where = (
                f" (phase {worst.phase} link {_edge_key(worst.edge)})"
                if worst is not None and worst.deviation >= dev
                else ""
            )
            shown = "inf" if dev == float("inf") else f"{dev * 100:.1f}%"
            problems.append(
                f"occupancy deviation {shown} exceeds "
                f"--max-divergence {max_divergence * 100:.1f}%{where}"
            )
        return problems

    # ------------------------------------------------------------------
    def _phase_rows(self) -> Dict[int, List[PhaseDivergence]]:
        grouped: Dict[int, List[PhaseDivergence]] = {}
        for row in self.rows:
            grouped.setdefault(row.phase, []).append(row)
        return grouped

    def phase_verdict(self, phase: int) -> str:
        rows = self._phase_rows().get(phase, [])
        if not rows:
            return VERDICT_OK
        return min(rows, key=lambda r: _VERDICT_RANK[r.verdict]).verdict

    def summary(self) -> str:
        """Terminal table: one line per phase, then ranked divergences."""
        windows = {w.phase: w for w in self.windows}
        durations = {d.phase: d for d in self.durations}
        grouped = self._phase_rows()
        phases = sorted(set(windows) | set(grouped))
        lines = [
            f"phase audit: {len(phases)} phases, "
            f"{len({r.edge for r in self.rows})} links, "
            f"msize {self.msize}, tolerance "
            f"{self.occupancy_tolerance * 100:.0f}%",
            f"{'phase':>5s} {'window ms':>19s} {'skew ms':>8s} "
            f"{'pred B':>12s} {'obs B':>12s} {'ratio':>6s} "
            f"{'contn':>5s} {'dur x':>6s}  verdict",
        ]
        for phase in phases:
            rows = grouped.get(phase, [])
            win = windows.get(phase)
            dur = durations.get(phase)
            pred = sum(r.predicted_bytes for r in rows)
            obs = sum(r.observed_bytes for r in rows)
            contention = sum(r.contention_events for r in rows)
            ratio = obs / pred if pred > 0 else float("inf")
            ratio_s = f"{ratio:6.2f}" if ratio != float("inf") else "   inf"
            dur_s = (
                f"{dur.ratio:6.2f}"
                if dur is not None and dur.ratio != float("inf")
                else "     -"
            )
            win_s = (
                f"[{win.start * 1e3:8.3f},{win.end * 1e3:8.3f}]"
                if win is not None
                else f"{'-':>19s}"
            )
            skew_s = (
                f"{win.barrier_skew * 1e3:8.3f}" if win is not None
                else f"{'-':>8s}"
            )
            lines.append(
                f"{phase:>5d} {win_s} {skew_s} {pred:>12.0f} {obs:>12.0f} "
                f"{ratio_s} {contention:>5d} {dur_s}  "
                f"{self.phase_verdict(phase)}"
            )
        flagged = self.divergences
        if flagged:
            lines.append("divergent links (worst first):")
            for row in flagged[:10]:
                ratio = row.occupancy_ratio
                ratio_s = f"{ratio:.2f}x" if ratio != float("inf") else "inf"
                lines.append(
                    f"  phase {row.phase:>3d}  {_edge_key(row.edge):>16s}  "
                    f"pred {row.predicted_bytes:.0f} B obs "
                    f"{row.observed_bytes:.0f} B ({ratio_s})  "
                    f"contention {row.contention_events}  [{row.verdict}]"
                )
            if len(flagged) > 10:
                lines.append(f"  ... and {len(flagged) - 10} more")
        lines.append(
            f"verdict: "
            + (
                "OK — every phase within tolerance, no contention "
                "inside certified phases"
                if self.clean
                else f"{len(self.violations)} violation(s), "
                f"{len([r for r in self.divergences if r.verdict == VERDICT_DIVERGENT])} "
                f"divergent row(s), worst occupancy deviation "
                + (
                    "inf"
                    if self.max_occupancy_deviation == float("inf")
                    else f"{self.max_occupancy_deviation * 100:.1f}%"
                )
            )
        )
        return "\n".join(lines)

    # ------------------------------------------------------------------
    def summary_dict(self) -> Dict[str, object]:
        """Condensed form the ledger stores per algorithm entry."""
        dev = self.max_occupancy_deviation
        return {
            "schema": PHASE_AUDIT_SCHEMA_VERSION,
            "num_phases": self.num_phases,
            "violations": len(self.violations),
            "divergent_rows": len(
                [r for r in self.divergences if r.verdict == VERDICT_DIVERGENT]
            ),
            "contention_events": self.total_contention_events,
            "max_occupancy_deviation": (
                None if dev == float("inf") else dev
            ),
            "worst_duration_ratio": self.worst_duration_ratio,
            "clean": self.clean,
            "phase_verdicts": {
                str(phase): self.phase_verdict(phase)
                for phase in sorted(
                    {w.phase for w in self.windows}
                    | {r.phase for r in self.rows}
                )
            },
        }

    def as_dict(self) -> Dict[str, object]:
        """Full schema-versioned artifact (``phases --json-out``)."""
        return {
            "schema": PHASE_AUDIT_SCHEMA_VERSION,
            "repro_version": __version__,
            "msize": self.msize,
            "occupancy_tolerance": self.occupancy_tolerance,
            "max_phase_edge_concurrency": self.max_phase_edge_concurrency,
            "windows": [w.as_dict() for w in self.windows],
            "durations": [d.as_dict() for d in self.durations],
            "rows": [r.as_dict() for r in self.rows],
            "summary": self.summary_dict(),
        }


# ----------------------------------------------------------------------
# the audit itself
# ----------------------------------------------------------------------
def _observed_by_phase_edge(
    flows,
) -> Tuple[
    Dict[Tuple[int, Edge], float],
    Dict[Tuple[int, Edge], int],
    Dict[Tuple[int, Edge], int],
]:
    """Observed bytes / flow counts / contention per (phase, edge).

    Contention is recomputed from flow intervals with a per-edge sweep
    (arrival onto a busy edge = one event, attributed to the arriving
    flow's phase) so cross-phase bleed lands on the phase that barged
    in, which the run-global link counters cannot distinguish.
    """
    observed_bytes: Dict[Tuple[int, Edge], float] = {}
    observed_flows: Dict[Tuple[int, Edge], int] = {}
    contention: Dict[Tuple[int, Edge], int] = {}
    per_edge: Dict[Edge, List] = {}
    for flow in flows:
        for edge in flow.path:
            key = (flow.phase, edge)
            observed_bytes[key] = observed_bytes.get(key, 0.0) + flow.nbytes
            observed_flows[key] = observed_flows.get(key, 0) + 1
            per_edge.setdefault(edge, []).append(flow)
    for edge, edge_flows in per_edge.items():
        edge_flows.sort(key=lambda f: (f.start, f.end))
        active_ends: List[float] = []
        for flow in edge_flows:
            active_ends = [
                end for end in active_ends if end > flow.start + _OVERLAP_EPS
            ]
            if active_ends:
                key = (flow.phase, edge)
                contention[key] = contention.get(key, 0) + 1
            active_ends.append(flow.end)
    return observed_bytes, observed_flows, contention


def audit_phases(
    telemetry: "RunTelemetry",
    topology: Topology,
    programs: Dict[str, Program],
    *,
    msize: Optional[int] = None,
    occupancy_tolerance: float = DEFAULT_OCCUPANCY_TOLERANCE,
) -> PhaseAuditReport:
    """Join the static model with a run's telemetry, per phase.

    *telemetry* must come from an instrumented run of exactly
    *programs* on *topology* (``run_programs(..., telemetry=True)``).
    """
    if msize is None:
        msize = telemetry.msize
    if msize is None:
        raise ReproError(
            "phase audit needs the per-block message size; pass msize= "
            "or use telemetry from an executor that records it"
        )
    if not occupancy_tolerance >= 0:  # also rejects NaN
        raise ReproError(
            f"occupancy tolerance must be non-negative, "
            f"got {occupancy_tolerance}"
        )
    analysis = analyze_programs(topology, programs, msize)
    # Predicted per (phase, edge): message counts and byte loads.
    predicted_bytes = analysis.phase_edge_bytes
    predicted_msgs = analysis.phase_edge_messages

    flows = telemetry.links.flows
    observed_bytes, observed_flows, contention = _observed_by_phase_edge(
        flows
    )
    # Audit only phases whose data reached the wire: a phase seen only
    # in trace records (eager sizes) has no observed load to compare.
    flow_phases = {f.phase for f in flows}
    windows = [w for w in telemetry.phase_windows if w.phase in flow_phases]

    # The run carried no wire flows at all (pure-eager message size):
    # nothing to compare, so predicted rows become "unobserved" rather
    # than a wall of spurious 100% divergences.
    run_unobserved = not flows

    rows: List[PhaseDivergence] = []
    for key in sorted(set(predicted_bytes) | set(observed_bytes)):
        phase, edge = key
        pred_b = predicted_bytes.get(key, 0.0)
        pred_n = predicted_msgs.get(key, 0)
        obs_b = observed_bytes.get(key, 0.0)
        obs_n = observed_flows.get(key, 0)
        events = contention.get(key, 0)
        certified = pred_n <= 1
        if certified and events > 0:
            verdict = VERDICT_VIOLATION
        elif run_unobserved:
            verdict = VERDICT_UNOBSERVED
        elif events > 0:
            # Real over-subscription in an uncertified phase: the model
            # predicted it could happen, the wire confirms it did.
            verdict = VERDICT_DIVERGENT
        else:
            ratio = obs_b / pred_b if pred_b > 0 else float("inf")
            deviation = (
                abs(ratio - 1.0) if ratio != float("inf") else float("inf")
            )
            verdict = (
                VERDICT_DIVERGENT
                if deviation > occupancy_tolerance
                else VERDICT_OK
            )
        rows.append(
            PhaseDivergence(
                phase=phase,
                edge=edge,
                predicted_messages=pred_n,
                predicted_bytes=pred_b,
                observed_bytes=obs_b,
                observed_flows=obs_n,
                contention_events=events,
                certified_contention_free=certified,
                verdict=verdict,
            )
        )
    rows.sort(
        key=lambda r: (
            _VERDICT_RANK[r.verdict],
            -r.contention_events,
            -(0.0 if r.deviation == float("inf") else r.deviation),
            -r.observed_bytes,
            r.phase,
            r.edge,
        )
    )

    # Duration bound per phase: the busiest link's serial transfer time
    # at modelled efficiency — what a contention-free phase should take,
    # give or take handshakes and sync.
    params = telemetry.params
    efficiency = getattr(params, "base_efficiency", 1.0) or 1.0
    overrides = telemetry.link_bandwidths or {}
    bounds: Dict[int, float] = {}
    for (phase, edge), nbytes in predicted_bytes.items():
        rate = overrides.get(
            edge, overrides.get((edge[1], edge[0]), telemetry.bandwidth)
        )
        if rate > 0:
            bound = nbytes / (rate * efficiency)
            bounds[phase] = max(bounds.get(phase, 0.0), bound)

    window_map = {w.phase: w for w in windows}
    durations: List[PhaseDuration] = []
    phases = sorted(
        {phase for phase, _ in predicted_bytes} | set(window_map)
    )
    for phase in phases:
        bound = bounds.get(phase, 0.0)
        win = window_map.get(phase)
        observed = win.span if win is not None else 0.0
        durations.append(
            PhaseDuration(phase=phase, predicted=bound, observed=observed)
        )

    return PhaseAuditReport(
        msize=msize,
        occupancy_tolerance=occupancy_tolerance,
        windows=windows,
        durations=durations,
        rows=rows,
        max_phase_edge_concurrency=analysis.max_phase_edge_concurrency,
    )
