"""Command-line interface: ``repro-aapc`` / ``python -m repro``.

Subcommands mirror the workflow of the paper's routine generator:

* ``analyze``  — load a topology file, report loads/bottlenecks/peak.
* ``schedule`` — print the contention-free phased schedule (Table 4 style).
* ``codegen``  — emit the customized MPI_Alltoall C routine.
* ``simulate`` — run algorithms on the simulator, report timing.
* ``trace``    — flight-recorder run: summary + Perfetto trace.
* ``explain``  — causal critical-path analysis: decompose the gap to
  the paper's ``load/B`` bound into named components, with an optional
  ``--budget`` gate.
* ``phases``   — phase observatory: predicted vs observed per-phase
  link loads, with a ``--max-divergence`` gate.
* ``gantt``    — per-rank execution timeline.
* ``top``      — live run monitor: an in-place refreshing table of
  hot-path metrics (events/s, sim/wall ratio, flows in flight, ETA)
  while a simulation runs.
* ``repro``    — regenerate a paper experiment table (Figures 6-8).
* ``report``   — query the persistent run ledger: ``list`` / ``show`` /
  ``compare`` / ``regress`` (the CI perf gate).  Comparisons never mix
  runs from different fault partitions (clean vs chaos plans).

``simulate`` and the observation views (``trace``, ``explain``,
``phases``, ``gantt``, ``top``) are one observed run each
(:func:`repro.harness.observation.observe`) rendered differently; each
records only what it reads.  They share ``--msize``, ``--seed`` and
``--metrics-out``, and all but ``trace`` (which has ``-o``) take
``--trace-out``: the metrics report and the Perfetto trace are the
same artifacts whichever command wrote them.

``simulate``, ``explain``, ``phases``, ``repro``, ``campaign`` and
``chaos`` append a schema-versioned record to the run ledger
(``~/.cache/repro-aapc/ledger/`` unless ``--ledger-dir`` /
``$REPRO_AAPC_LEDGER_DIR`` says otherwise; disable with
``--no-ledger``).  Pass ``-v``/``-vv`` after the subcommand for
human-readable logging from ``repro.*`` loggers.

Topology input is the text format of
:mod:`repro.topology.serialization`, or one of the built-in names
``a`` / ``b`` / ``c`` / ``fig1``.
"""

from __future__ import annotations

import argparse
import logging
import sys
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro import __version__
from repro.algorithms import available_algorithms, get_algorithm
from repro.errors import ReproError
from repro.core.codegen import generate_c_routine
from repro.core.program import build_programs
from repro.core.scheduler import schedule_aapc
from repro.core.synchronization import build_sync_plan
from repro.harness.experiments import EXPERIMENTS
from repro.harness.report import (
    attribution_table,
    completion_table,
    phase_audit_table,
    render_throughput_series,
    speedup_summary,
    throughput_table,
)
from repro.sim.params import NetworkParams
from repro.topology.analysis import (
    aapc_load,
    bottleneck_edges,
    peak_aggregate_throughput,
)
from repro.topology.builder import (
    paper_example_cluster,
    topology_a,
    topology_b,
    topology_c,
)
from repro.topology.graph import Topology
from repro.topology.serialization import load_topology
from repro.units import bytes_per_sec_to_mbps, parse_size, seconds_to_ms

_BUILTIN_TOPOLOGIES = {
    "a": topology_a,
    "b": topology_b,
    "c": topology_c,
    "fig1": paper_example_cluster,
}

logger = logging.getLogger("repro.cli")


def _load_topology(spec: str) -> Topology:
    if spec in _BUILTIN_TOPOLOGIES:
        return _BUILTIN_TOPOLOGIES[spec]()
    try:
        return load_topology(spec)
    except OSError as exc:
        raise ReproError(f"cannot read topology {spec!r}: {exc}") from exc


def _load_faults(args: argparse.Namespace):
    """The ``--faults`` plan, parsed, or None when the flag is absent."""
    path = getattr(args, "faults", None)
    if not path:
        return None
    from repro.faults.plan import load_fault_plan

    return load_fault_plan(path)


def _make_params(args: argparse.Namespace) -> NetworkParams:
    """Network parameters from the common simulation flags."""
    params = NetworkParams(seed=args.seed)
    return params.without_noise() if getattr(args, "no_noise", False) else params


def _configure_logging(verbosity: int) -> None:
    """Wire a human-readable handler onto the ``repro`` logger tree.

    The package root logger carries only a NullHandler by default (a
    library must not log uninvited); ``-v`` turns on INFO, ``-vv``
    DEBUG.  Idempotent: repeated or nested ``main()`` calls update the
    one existing handler in place instead of stacking a second, and
    propagation to the process root logger is cut while our handler is
    attached, so a host that ran ``logging.basicConfig`` does not
    print every record a second time.
    """
    if verbosity <= 0:
        return
    root = logging.getLogger("repro")
    root.setLevel(logging.DEBUG if verbosity >= 2 else logging.INFO)
    ours = [h for h in root.handlers if getattr(h, "_repro_cli", False)]
    for extra in ours[1:]:
        root.removeHandler(extra)
    if not ours:
        handler = logging.StreamHandler(sys.stderr)
        handler.setFormatter(
            logging.Formatter("%(levelname)s %(name)s: %(message)s")
        )
        handler._repro_cli = True  # type: ignore[attr-defined]
        root.addHandler(handler)
    root.propagate = False


def _params_dict(params: NetworkParams) -> Dict[str, object]:
    return {
        f: getattr(params, f) for f in type(params).__dataclass_fields__
    }


def _append_ledger(
    args: argparse.Namespace,
    *,
    command: str,
    topology_spec: str,
    fingerprint: str,
    num_machines: int,
    msize: Optional[int],
    params: Optional[NetworkParams],
    entries,
    fault_plan=None,
) -> None:
    """Append one run record unless the user opted out (best-effort).

    Only commands that offer the ledger flags record; the live and
    timeline views (``trace``, ``gantt``, ``top``) never do.
    """
    if getattr(args, "no_ledger", True):
        return
    from repro.obs.ledger import RunLedger, RunRecord

    record = RunRecord.new(
        command,
        topology_spec=topology_spec,
        topology_fingerprint=fingerprint,
        num_machines=num_machines,
        msize=msize,
        params=_params_dict(params) if params is not None else {},
        algorithms=entries,
        fault_plan=(
            {"name": fault_plan.name, "fingerprint": fault_plan.fingerprint()}
            if fault_plan is not None
            else None
        ),
    )
    ledger = RunLedger(getattr(args, "ledger_dir", None))
    try:
        ledger.append(record)
    except OSError as exc:
        print(f"warning: could not append to ledger: {exc}", file=sys.stderr)


def _cmd_analyze(args: argparse.Namespace) -> int:
    topo = _load_topology(args.topology)
    params = NetworkParams()
    print(f"machines: {topo.num_machines}  switches: {topo.num_switches}")
    print(f"AAPC load (bottleneck): {aapc_load(topo)}")
    undirected = sorted({tuple(sorted(e)) for e in bottleneck_edges(topo)})
    print(f"bottleneck links: {undirected}")
    peak = peak_aggregate_throughput(topo, params.bandwidth)
    print(
        f"peak aggregate throughput @ "
        f"{bytes_per_sec_to_mbps(params.bandwidth):.0f} Mbps links: "
        f"{bytes_per_sec_to_mbps(peak):.1f} Mbps"
    )
    return 0


def _cmd_schedule(args: argparse.Namespace) -> int:
    topo = _load_topology(args.topology)
    schedule = schedule_aapc(topo, root=args.root)
    if args.json:
        from repro.core.schedule_io import save_schedule

        save_schedule(schedule, args.json)
        print(f"wrote {args.json}")
    print(f"phases: {schedule.num_phases}  messages: {len(schedule)}")
    if schedule.root_info is not None:
        info = schedule.root_info
        print(f"root: {info.root}  subtree sizes: {list(info.sizes)}")
    print(schedule.render())
    if args.syncs:
        plan = build_sync_plan(schedule)
        print(
            f"\nsync messages: {plan.stats.num_after_reduction} "
            f"(from {plan.stats.num_conflict_deps} conflict dependences; "
            f"{plan.stats.num_program_order_free} free by program order, "
            f"{plan.stats.removed_by_reduction} removed as redundant)"
        )
        for s in plan.syncs:
            print(f"  {s}")
    return 0


def _cmd_codegen(args: argparse.Namespace) -> int:
    topo = _load_topology(args.topology)
    schedule = schedule_aapc(topo, root=args.root)
    plan = build_sync_plan(schedule)
    programs = build_programs(schedule, plan)
    source = generate_c_routine(programs, topo.machines)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(source)
        print(f"wrote {args.output}")
    else:
        print(source)
    return 0


def _derived_path(path: str, name: str, multiple: bool) -> str:
    """``out.json`` → ``out-lam.json`` when several algorithms run."""
    if not multiple:
        return path
    stem, dot, ext = path.rpartition(".")
    if not dot:
        return f"{path}-{name}"
    return f"{stem}-{name}.{ext}"


def _wants_telemetry(args: argparse.Namespace) -> bool:
    """Whether an output flag asks for the flight recorder."""
    return bool(getattr(args, "trace_out", None) or args.metrics_out)


def _observe(
    args: argparse.Namespace,
    topo: Topology,
    name: str,
    *,
    needs: Sequence[str] = (),
    multiple: bool = False,
    on_snapshot=None,
):
    """One observed run of algorithm *name* under the command's flags.

    *needs* names what the caller reads beyond the completion time:
    ``"trace"`` (the per-rank trace alone) and the analyses of
    :data:`repro.harness.observation.ANALYSES`, which imply the flight
    recorder.  ``--trace-out`` / ``--metrics-out`` also turn the
    recorder on, without adding analyses.  ``--stats-out`` streams the
    run's metrics snapshots to a JSONL file and *on_snapshot* (the
    ``top`` table) sees them live.
    """
    from repro.harness.observation import ANALYSES, observe
    from repro.obs.ledger import parse_threshold
    from repro.obs.metrics_registry import SnapshotWriter
    from repro.obs.monitor import MonitorConfig

    analyses = [a for a in ANALYSES if a in needs]
    hooks = [on_snapshot] if on_snapshot is not None else []
    writer = None
    if getattr(args, "stats_out", None):
        writer = SnapshotWriter(_derived_path(args.stats_out, name, multiple))
        hooks.append(writer.write)
    monitor = None
    if hooks:
        def emit(snapshot) -> None:
            for hook in hooks:
                hook(snapshot)

        monitor = MonitorConfig(interval=args.metrics_interval, on_snapshot=emit)
    try:
        run = observe(
            topo, get_algorithm(name), parse_size(args.msize),
            _make_params(args),
            telemetry=bool(analyses) or _wants_telemetry(args),
            trace="trace" in needs,
            analyses=analyses,
            max_trace_records=getattr(args, "trace_cap", None),
            monitor=monitor,
            occupancy_tolerance=parse_threshold(
                getattr(args, "tolerance", "10%")
            ),
        )
    finally:
        if writer is not None:
            writer.close()
    if writer is not None:
        print(f"wrote metrics snapshots {writer.path}")
    logger.info(
        "%s: built programs in %.1f ms (%d pipeline spans)",
        run.algorithm.name, run.build_seconds * 1e3, len(run.pipeline.spans),
    )
    return run


def _write_artifacts(
    args: argparse.Namespace, telemetry, name: str, multiple: bool = False
) -> None:
    """The run's shared outputs: Perfetto trace and metrics report."""
    trace_out = getattr(args, "trace_out", None)
    if trace_out and telemetry is not None:
        path = _derived_path(trace_out, name, multiple)
        telemetry.write_perfetto(path)
        print(f"wrote Perfetto trace {path} (open at ui.perfetto.dev)")
    if args.metrics_out and telemetry is not None:
        path = _derived_path(args.metrics_out, name, multiple)
        telemetry.write_metrics(path)
        print(f"wrote metrics {path}")


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.obs.ledger import AlgorithmEntry, topology_fingerprint

    spec = getattr(args, "topology_opt", None) or args.topology
    if spec is None:
        print("simulate: a topology is required (positional or --topology)",
              file=sys.stderr)
        return 2
    topo = _load_topology(spec)
    msize = parse_size(args.msize)
    params = _make_params(args)
    fault_plan = _load_faults(args)
    names = [args.algorithm] if args.algorithm else args.algorithms
    want_telemetry = _wants_telemetry(args)
    multiple = len(names) > 1
    entries: Dict[str, AlgorithmEntry] = {}
    unrecoverable = 0

    if fault_plan is not None:
        from repro.faults.runtime import run_resilient
        from repro.obs.metrics_registry import MetricsRegistry

        print(
            f"fault plan {fault_plan.name!r} "
            f"(fingerprint {fault_plan.fingerprint()}): "
            f"{len(fault_plan.link_faults)} link fault(s), "
            f"{len(fault_plan.stragglers)} straggler(s), "
            f"{len(fault_plan.sync_faults)} sync fault(s), "
            f"{len(fault_plan.crashes)} crash(es)"
        )
        for name in names:
            registry = MetricsRegistry()
            with registry.activate():
                res = run_resilient(
                    topo, name, msize, params,
                    faults=fault_plan, telemetry=want_telemetry,
                    max_trace_records=args.trace_cap,
                )
            for d in res.decisions:
                print(
                    f"  [{d.stage}] {d.from_algorithm} -> {d.to_algorithm}: "
                    f"{d.reason}"
                )
            if not res.completed:
                unrecoverable += 1
                print(f"{name:28s} UNRECOVERABLE under fault plan")
                if res.diagnosis is not None:
                    print("  " + res.diagnosis.summary().replace("\n", "\n  "))
                continue
            result = res.result
            throughput = result.aggregate_throughput(topo.num_machines, msize)
            stats = result.fault_stats or {}
            line = (
                f"{name:28s} "
                f"{seconds_to_ms(result.completion_time):9.2f} ms   "
                f"{bytes_per_sec_to_mbps(throughput):8.1f} Mbps agg   "
                f"retransmits {stats.get('sync_retransmits', 0)}"
            )
            if res.fell_back:
                line += f"   [fell back to {res.algorithm_used}]"
            if result.crashed_ranks:
                line += f"   [crashed: {', '.join(result.crashed_ranks)}]"
            print(line)
            _write_artifacts(args, result.telemetry, name, multiple)
            entries[name] = AlgorithmEntry(
                completion_time_ms=result.completion_time * 1e3,
                throughput_mbps=bytes_per_sec_to_mbps(throughput),
                telemetry={
                    "fault_stats": stats,
                    "algorithm_used": res.algorithm_used,
                    "fallback_decisions": res.decisions_dict(),
                },
                stats=result.stats,
            )
    else:
        for name in names:
            # The recorded run carries the phase audit in its artifacts
            # and ledger entry.
            run = _observe(
                args, topo, name,
                needs=("audit",) if want_telemetry else (),
                multiple=multiple,
            )
            result = run.result
            throughput = result.aggregate_throughput(topo.num_machines, msize)
            line = (
                f"{run.algorithm.describe(topo, msize):28s} "
                f"{seconds_to_ms(result.completion_time):9.2f} ms   "
                f"{bytes_per_sec_to_mbps(throughput):8.1f} Mbps agg   "
                f"max link multiplexing {result.max_edge_multiplexing}"
            )
            if run.telemetry is not None:
                verdict = (
                    "contention-free"
                    if run.telemetry.contention_free_verified
                    else f"{run.telemetry.total_contention_events} "
                    "contention events"
                )
                line += f"   [{verdict}]"
            print(line)
            _write_artifacts(args, run.telemetry, name, multiple)
            entries[run.algorithm.name] = run.ledger_entry()
    _append_ledger(
        args,
        command="simulate",
        topology_spec=spec,
        fingerprint=topology_fingerprint(topo),
        num_machines=topo.num_machines,
        msize=msize,
        params=params,
        entries=entries,
        fault_plan=fault_plan,
    )
    return 1 if unrecoverable else 0


class _View(NamedTuple):
    """How one observation command renders its observed run."""

    render: Callable[..., int]
    #: What the view reads from the run (see :func:`_observe`).
    needs: Tuple[str, ...] = ()
    #: Live hook for the run's metrics snapshots.
    on_snapshot: Optional[Callable] = None


def _trace_view(args: argparse.Namespace) -> _View:
    def render(run) -> int:
        telemetry = run.telemetry
        print(f"{run.algorithm.describe(run.topology, run.msize)} on "
              f"{args.topology}, msize {args.msize}: flight recorder")
        print(telemetry.summary())
        if args.phases:
            from repro.obs.phase_audit import windows_table

            print()
            print(windows_table(telemetry.phase_windows))
        return 0

    # The attribution puts the critical-path track into the trace.
    return _View(render, needs=("attribution",))


def _explain_view(args: argparse.Namespace) -> _View:
    from repro.obs.attribution import check_budgets

    budgets = _parse_budgets(args.budget)

    def render(run) -> int:
        report = run.require("attribution")
        print(report.summary(top=args.top))
        if args.json_out:
            report.write(args.json_out)
            print(f"wrote attribution report {args.json_out}")
        violations = check_budgets(report, budgets)
        for violation in violations:
            print(f"BUDGET VIOLATION: {violation}", file=sys.stderr)
        return 1 if violations else 0

    return _View(render, needs=("attribution",))


def _phases_view(args: argparse.Namespace) -> _View:
    """Exit 1 on contention inside a certified contention-free phase
    (the Theorem broken — always fatal) or, with ``--max-divergence``,
    when the worst occupancy deviation exceeds it."""
    import json

    from repro.obs.ledger import parse_threshold

    max_divergence = (
        parse_threshold(args.max_divergence)
        if args.max_divergence is not None
        else float("inf")
    )

    def render(run) -> int:
        report = run.require("audit")
        print(f"{run.algorithm.describe(run.topology, run.msize)}  "
              f"{seconds_to_ms(run.result.completion_time):.2f} ms")
        print(report.summary())
        if args.json_out:
            with open(args.json_out, "w", encoding="utf-8") as fh:
                json.dump(report.as_dict(), fh, indent=2, sort_keys=True)
                fh.write("\n")
            print(f"wrote phase-audit report {args.json_out}")
        problems = report.gate(max_divergence)
        for problem in problems:
            print(f"PHASE AUDIT FAILURE: {problem}", file=sys.stderr)
        return 1 if problems else 0

    return _View(render, needs=("audit",))


def _gantt_view(args: argparse.Namespace) -> _View:
    from repro.obs.phase_audit import phase_windows, windows_table
    from repro.sim.gantt import render_rank_gantt

    def render(run) -> int:
        result = run.result
        ranks = list(run.topology.machines)[: args.ranks] if args.ranks else None
        print(
            f"{run.algorithm.describe(run.topology, run.msize)}  "
            f"{seconds_to_ms(result.completion_time):.2f} ms  "
            f"max link multiplexing {result.max_edge_multiplexing}"
        )
        print(render_rank_gantt(result.trace, ranks=ranks, width=args.width))
        if args.phases:
            windows = phase_windows(result.trace)
            if not windows:
                raise ReproError("trace has no phase-tagged records")
            print()
            print(windows_table(windows))
        return 0

    return _View(render, needs=("trace",))


def _top_view(args: argparse.Namespace) -> _View:
    from repro.obs.monitor import render_top_table

    title = (
        f"{args.algorithm} on {args.topology}  msize {args.msize}  "
        f"seed {args.seed}"
    )
    in_place = sys.stdout.isatty() and not args.no_tty
    drawn = [0]

    def on_snapshot(snapshot) -> None:
        lines = render_top_table(snapshot, title=title)
        if in_place and drawn[0]:
            # Return to the top of the previous table and clear down.
            sys.stdout.write(f"\x1b[{drawn[0]}F\x1b[0J")
        sys.stdout.write("\n".join(lines) + "\n")
        sys.stdout.flush()
        drawn[0] = len(lines)

    def render(run) -> int:
        print(
            f"completed in {seconds_to_ms(run.result.completion_time):.2f} ms "
            f"simulated ({run.result.events_processed} engine events)"
        )
        return 0

    return _View(render, on_snapshot=on_snapshot)


def _cmd_observe(args: argparse.Namespace) -> int:
    """``trace`` / ``explain`` / ``phases`` / ``gantt`` / ``top``: one
    observed run, rendered by the command's view."""
    from repro.obs.ledger import topology_fingerprint

    view = args.view(args)
    topo = _load_topology(args.topology)
    run = _observe(
        args, topo, args.algorithm,
        needs=view.needs, on_snapshot=view.on_snapshot,
    )
    code = view.render(run)
    _write_artifacts(args, run.telemetry, args.algorithm)
    _append_ledger(
        args,
        command=args.command,
        topology_spec=args.topology,
        fingerprint=topology_fingerprint(topo),
        num_machines=topo.num_machines,
        msize=run.msize,
        params=_make_params(args),
        entries={run.algorithm.name: run.ledger_entry()},
    )
    return code


def _parse_budgets(specs: Optional[List[str]]) -> Dict[str, float]:
    """``--budget residual=0.10`` / ``residual=10%`` → {"residual": 0.1}."""
    from repro.obs.ledger import parse_threshold

    budgets: Dict[str, float] = {}
    for spec in specs or []:
        name, sep, value = spec.partition("=")
        if not sep or not name:
            raise ReproError(
                f"--budget expects COMPONENT=FRACTION, got {spec!r}"
            )
        budgets[name] = parse_threshold(value)
    return budgets


def _cmd_stp(args: argparse.Namespace) -> int:
    from repro.topology.physical_format import load_physical
    from repro.topology.serialization import dumps_topology
    from repro.topology.spanning_tree import compute_spanning_tree

    network = load_physical(args.wiring)
    result = compute_spanning_tree(network)
    print(f"root bridge: {result.root_bridge}")
    print(f"forwarding switch links: {len(result.forwarding_links)}")
    for a, b, cost in result.forwarding_links:
        print(f"  forward {a} <-> {b} (cost {cost})")
    for a, b, cost in result.blocked_links:
        print(f"  BLOCKED {a} <-> {b} (cost {cost})")
    for switch in sorted(result.root_path_cost):
        print(f"  root path cost {switch}: {result.root_path_cost[switch]}")
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(dumps_topology(result.topology))
        print(f"wrote forwarding topology to {args.output}")
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    from repro.core.program_analysis import analyze_programs

    topo = _load_topology(args.topology)
    msize = parse_size(args.msize)
    algorithm = get_algorithm(args.algorithm)
    programs = algorithm.build_programs(topo, msize)
    report = analyze_programs(topo, programs, msize)
    print(f"{algorithm.describe(topo, msize)} on {args.topology}, "
          f"msize {args.msize}: static contention analysis")
    print(report.render())
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    import hashlib

    from repro.harness.campaign import run_campaign
    from repro.obs.ledger import AlgorithmEntry

    msize = parse_size(args.msize)
    summary = run_campaign(
        num_topologies=args.topologies,
        msize=msize,
        repetitions=args.repetitions,
        base_seed=args.seed,
    )
    print(summary.render())
    entries: Dict[str, AlgorithmEntry] = {}
    for name in summary.algorithms:
        times = [row.times[name] for row in summary.rows]
        entries[name] = AlgorithmEntry(
            completion_time_ms=sum(times) / len(times) * 1e3,
        )
    config = (
        f"campaign:topologies={args.topologies}:msize={msize}"
        f":repetitions={args.repetitions}:seed={args.seed}"
    )
    _append_ledger(
        args,
        command="campaign",
        topology_spec=f"random x{args.topologies}",
        fingerprint=hashlib.sha256(config.encode()).hexdigest()[:16],
        num_machines=0,
        msize=msize,
        params=None,
        entries=entries,
    )
    return 0


def _cmd_repro(args: argparse.Namespace) -> int:
    try:
        experiment = EXPERIMENTS[args.experiment]
    except KeyError:
        print(
            f"unknown experiment {args.experiment!r}; "
            f"available: {sorted(EXPERIMENTS)}",
            file=sys.stderr,
        )
        return 2
    print(f"# {experiment.name}: {experiment.description}")
    fault_plan = _load_faults(args)
    if fault_plan is not None:
        print(
            f"# fault plan {fault_plan.name!r} "
            f"(fingerprint {fault_plan.fingerprint()})"
        )
    sizes = [parse_size(s) for s in args.sizes] if args.sizes else None
    result = experiment.run(
        sizes=sizes,
        repetitions=args.repetitions,
        telemetry=bool(args.metrics_out),
        faults=fault_plan,
        max_trace_records=args.trace_cap,
    )
    if args.metrics_out:
        import json

        cells = [
            {
                "algorithm": p.algorithm,
                "variant": p.variant,
                "msize": p.msize,
                "mean_time_ms": p.mean_time * 1e3,
                "min_time_ms": p.min_time * 1e3,
                "max_time_ms": p.max_time * 1e3,
                "throughput_mbps": p.throughput_mbps,
                "peak_concurrent_flows": p.peak_concurrent_flows,
                "max_edge_multiplexing": p.max_edge_multiplexing,
                "link_stats": p.link_stats.as_dict() if p.link_stats else None,
                "attribution": p.attribution,
                "phase_audit": p.phase_audit,
            }
            for p in result.points
        ]
        with open(args.metrics_out, "w", encoding="utf-8") as fh:
            json.dump(
                {"experiment": experiment.name, "cells": cells}, fh, indent=2
            )
            fh.write("\n")
        print(f"wrote metrics {args.metrics_out}")
    print(completion_table(result, reference=experiment.reference))
    print()
    print(throughput_table(result))
    if any(p.attribution for p in result.points):
        print()
        print(attribution_table(result))
    if any(p.phase_audit for p in result.points):
        print()
        print(phase_audit_table(result))
    if args.plot:
        print()
        print(render_throughput_series(result))
    if "generated" in result.algorithms():
        print("\nspeedups (paper convention, + means generated is faster):")
        print(speedup_summary(result))

    from repro.obs.ledger import AlgorithmEntry, topology_fingerprint

    entries: Dict[str, AlgorithmEntry] = {}
    for p in result.points:
        entries[f"{p.algorithm}@{p.msize}"] = AlgorithmEntry(
            completion_time_ms=p.mean_time * 1e3,
            throughput_mbps=p.throughput_mbps,
            scheduler_runtime_ms=(
                p.build_time * 1e3 if p.build_time is not None else None
            ),
            telemetry=p.link_stats.as_dict() if p.link_stats else None,
            attribution=p.attribution,
            phase_audit=p.phase_audit,
        )
    _append_ledger(
        args,
        command="repro",
        topology_spec=experiment.name,
        fingerprint=topology_fingerprint(result.topology),
        num_machines=result.topology.num_machines,
        msize=None,
        params=result.params,
        entries=entries,
        fault_plan=fault_plan,
    )
    return 0


def _builtin_chaos_plans(topo: Topology, seed: int) -> List[object]:
    """The default chaos sweep, derived from the topology's own links."""
    from repro.faults.plan import (
        FaultPlan,
        HostStraggler,
        LinkFault,
        SyncFault,
    )

    trunks = [
        (u, v) for u, v in topo.links
        if topo.is_switch(u) and topo.is_switch(v)
    ]
    target = trunks[0] if trunks else topo.links[0]
    victim = topo.machines[0]
    return [
        FaultPlan(
            name="sync-loss", seed=seed,
            sync_faults=[SyncFault(loss=0.2)],
        ),
        FaultPlan(
            name="sync-delay-dup", seed=seed,
            sync_faults=[
                SyncFault(delay_prob=0.3, delay_mean=1e-3, duplicate=0.1)
            ],
        ),
        FaultPlan(
            name="degraded-trunk", seed=seed,
            link_faults=[LinkFault(link=target, factor=0.25)],
        ),
        FaultPlan(
            name="link-flap", seed=seed,
            link_faults=[
                LinkFault(link=target, failed=True, start=0.001, end=0.02)
            ],
        ),
        FaultPlan(
            name="straggler", seed=seed,
            stragglers=[HostStraggler(rank=victim, factor=6.0)],
        ),
        FaultPlan(
            name="link-failure", seed=seed,
            link_faults=[LinkFault(link=target, failed=True)],
        ),
    ]


def _cmd_chaos(args: argparse.Namespace) -> int:
    import json

    from repro.faults.plan import load_fault_plan
    from repro.faults.runtime import run_resilient
    from repro.harness import Workload, run_experiment
    from repro.obs.ledger import AlgorithmEntry, topology_fingerprint

    topo = _load_topology(args.topology)
    msize = parse_size(args.msize)
    params = _make_params(args)

    if args.plans:
        plans = [load_fault_plan(path) for path in args.plans]
    else:
        plans = _builtin_chaos_plans(topo, args.seed)
    for plan in plans:
        plan.validate_against(topo)

    # Fault-free baselines, one per algorithm.
    baseline = run_experiment(
        "chaos-baseline",
        topo,
        [get_algorithm(name) for name in args.algorithms],
        [Workload(msize, 1, params.seed)],
        params,
    )
    baselines = {
        name: p.mean_time for name, p in zip(args.algorithms, baseline.points)
    }

    print(
        f"chaos sweep on {args.topology} ({topo.num_machines} machines), "
        f"msize {args.msize}, seed {args.seed}: "
        f"{len(plans)} plan(s) x {len(args.algorithms)} algorithm(s)"
    )
    header = (
        f"{'plan':<16} {'algorithm':<12} {'baseline':>9} {'wasted':>8} "
        f"{'runtime':>9} {'slowdown':>8} {'rexmit':>6} {'recov':>5}  outcome"
    )
    print(header)
    print("-" * len(header))

    artifact: Dict[str, object] = {
        "topology": args.topology,
        "num_machines": topo.num_machines,
        "msize": msize,
        "seed": args.seed,
        "results": [],
    }
    entries: Dict[str, AlgorithmEntry] = {}
    unrecoverable = 0
    for plan in plans:
        for name in args.algorithms:
            res = run_resilient(topo, name, msize, params, faults=plan)
            base = baselines[name]
            row: Dict[str, object] = {
                "plan": plan.name,
                "fingerprint": plan.fingerprint(),
                "algorithm": name,
                "completed": res.completed,
                "algorithm_used": res.algorithm_used,
                "baseline_ms": base * 1e3,
                "wasted_ms": res.wasted_time * 1e3,
                "decisions": res.decisions_dict(),
                "repairs": res.repairs_dict(),
            }
            if res.diagnosis is not None:
                row["diagnosis"] = res.diagnosis.as_dict()
            if res.completed:
                result = res.result
                stats = result.fault_stats or {}
                # Retransmissions that actually recovered a lost sync:
                # abandoned syncs burn the whole retry budget first.
                recovered = stats.get("sync_retransmits", 0) - stats.get(
                    "syncs_abandoned", 0
                ) * params.sync_max_retries
                # True cost of the run = stall time wasted on abandoned
                # attempts + the completing run itself.
                slowdown = res.total_time / base if base > 0 else 0.0
                if res.repaired:
                    tier = next(r.tier for r in res.repairs if r.succeeded)
                    outcome = (
                        "repaired" if tier == "repair" else "repaired-relaxed"
                    )
                elif res.fell_back:
                    outcome = f"fell-back({res.algorithm_used})"
                else:
                    outcome = "ok"
                if result.crashed_ranks:
                    outcome += f" crashed={len(result.crashed_ranks)}"
                print(
                    f"{plan.name:<16} {name:<12} "
                    f"{base * 1e3:8.2f}m {res.wasted_time * 1e3:7.2f}m "
                    f"{result.completion_time * 1e3:8.2f}m "
                    f"{slowdown:7.2f}x {stats.get('sync_retransmits', 0):>6} "
                    f"{max(0, recovered):>5}  {outcome}"
                )
                row.update(
                    faulted_ms=result.completion_time * 1e3,
                    runtime_ms=result.completion_time * 1e3,
                    total_ms=res.total_time * 1e3,
                    slowdown=slowdown,
                    outcome=outcome,
                    fault_stats=stats,
                    crashed_ranks=list(result.crashed_ranks),
                )
                entries[f"{name}@{plan.name}"] = AlgorithmEntry(
                    completion_time_ms=res.total_time * 1e3,
                    telemetry={
                        "fault_stats": stats,
                        "slowdown": slowdown,
                        "wasted_ms": res.wasted_time * 1e3,
                        "runtime_ms": result.completion_time * 1e3,
                        "outcome": outcome,
                        "repairs": res.repairs_dict(),
                        "decisions": res.decisions_dict(),
                    },
                )
            else:
                unrecoverable += 1
                row["outcome"] = "unrecoverable"
                print(
                    f"{plan.name:<16} {name:<12} {base * 1e3:8.2f}m "
                    f"{'--':>8} {'--':>9} {'--':>8} {'--':>6} {'--':>5}  "
                    "UNRECOVERABLE"
                )
            artifact["results"].append(row)

    if args.diagnosis_out:
        with open(args.diagnosis_out, "w", encoding="utf-8") as fh:
            json.dump(artifact, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote diagnosis artifact {args.diagnosis_out}")

    _append_ledger(
        args,
        command="chaos",
        topology_spec=args.topology,
        fingerprint=topology_fingerprint(topo),
        num_machines=topo.num_machines,
        msize=msize,
        params=params,
        entries=entries,
    )
    return 1 if unrecoverable else 0


def _cmd_report_list(args: argparse.Namespace) -> int:
    from repro.errors import ReproError
    from repro.obs.ledger import RunLedger

    ledger = RunLedger(args.ledger_dir)
    try:
        records = ledger.records()
    except ReproError as exc:
        print(f"report: {exc}", file=sys.stderr)
        return 2
    if not records:
        print(f"ledger {ledger.path} is empty")
        return 0
    print(f"{len(records)} run(s) in {ledger.path}")
    print(f"{'run id':<24} {'when (UTC)':<20} {'command':<9} "
          f"{'topology':<14} {'algorithms'}")
    for r in records:
        algs = ", ".join(
            f"{name}={entry.completion_time_ms:.1f}ms"
            for name, entry in sorted(r.algorithms.items())
        )
        print(f"{r.run_id:<24} {r.timestamp:<20} {r.command:<9} "
              f"{r.topology_spec:<14} {algs}")
    return 0


def _cmd_report_show(args: argparse.Namespace) -> int:
    import json

    from repro.errors import ReproError
    from repro.obs.ledger import RunLedger

    try:
        record = RunLedger(args.ledger_dir).find(args.run)
    except ReproError as exc:
        print(f"report: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(record.as_dict(), indent=2, sort_keys=True))
    return 0


def _cmd_report_compare(args: argparse.Namespace) -> int:
    from repro.errors import ReproError
    from repro.obs.ledger import (
        RunLedger,
        compare_records,
        ensure_same_fault_partition,
    )

    ledger = RunLedger(args.ledger_dir)
    try:
        a = ledger.find(args.a)
        # ``latest`` resolves within the baseline's fault partition, so
        # a chaos run landing last never sneaks into a clean comparison.
        b = ledger.find(args.b, fault_fingerprint=a.fault_fingerprint)
        ensure_same_fault_partition(a, b)
    except ReproError as exc:
        print(f"report: {exc}", file=sys.stderr)
        return 2
    if (
        a.topology_fingerprint
        and b.topology_fingerprint
        and a.topology_fingerprint != b.topology_fingerprint
    ):
        print(
            "warning: runs used different topologies "
            f"({a.topology_fingerprint} vs {b.topology_fingerprint}); "
            "deltas are not like-for-like",
            file=sys.stderr,
        )
    deltas = compare_records(a, b)
    if not deltas:
        print("no comparable metrics between the two runs", file=sys.stderr)
        return 2
    if args.json:
        import json

        print(json.dumps(
            {
                "baseline": a.run_id,
                "current": b.run_id,
                "deltas": [d.as_dict() for d in deltas],
            },
            indent=2,
            sort_keys=True,
        ))
        return 0
    print(f"{a.run_id} -> {b.run_id}")
    for d in deltas:
        print(f"  {d}")
    return 0


def _cmd_report_regress(args: argparse.Namespace) -> int:
    """The perf gate: non-zero exit on completion-time or
    scheduler-runtime regressions beyond the threshold."""
    from repro.errors import ReproError
    from repro.obs.ledger import (
        RunLedger,
        compare_records,
        ensure_same_fault_partition,
        find_regressions,
        load_baseline,
        parse_threshold,
    )

    ledger = RunLedger(args.ledger_dir)
    try:
        threshold = parse_threshold(args.threshold)
        baseline = load_baseline(args.baseline, ledger)
        current = ledger.find(
            args.run, fault_fingerprint=baseline.fault_fingerprint
        )
        ensure_same_fault_partition(baseline, current)
    except ReproError as exc:
        print(f"report regress: {exc}", file=sys.stderr)
        return 2
    if (
        baseline.topology_fingerprint
        and current.topology_fingerprint
        and baseline.topology_fingerprint != current.topology_fingerprint
    ):
        print(
            "warning: baseline and current runs used different topologies; "
            "the gate may be meaningless",
            file=sys.stderr,
        )
    deltas = compare_records(baseline, current)
    if not deltas:
        print(
            "report regress: no comparable metrics between baseline "
            f"{baseline.run_id} and run {current.run_id}",
            file=sys.stderr,
        )
        return 2
    regressions = find_regressions(baseline, current, threshold)
    if args.json:
        import json

        print(json.dumps(
            {
                "baseline": baseline.run_id,
                "current": current.run_id,
                "threshold": threshold,
                "ok": not regressions,
                "regressions": len(regressions),
                "deltas": [
                    {**d.as_dict(), "regression": d in regressions}
                    for d in deltas
                ],
            },
            indent=2,
            sort_keys=True,
        ))
        return 1 if regressions else 0
    print(
        f"baseline {baseline.run_id}  vs  {current.run_id}  "
        f"(threshold {threshold * 100:.1f}%)"
    )
    for d in deltas:
        flag = "  REGRESSION" if d in regressions else ""
        print(f"  {d}{flag}")
    if regressions:
        print(
            f"FAIL: {len(regressions)} metric(s) regressed beyond "
            f"{threshold * 100:.1f}%"
        )
        return 1
    print("OK: all metrics within threshold")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-aapc",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--version", action="version",
        version=f"%(prog)s {__version__}",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Shared flags.  argparse subparser defaults override main-parser
    # values, so ``-v`` lives on a parent attached to every subcommand
    # rather than on the top-level parser.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="enable repro.* logging (-v info, -vv debug)",
    )
    ledger_opts = argparse.ArgumentParser(add_help=False)
    ledger_opts.add_argument(
        "--ledger-dir", default=None, metavar="DIR",
        help="run-ledger directory (default: "
             f"$REPRO_AAPC_LEDGER_DIR or ~/.cache/repro-aapc/ledger)",
    )
    ledger_opts.add_argument(
        "--no-ledger", action="store_true",
        help="do not append this run to the run ledger",
    )
    sim_opts = argparse.ArgumentParser(add_help=False)
    sim_opts.add_argument("--seed", type=int, default=0)
    # Flags of every observed run (simulate and the observation views);
    # the smaller parents below go only to the commands that read them.
    run_opts = argparse.ArgumentParser(add_help=False, parents=[sim_opts])
    run_opts.add_argument("--msize", default="64KB",
                          help="per-pair message size")
    run_opts.add_argument("--metrics-out", default=None, metavar="FILE",
                          help="write the metrics JSON report (links, phase "
                               "windows, the command's analyses, stats)")
    trace_out_opts = argparse.ArgumentParser(add_help=False)
    trace_out_opts.add_argument("--trace-out", default=None, metavar="FILE",
                                help="write a Chrome/Perfetto trace JSON")
    trace_cap_opts = argparse.ArgumentParser(add_help=False)
    trace_cap_opts.add_argument("--trace-cap", type=int, default=None,
                                metavar="N",
                                help="ring-buffer cap on flight-recorder "
                                     "trace records (bounds memory; disables "
                                     "causal analysis)")
    noise_opts = argparse.ArgumentParser(add_help=False)
    noise_opts.add_argument("--no-noise", action="store_true",
                            help="disable stochastic latency noise (exact "
                                 "windows and attribution)")
    stats_opts = argparse.ArgumentParser(add_help=False)
    stats_opts.add_argument("--stats-out", default=None, metavar="FILE",
                            help="write hot-path metrics snapshots as JSONL "
                                 "(periodic monitor snapshots plus a final "
                                 "one)")
    stats_opts.add_argument("--metrics-interval", type=float, default=0.5,
                            metavar="SECS",
                            help="wall-clock seconds between live monitor "
                                 "snapshots (default 0.5)")

    p = sub.add_parser("analyze", parents=[common],
                       help="topology load/bottleneck analysis")
    p.add_argument("topology", help="file path or builtin: a, b, c, fig1")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("schedule", parents=[common],
                       help="print the contention-free schedule")
    p.add_argument("topology")
    p.add_argument("--root", default=None, help="force the scheduling root")
    p.add_argument("--syncs", action="store_true", help="also print sync plan")
    p.add_argument("--json", default=None, metavar="FILE",
                   help="also export the schedule as JSON")
    p.set_defaults(func=_cmd_schedule)

    p = sub.add_parser("codegen", parents=[common],
                       help="emit the customized MPI_Alltoall in C")
    p.add_argument("topology")
    p.add_argument("--root", default=None)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_codegen)

    p = sub.add_parser("simulate",
                       parents=[common, ledger_opts, run_opts, trace_out_opts,
                                trace_cap_opts, stats_opts],
                       help="simulate algorithms on a topology")
    p.add_argument("topology", nargs="?", default=None,
                   help="file path or builtin: a, b, c, fig1")
    p.add_argument("--topology", dest="topology_opt", default=None,
                   help="alternative to the positional topology")
    p.add_argument(
        "--algorithms",
        nargs="+",
        default=["lam", "mpich", "generated"],
        choices=available_algorithms(),
    )
    p.add_argument("--algorithm", default=None, choices=available_algorithms(),
                   help="run a single algorithm (overrides --algorithms)")
    p.add_argument("--faults", default=None, metavar="FILE",
                   help="fault-injection plan JSON (run under chaos, with "
                        "retry/watchdog/fallback resilience)")
    p.set_defaults(func=_cmd_simulate)

    # The observation commands: one observed run each, rendered by the
    # command's view (see ``_cmd_observe``).
    def observe_parser(name, view, help, parents=()):
        p = sub.add_parser(name, parents=[common, run_opts, *parents],
                           help=help)
        p.add_argument("topology", help="file path or builtin: a, b, c, fig1")
        p.add_argument("--algorithm", default="generated",
                       choices=available_algorithms())
        p.set_defaults(func=_cmd_observe, view=view)
        return p

    p = observe_parser("trace", _trace_view,
                       "flight-recorder run: Perfetto trace + metrics",
                       parents=[trace_cap_opts])
    p.add_argument("-o", "--out", dest="trace_out", default="trace.json",
                   help="Perfetto trace output path (default trace.json)")
    p.add_argument("--phases", action="store_true",
                   help="also print the per-phase window table")

    p = observe_parser(
        "top", _top_view,
        "live run monitor: refreshing metrics table while simulating",
        parents=[trace_out_opts, stats_opts],
    )
    p.add_argument("--no-tty", action="store_true",
                   help="never redraw in place; append tables as plain text")

    p = observe_parser(
        "explain", _explain_view,
        "critical-path analysis: attribute the gap to the load/B optimum "
        "to named components",
        parents=[ledger_opts, trace_out_opts, noise_opts],
    )
    p.add_argument("--top", type=int, default=8,
                   help="critical-path segments to print (default 8)")
    p.add_argument("--json-out", default=None, metavar="FILE",
                   help="write the schema-versioned attribution report JSON")
    p.add_argument("--budget", action="append", default=None,
                   metavar="COMPONENT=FRACTION",
                   help="exit non-zero when a component exceeds this "
                        "fraction of the optimum, e.g. residual=0.10 or "
                        "sync_wait=15%% (repeatable)")

    p = observe_parser(
        "phases", _phases_view,
        "phase observatory: audit predicted vs observed per-phase link "
        "loads, contention and durations",
        parents=[ledger_opts, trace_out_opts, trace_cap_opts, noise_opts],
    )
    p.add_argument("--tolerance", default="10%",
                   help="occupancy ratio tolerance before a link counts as "
                        "divergent, e.g. 10%% or 0.10 (default 10%%)")
    p.add_argument("--max-divergence", default=None, metavar="FRACTION",
                   help="exit non-zero when the worst occupancy deviation "
                        "exceeds this fraction (e.g. 0.10 or 10%%); "
                        "contention inside a certified contention-free "
                        "phase always fails")
    p.add_argument("--json-out", default=None, metavar="FILE",
                   help="write the schema-versioned phase-audit report JSON")

    p = observe_parser("gantt", _gantt_view, "per-rank execution timeline",
                       parents=[trace_out_opts])
    p.add_argument("--ranks", type=int, default=None,
                   help="show only the first N ranks")
    p.add_argument("--width", type=int, default=72)
    p.add_argument("--phases", action="store_true",
                   help="also print the per-phase window table")

    p = sub.add_parser(
        "stp", parents=[common],
        help="reduce a redundant physical wiring to its forwarding tree",
    )
    p.add_argument("wiring", help="physical wiring file (switch/machine/trunk)")
    p.add_argument("-o", "--output", default=None,
                   help="write the forwarding topology here")
    p.set_defaults(func=_cmd_stp)

    p = sub.add_parser(
        "inspect", parents=[common],
        help="static contention analysis of an algorithm",
    )
    p.add_argument("topology")
    p.add_argument("--algorithm", default="lam", choices=available_algorithms())
    p.add_argument("--msize", default="64KB")
    p.set_defaults(func=_cmd_inspect)

    p = sub.add_parser(
        "campaign", parents=[common, ledger_opts, sim_opts],
        help="compare algorithms over random topologies",
    )
    p.add_argument("--topologies", type=int, default=8)
    p.add_argument("--msize", default="128KB")
    p.add_argument("--repetitions", type=int, default=2)
    p.set_defaults(func=_cmd_campaign)

    p = sub.add_parser("repro", parents=[common, ledger_opts],
                       help="regenerate a paper experiment")
    p.add_argument("experiment", help=f"one of {sorted(EXPERIMENTS)}")
    p.add_argument("--sizes", nargs="*", default=None, help="e.g. 8KB 64KB")
    p.add_argument("--repetitions", type=int, default=3)
    p.add_argument("--plot", action="store_true", help="text throughput plot")
    p.add_argument("--metrics-out", default=None, metavar="FILE",
                   help="write per-cell metrics incl. link stats as JSON")
    p.add_argument("--faults", default=None, metavar="FILE",
                   help="fault-injection plan JSON applied to every cell")
    p.add_argument("--trace-cap", type=int, default=None, metavar="N",
                   help="ring-buffer cap on flight-recorder trace records "
                        "for instrumented cells (bounds memory; disables "
                        "per-cell attribution)")
    p.set_defaults(func=_cmd_repro)

    p = sub.add_parser(
        "chaos", parents=[common, ledger_opts, sim_opts],
        help="fault-injection sweep: degradation and recovery per algorithm",
    )
    p.add_argument("topology", nargs="?", default="fig1",
                   help="file path or builtin: a, b, c, fig1")
    p.add_argument("--msize", default="32KB", help="per-pair message size")
    p.add_argument(
        "--algorithms",
        nargs="+",
        default=["generated", "mpich"],
        choices=available_algorithms(),
    )
    p.add_argument("--plans", nargs="+", default=None, metavar="FILE",
                   help="fault-plan JSON files (default: built-in sweep "
                        "derived from the topology)")
    p.add_argument("--diagnosis-out", default=None, metavar="FILE",
                   help="write watchdog diagnoses, fault stats and fallback "
                        "decisions as a JSON artifact")
    p.set_defaults(func=_cmd_chaos)

    report = sub.add_parser(
        "report", help="inspect and compare runs from the run ledger"
    )
    rsub = report.add_subparsers(dest="report_command", required=True)
    rdir = argparse.ArgumentParser(add_help=False)
    rdir.add_argument(
        "--ledger-dir", default=None, metavar="DIR",
        help="run-ledger directory (default: "
             "$REPRO_AAPC_LEDGER_DIR or ~/.cache/repro-aapc/ledger)",
    )

    p = rsub.add_parser("list", parents=[common, rdir],
                        help="list recorded runs")
    p.set_defaults(func=_cmd_report_list)

    p = rsub.add_parser("show", parents=[common, rdir],
                        help="dump one run record as JSON")
    p.add_argument("run", nargs="?", default="latest",
                   help="run id, unique prefix, or 'latest'")
    p.set_defaults(func=_cmd_report_show)

    p = rsub.add_parser("compare", parents=[common, rdir],
                        help="metric deltas between two runs")
    p.add_argument("a", help="baseline run id / prefix / 'latest'")
    p.add_argument("b", help="current run id / prefix / 'latest'")
    p.add_argument("--json", action="store_true",
                   help="emit the deltas as JSON instead of a text table")
    p.set_defaults(func=_cmd_report_compare)

    p = rsub.add_parser(
        "regress", parents=[common, rdir],
        help="perf gate: fail when metrics regress past a threshold",
    )
    p.add_argument("--baseline", required=True,
                   help="baseline: ledger run ref or a JSON record file")
    p.add_argument("--run", default="latest",
                   help="run to check (default: latest)")
    p.add_argument("--threshold", default="5%",
                   help="allowed slowdown, e.g. 5%% or 0.05 (default 5%%)")
    p.add_argument("--json", action="store_true",
                   help="emit the verdict and deltas as JSON (exit code "
                        "still reflects the gate)")
    p.set_defaults(func=_cmd_report_regress)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    _configure_logging(getattr(args, "verbose", 0))
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"repro-aapc: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
