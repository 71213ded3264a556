"""Tests for trace timelines and phase-overlap metrics."""

import dataclasses
from argparse import Namespace
from types import SimpleNamespace

import pytest

from repro.algorithms import GeneratedAlltoall, get_algorithm
from repro.cli import _gantt_view
from repro.errors import ReproError
from repro.sim.executor import run_programs
from repro.obs.phase_audit import overlap_fraction, phase_windows, windows_table
from repro.sim.gantt import render_rank_gantt
from repro.sim.params import NetworkParams
from repro.sim.trace import Trace
from repro.topology.builder import single_switch
from repro.units import kib


@pytest.fixture(scope="module")
def traced_run():
    topo = single_switch(4)
    programs = GeneratedAlltoall().build_programs(topo, kib(64))
    result = run_programs(
        topo, programs, kib(64), NetworkParams().without_noise(), trace=True
    )
    return topo, result


class TestGantt:
    def test_one_row_per_rank(self, traced_run):
        topo, result = traced_run
        text = render_rank_gantt(result.trace)
        for machine in topo.machines:
            assert machine in text

    def test_subset_of_ranks(self, traced_run):
        _, result = traced_run
        text = render_rank_gantt(result.trace, ranks=["n0"])
        assert "n0" in text and "n1" not in text.split("\n", 1)[1]

    def test_legend_and_scale(self, traced_run):
        _, result = traced_run
        text = render_rank_gantt(result.trace, width=40)
        assert "ms" in text
        assert "s=send" in text
        # rows are exactly the requested width between the pipes
        row = text.splitlines()[1]
        assert len(row.split("|")[1]) == 40

    def test_glyphs_present(self, traced_run):
        _, result = traced_run
        body = render_rank_gantt(result.trace)
        assert "s" in body and "r" in body

    def test_empty_trace_rejected(self):
        with pytest.raises(ReproError, match="empty"):
            render_rank_gantt(Trace())

    def test_glyph_priority_in_shared_bin(self):
        """When several events land in one cell, the most interesting
        glyph wins: Y (sync) > s (send) > r (recv) > w (complete) > ."""
        trace = Trace()
        trace.add(0.0, "n0", "waitall_done")
        trace.add(0.0, "n0", "post_recv", "n1")
        trace.add(0.0, "n0", "post_send", "n1")
        trace.add(0.0, "n0", "sync_wait", "n1")
        trace.add(1.0, "n0", "post_send", "n1")  # pins the time span
        text = render_rank_gantt(trace, width=4)
        row = text.splitlines()[1]
        cells = row.split("|")[1]
        assert cells[0] == "Y"

    def test_unknown_event_kind_renders_dot(self):
        trace = Trace()
        trace.add(0.0, "n0", "exotic_event")
        trace.add(1.0, "n0", "another_exotic")
        text = render_rank_gantt(trace, width=4)
        cells = text.splitlines()[1].split("|")[1]
        assert cells[0] == "." and cells[-1] == "."

    def test_binning_edges(self):
        """t=t0 lands in the first bin; t=t1 clamps into the last bin."""
        trace = Trace()
        trace.add(0.0, "n0", "post_send", "n1")
        trace.add(2.0, "n0", "post_recv", "n1")
        text = render_rank_gantt(trace, width=8)
        cells = text.splitlines()[1].split("|")[1]
        assert cells == "s      r"

    def test_window_zoom(self):
        trace = Trace()
        trace.add(0.0, "n0", "post_send", "n1")
        trace.add(1.0, "n0", "post_recv", "n1")
        trace.add(2.0, "n0", "waitall_done")
        text = render_rank_gantt(trace, width=4, t0=0.5, t1=1.5)
        cells = text.splitlines()[1].split("|")[1]
        # Only the recv post at t=1.0 is inside the window (mid-bin).
        assert cells.strip() == "r"
        assert "500" in text.splitlines()[0]  # window start in ms

    def test_empty_window_rejected(self):
        trace = Trace()
        trace.add(0.0, "n0", "post_send", "n1")
        with pytest.raises(ReproError, match="window"):
            render_rank_gantt(trace, t0=5.0, t1=6.0)


class TestPhaseMetrics:
    def test_latency_table(self, traced_run):
        _, result = traced_run
        text = windows_table(phase_windows(result.trace))
        assert "phase" in text
        assert len(text.splitlines()) == 1 + 3  # header + 3 phases

    def test_latency_table_on_known_two_phase_trace(self):
        trace = Trace()
        trace.add(0.000, "n0", "post_send", "n1", 1, 0)
        trace.add(0.010, "n1", "post_recv", "n0", 1, 0)
        trace.add(0.040, "n0", "waitall_done", phase=0)
        trace.add(0.050, "n0", "post_send", "n2", 2, 1)
        trace.add(0.120, "n0", "waitall_done", phase=1)
        windows = phase_windows(trace)
        assert [(w.phase, w.start, w.end) for w in windows] == [
            (0, 0.000, 0.040),
            (1, 0.050, 0.120),
        ]
        lines = windows_table(windows).splitlines()
        assert len(lines) == 3  # header + 2 phases
        assert lines[1].split()[:3] == ["0", "0.00", "40.00"]
        assert lines[2].split()[:3] == ["1", "50.00", "120.00"]

    def test_no_phases_rejected(self, traced_run):
        """``gantt --phases`` refuses a trace without phase-tagged records."""
        topo, result = traced_run
        trace = Trace()
        trace.add(0.0, "n0", "post_send")  # phase -1
        assert phase_windows(trace) == []
        run = SimpleNamespace(
            topology=topo,
            algorithm=GeneratedAlltoall(),
            msize=kib(64),
            result=dataclasses.replace(result, trace=trace),
        )
        view = _gantt_view(Namespace(phases=True, ranks=None, width=40))
        with pytest.raises(ReproError, match="phase-tagged"):
            view.render(run)

    def test_overlap_fraction_range_and_contention_contrast(self):
        """Overlap is a pipelining metric in [0, 1]; contention is what
        distinguishes the sync disciplines (multiplexing 1 vs >= 2)."""
        from repro.topology.builder import star_of_switches

        topo = star_of_switches([3, 3, 2])
        params = NetworkParams(seed=3)  # noisy so drift can appear
        mux = {}
        for name in ("generated", "generated-nosync"):
            programs = get_algorithm(name).build_programs(topo, kib(64))
            result = run_programs(topo, programs, kib(64), params, trace=True)
            overlap = overlap_fraction(phase_windows(result.trace))
            assert 0.0 <= overlap <= 1.0
            mux[name] = result.max_edge_multiplexing
        assert mux["generated"] == 1
        assert mux["generated-nosync"] >= 2

    def test_empty_trace_overlap_is_zero(self):
        assert overlap_fraction(phase_windows(Trace())) == 0.0
