"""Tests for the pipeline spans of the metrics registry."""

from __future__ import annotations

import pytest

from repro.core.scheduler import schedule_aapc
from repro.obs.metrics_registry import (
    MetricsRegistry,
    PipelineProfile,
    SpanRecord,
    active_registry,
    add_counters,
    pipeline_span,
)


class TestProfilerBasics:
    def test_spans_record_nesting_depth(self):
        registry = MetricsRegistry()
        with registry.span("outer"):
            with registry.span("inner"):
                with registry.span("innermost"):
                    pass
            with registry.span("sibling"):
                pass
        profile = registry.report()
        depths = {s.name: s.depth for s in profile.spans}
        assert depths == {
            "outer": 0, "inner": 1, "innermost": 2, "sibling": 1,
        }

    def test_span_durations_are_positive_and_nested_in_time(self):
        registry = MetricsRegistry()
        with registry.span("outer"):
            with registry.span("inner"):
                sum(range(1000))
        profile = registry.report()
        outer = profile.span("outer")
        inner = profile.span("inner")
        assert outer.duration > 0
        assert inner.duration > 0
        assert outer.start <= inner.start
        assert inner.start + inner.duration <= (
            outer.start + outer.duration + 1e-9
        )

    def test_counters_at_open_and_via_add_counters(self):
        registry = MetricsRegistry()
        with registry.span("stage", items=3):
            registry.add_counters(edges=7)
            registry.add_counters(edges=9, extra=1)
        span = registry.report().span("stage")
        assert span.counters == {"items": 3, "edges": 9, "extra": 1}

    def test_add_counters_without_open_span_is_noop(self):
        registry = MetricsRegistry()
        registry.add_counters(orphan=1)
        assert registry.report().spans == []

    def test_total_sums_repeated_spans(self):
        profile = PipelineProfile(
            spans=[
                SpanRecord("a", 0.0, 0.5, 0),
                SpanRecord("a", 1.0, 0.25, 0),
                SpanRecord("b", 2.0, 1.0, 0),
            ]
        )
        assert profile.total("a") == pytest.approx(0.75)
        assert profile.wall_time == pytest.approx(3.0)
        assert profile.span("missing") is None


class TestModuleHooks:
    def test_hooks_are_noops_without_active_profiler(self):
        assert active_registry() is None
        with pipeline_span("anything", n=1) as record:
            assert record is None
        add_counters(x=1)  # must not raise

    def test_activation_routes_hooks_and_restores(self):
        registry = MetricsRegistry()
        with registry.activate():
            assert active_registry() is registry
            with pipeline_span("hooked"):
                add_counters(n=4)
        assert active_registry() is None
        span = registry.report().span("hooked")
        assert span is not None
        assert span.counters == {"n": 4}

    def test_nested_activation_restores_previous(self):
        outer, inner = MetricsRegistry(), MetricsRegistry()
        with outer.activate():
            with inner.activate():
                assert active_registry() is inner
            assert active_registry() is outer
        assert active_registry() is None


class TestPipelineInstrumentation:
    def test_schedule_aapc_produces_stage_spans(self, fig1):
        registry = MetricsRegistry()
        with registry.activate():
            schedule = schedule_aapc(fig1)
        profile = registry.report()
        names = {s.name for s in profile.spans}
        assert "schedule_aapc" in names
        assert "root_identification" in names
        assert "global_schedule" in names
        assert "phase_partitioning" in names
        top = profile.span("schedule_aapc")
        assert top.counters["phases"] == schedule.num_phases
        assert top.counters["messages"] == len(schedule)

    def test_span_override_sees_every_core_span(self, fig1):
        """A subclass overriding ``span`` (how a memory profiler wraps
        each span) is what the pipeline hooks call."""
        seen = []

        class Recording(MetricsRegistry):
            def span(self, name, **counters):
                seen.append(name)
                return super().span(name, **counters)

        recorder = Recording()
        with recorder.activate():
            schedule_aapc(fig1)
        recorded = [s.name for s in recorder.report().spans]
        assert seen == recorded
        assert {
            "schedule_aapc",
            "root_identification",
            "global_schedule",
            "phase_partitioning",
            "verify_schedule",
        } <= set(seen)

    def test_no_spans_leak_without_activation(self, fig1):
        schedule_aapc(fig1)
        assert active_registry() is None


class TestExportForms:
    def _profile(self):
        registry = MetricsRegistry()
        with registry.span("outer", phases=9):
            with registry.span("inner"):
                pass
        return registry.report()

    def test_as_dicts_roundtrips_to_json_types(self):
        import json

        dicts = self._profile().as_dicts()
        assert json.loads(json.dumps(dicts)) == dicts
        assert dicts[0]["name"] == "outer"
        assert dicts[0]["counters"] == {"phases": 9}
        assert dicts[1]["depth"] == 1

    def test_perfetto_events_are_complete_slices(self):
        events = self._profile().perfetto_events(pid=5)
        assert all(e["ph"] == "X" for e in events)
        assert all(e["pid"] == 5 for e in events)
        assert events[0]["name"] == "outer"
        assert events[0]["args"] == {"phases": 9}
        assert events[0]["dur"] >= events[1]["dur"]

    def test_render_indents_by_depth(self):
        text = self._profile().render()
        lines = text.splitlines()
        assert lines[0].startswith("outer")
        assert lines[1].startswith("  inner")
