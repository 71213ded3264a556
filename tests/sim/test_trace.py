"""Unit tests for the Trace container itself."""

import pytest

from repro.obs.bus import EventBus
from repro.obs.phase_audit import phase_windows
from repro.sim.trace import Trace, TraceRecord


class TestTrace:
    def make(self):
        trace = Trace()
        trace.add(0.0, "n0", "post_send", "n1", 5, 0)
        trace.add(0.5, "n1", "post_recv", "n0", 5, 0)
        trace.add(1.0, "n0", "waitall_done", phase=0)
        trace.add(2.0, "n0", "post_send", "n2", 6, 1)
        return trace

    def test_add_and_len(self):
        assert len(self.make()) == 4

    def test_unattached_trace_records_nothing(self):
        """What an unobserved executor run builds: a trace on no bus."""
        trace = Trace()
        bus = EventBus()
        bus.publish(TraceRecord(0.0, "n0", "post_send"))
        assert len(trace) == 0

    def test_of_rank(self):
        trace = self.make()
        assert len(trace.of_rank("n0")) == 3
        assert len(trace.of_rank("n1")) == 1
        assert trace.of_rank("ghost") == []

    def test_of_kind(self):
        trace = self.make()
        assert len(trace.of_kind("post_send")) == 2
        assert all(r.what == "post_send" for r in trace.of_kind("post_send"))

    def test_first_with_and_without_tag(self):
        trace = self.make()
        rec = trace.first("n0", "post_send")
        assert rec is not None and rec.tag == 5
        rec6 = trace.first("n0", "post_send", tag=6)
        assert rec6 is not None and rec6.time == 2.0
        assert trace.first("n0", "barrier") is None

    def test_phase_spans(self):
        windows = phase_windows(self.make())
        assert [(w.phase, w.start, w.end) for w in windows] == [
            (0, 0.0, 1.0),
            (1, 2.0, 2.0),
        ]

    def test_records_are_immutable(self):
        record = TraceRecord(0.0, "n0", "x")
        try:
            record.time = 1.0  # type: ignore[misc]
            mutated = True
        except AttributeError:
            mutated = False
        assert not mutated

    def test_of_phase(self):
        trace = self.make()
        assert len(trace.of_phase(0)) == 3
        assert [r.tag for r in trace.of_phase(1)] == [6]
        assert trace.of_phase(99) == []

    def test_between_inclusive_bounds(self):
        trace = self.make()
        assert len(trace.between(0.0, 2.0)) == 4
        assert len(trace.between(0.5, 1.0)) == 2
        assert [r.time for r in trace.between(0.5, 0.5)] == [0.5]
        assert trace.between(3.0, 4.0) == []


class TestRingBuffer:
    def test_cap_keeps_most_recent_and_counts_drops(self):
        trace = Trace(max_records=3)
        for i in range(5):
            trace.add(float(i), "n0", "op", tag=i)
        assert len(trace) == 3
        assert [r.tag for r in trace.records] == [2, 3, 4]
        assert trace.dropped == 2

    def test_uncapped_never_drops(self):
        trace = Trace()
        for i in range(100):
            trace.add(float(i), "n0", "op", tag=i)
        assert len(trace) == 100
        assert trace.dropped == 0

    def test_invalid_cap_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            Trace(max_records=0)
        with pytest.raises(ValueError, match="positive"):
            Trace(max_records=-5)

    def test_queries_work_on_ring_buffer(self):
        trace = Trace(max_records=4)
        for i in range(8):
            trace.add(float(i), "n0", "op", phase=i % 2)
        assert [r.time for r in trace.of_phase(0)] == [4.0, 6.0]
        assert len(trace.between(5.0, 7.0)) == 3


class TestBusAttachment:
    def test_attach_ingests_published_records(self):
        bus = EventBus()
        trace = Trace()
        trace.attach(bus)
        bus.publish(TraceRecord(0.0, "n0", "post_send", "n1", 1, 0))
        bus.publish(TraceRecord(1.0, "n1", "post_recv", "n0", 1, 0))
        assert len(trace) == 2
        assert trace.first("n0", "post_send") is not None

    def test_unattached_trace_ignores_other_bus(self):
        bus, other = EventBus(), EventBus()
        trace = Trace()
        trace.attach(bus)
        other.publish(TraceRecord(0.0, "n0", "post_send"))
        assert len(trace) == 0
        bus.publish(TraceRecord(1.0, "n0", "post_send"))
        assert len(trace) == 1
