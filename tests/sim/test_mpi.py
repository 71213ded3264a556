"""Tests for the simulated MPI point-to-point layer."""

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Engine
from repro.sim.mpi import SimMPI
from repro.sim.network import FlowNetwork
from repro.sim.params import NetworkParams
from repro.topology.builder import single_switch


def make_mpi(**kwargs):
    defaults = dict(
        base_efficiency=1.0,
        contention_floor_small=1.0,
        contention_floor_large=1.0,
        contention_gamma=0.0,
        eager_latency=50e-6,
        sync_latency=200e-6,
        rendezvous_latency=100e-6,
        eager_threshold=1024,
        socket_buffer_bytes=16384,
    )
    defaults.update(kwargs)
    params = NetworkParams(**defaults)
    engine = Engine()
    net = FlowNetwork(engine, single_switch(4), params)
    return engine, SimMPI(engine, net, params), params


class TestEager:
    def test_sender_completes_at_post(self):
        engine, mpi, _ = make_mpi()
        send = mpi.isend("n0", "n1", 0, 512, (("n0", "n1"),))
        assert send.done  # eager: done immediately

    def test_receiver_completes_after_latency(self):
        engine, mpi, params = make_mpi()
        times = {}
        send = mpi.isend("n0", "n1", 0, 512)
        recv = mpi.irecv("n1", "n0", 0)
        recv.event.on_trigger(lambda _: times.__setitem__("recv", engine.now))
        engine.run()
        assert times["recv"] == pytest.approx(params.eager_latency)

    def test_late_recv_completes_immediately(self):
        engine, mpi, params = make_mpi()
        send = mpi.isend("n0", "n1", 0, 512)
        times = {}

        def post_recv():
            recv = mpi.irecv("n1", "n0", 0)
            recv.event.on_trigger(lambda _: times.__setitem__("recv", engine.now))

        engine.schedule(1.0, post_recv)
        engine.run()
        assert times["recv"] == pytest.approx(1.0)

    def test_blocks_copied_to_receiver(self):
        engine, mpi, _ = make_mpi()
        mpi.isend("n0", "n1", 0, 512, (("n0", "n1"),))
        recv = mpi.irecv("n1", "n0", 0)
        engine.run()
        assert recv.blocks == (("n0", "n1"),)
        assert recv.nbytes == 512


class TestSyncMessages:
    def test_sync_latency_used(self):
        engine, mpi, params = make_mpi()
        mpi.isend("n0", "n1", 5, 0, (), sync=True)
        recv = mpi.irecv("n1", "n0", 5, sync=True)
        times = {}
        recv.event.on_trigger(lambda _: times.__setitem__("t", engine.now))
        engine.run()
        assert times["t"] == pytest.approx(params.sync_latency)

    def test_sync_does_not_match_data(self):
        engine, mpi, _ = make_mpi()
        mpi.isend("n0", "n1", 5, 0, (), sync=True)
        data_recv = mpi.irecv("n1", "n0", 5, sync=False)
        engine.run()
        assert not data_recv.done
        with pytest.raises(SimulationError, match="unmatched"):
            mpi.assert_drained()


class TestFaultFreeSyncs:
    """Without a fault injector a sync is its arrival time, not a Request."""

    def test_posted_sync_is_a_delay_until_arrival(self):
        engine, mpi, params = make_mpi()
        mpi.sync_send("n0", "n1", 5)
        got = {}
        engine.schedule(
            50e-6, lambda: got.__setitem__("wait", mpi.sync_recv("n1", "n0", 5))
        )
        engine.run()
        assert got["wait"] == pytest.approx(params.sync_latency - 50e-6)
        assert mpi._unmatched_sends == {} and mpi._unmatched_recvs == {}
        mpi.assert_drained()

    def test_parked_receiver_wakes_at_arrival(self):
        engine, mpi, params = make_mpi()
        event = mpi.sync_recv("n1", "n0", 5)
        times = {}
        event.on_trigger(lambda _: times.__setitem__("t", engine.now))
        engine.schedule(1e-3, lambda: mpi.sync_send("n0", "n1", 5))
        engine.run()
        assert times["t"] == pytest.approx(1e-3 + params.sync_latency)
        mpi.assert_drained()

    def test_syncs_on_one_key_are_delivered_fifo(self):
        engine, mpi, params = make_mpi()
        # Two posted syncs: the first receive takes the earlier arrival.
        mpi.sync_send("n0", "n1", 7)
        engine.schedule(100e-6, lambda: mpi.sync_send("n0", "n1", 7))
        waits = []
        engine.schedule(
            150e-6,
            lambda: waits.extend(
                [mpi.sync_recv("n1", "n0", 7), mpi.sync_recv("n1", "n0", 7)]
            ),
        )
        engine.run()
        assert waits == [
            pytest.approx(params.sync_latency - 150e-6),
            pytest.approx(params.sync_latency - 50e-6),
        ]
        # Two parked receivers: the first one posted wakes first.
        first = mpi.sync_recv("n1", "n0", 8)
        second = mpi.sync_recv("n1", "n0", 8)
        mpi.sync_send("n0", "n1", 8)
        engine.run()
        assert first.triggered and not second.triggered
        mpi.sync_send("n0", "n1", 8)
        engine.run()
        assert second.triggered
        mpi.assert_drained()

    def test_sync_sent_and_never_received_is_unmatched(self):
        engine, mpi, _ = make_mpi()
        mpi.sync_send("n0", "n1", 5)
        engine.run()
        with pytest.raises(SimulationError, match="unmatched"):
            mpi.assert_drained()

    def test_sync_keys_are_directed_and_tagged(self):
        engine, mpi, _ = make_mpi()
        mpi.sync_send("n0", "n1", 5)
        assert not isinstance(mpi.sync_recv("n0", "n1", 5), float)
        assert not isinstance(mpi.sync_recv("n1", "n0", 6), float)
        assert isinstance(mpi.sync_recv("n1", "n0", 5), float)


class TestBuffered:
    def test_sender_completes_at_post_but_flow_drains(self):
        engine, mpi, params = make_mpi()
        nbytes = 8000  # buffered: between eager threshold and socket buffer
        send = mpi.isend("n0", "n1", 0, nbytes)
        assert send.done
        recv = mpi.irecv("n1", "n0", 0)
        times = {}
        recv.event.on_trigger(lambda _: times.__setitem__("t", engine.now))
        engine.run()
        expected = params.eager_latency + nbytes / params.bandwidth
        assert times["t"] == pytest.approx(expected, rel=1e-6)

    def test_flow_starts_without_posted_recv(self):
        """TCP push: the flow drains before the receiver ever posts."""
        engine, mpi, params = make_mpi()
        nbytes = 8000
        mpi.isend("n0", "n1", 0, nbytes)
        times = {}

        def late_recv():
            recv = mpi.irecv("n1", "n0", 0)
            recv.event.on_trigger(lambda _: times.__setitem__("t", engine.now))

        engine.schedule(1.0, late_recv)
        engine.run()
        assert times["t"] == pytest.approx(1.0)  # already arrived


class TestRendezvous:
    def test_waits_for_both_sides(self):
        engine, mpi, params = make_mpi()
        nbytes = 1 << 20
        send = mpi.isend("n0", "n1", 0, nbytes)
        assert not send.done  # rendezvous: no early completion
        times = {}

        def post_recv():
            recv = mpi.irecv("n1", "n0", 0)
            recv.event.on_trigger(lambda _: times.__setitem__("recv", engine.now))

        engine.schedule(0.5, post_recv)
        send.event.on_trigger(lambda _: times.__setitem__("send", engine.now))
        engine.run()
        expected = 0.5 + params.rendezvous_latency + nbytes / params.bandwidth
        assert times["send"] == pytest.approx(expected, rel=1e-6)
        assert times["recv"] == pytest.approx(expected, rel=1e-6)

    def test_exactly_socket_buffer_is_rendezvous(self):
        engine, mpi, params = make_mpi()
        send = mpi.isend("n0", "n1", 0, params.socket_buffer_bytes)
        assert not send.done


class TestMatching:
    def test_fifo_within_key(self):
        engine, mpi, _ = make_mpi()
        mpi.isend("n0", "n1", 0, 100, (("first", "x"),))
        mpi.isend("n0", "n1", 0, 100, (("second", "x"),))
        r1 = mpi.irecv("n1", "n0", 0)
        r2 = mpi.irecv("n1", "n0", 0)
        engine.run()
        assert r1.blocks == (("first", "x"),)
        assert r2.blocks == (("second", "x"),)

    def test_tags_separate(self):
        engine, mpi, _ = make_mpi()
        mpi.isend("n0", "n1", 7, 100, (("seven", "x"),))
        mpi.isend("n0", "n1", 3, 100, (("three", "x"),))
        r3 = mpi.irecv("n1", "n0", 3)
        r7 = mpi.irecv("n1", "n0", 7)
        engine.run()
        assert r3.blocks == (("three", "x"),)
        assert r7.blocks == (("seven", "x"),)

    def test_assert_drained_clean(self):
        engine, mpi, _ = make_mpi()
        mpi.isend("n0", "n1", 0, 100)
        mpi.irecv("n1", "n0", 0)
        engine.run()
        mpi.assert_drained()


class TestBarrier:
    def test_release_after_last_arrival(self):
        engine, mpi, params = make_mpi()
        times = {}

        def proc(name, delay):
            yield delay
            event = mpi.barrier(3)
            yield event
            times[name] = engine.now

        for name, delay in (("a", 0.1), ("b", 0.5), ("c", 0.3)):
            engine.spawn(proc(name, delay))
        engine.run()
        expected = 0.5 + params.barrier_latency
        assert all(t == pytest.approx(expected) for t in times.values())

    def test_size_mismatch_rejected(self):
        engine, mpi, _ = make_mpi()
        mpi.barrier(3)
        with pytest.raises(SimulationError, match="mismatch"):
            mpi.barrier(4)

    def test_sequential_barriers(self):
        engine, mpi, params = make_mpi()
        hits = []

        def proc():
            yield mpi.barrier(2)
            hits.append(engine.now)
            yield mpi.barrier(2)
            hits.append(engine.now)

        engine.spawn(proc())
        engine.spawn(proc())
        engine.run()
        assert len(hits) == 4
