"""Unit tests for the generic streaming server pipeline."""

import pytest

from repro.core.server import StreamingServer
from repro.streaming.encoder import SegmentEncoder

RATE = 10e6  # 10 Mbps uplink


class Sink:
    """Captures delivered segments."""

    def __init__(self):
        self.deliveries = []

    def deliver(self, segment, now_s):
        self.deliveries.append((segment, now_s))


def attach(server, player_id=1, req=0.110, loss=0.2, prop=0.01,
           path_rate=float("inf")):
    sink = Sink()
    enc = SegmentEncoder(player_id, req, loss)
    server.attach_player(player_id, enc, sink.deliver, prop, path_rate)
    return sink, enc


class TestValidation:
    def test_rate_positive(self, env):
        with pytest.raises(ValueError):
            StreamingServer(env, 0, uplink_rate_bps=0.0)

    def test_path_rate_positive(self, env):
        server = StreamingServer(env, 0, RATE)
        enc = SegmentEncoder(1, 0.1, 0.2)
        with pytest.raises(ValueError):
            server.attach_player(1, enc, lambda s, t: None, 0.01, 0.0)


class TestPipeline:
    def test_render_encode_deliver(self, env):
        server = StreamingServer(env, 0, RATE, render_delay_s=0.005)
        sink, enc = attach(server, prop=0.01)
        server.render_and_send(1, action_time_s=0.0)
        env.run(until=1.0)
        assert len(sink.deliveries) == 1
        seg, at = sink.deliveries[0]
        # render + serialization + propagation
        tx = 8.0 * seg.size_bytes / RATE
        assert at == pytest.approx(0.005 + tx + 0.01)

    def test_state_ready_stamped(self, env):
        server = StreamingServer(env, 0, RATE, render_delay_s=0.005)
        sink, _ = attach(server)

        env.call_later(2.0, server.render_and_send, 1, 1.9)
        env.run(until=5.0)
        seg, _ = sink.deliveries[0]
        assert seg.action_time_s == 1.9
        assert seg.state_ready_s == pytest.approx(2.0)

    def test_unknown_player_ignored(self, env):
        server = StreamingServer(env, 0, RATE)
        server.render_and_send(42, 0.0)
        env.run(until=1.0)
        assert server.segments_sent == 0

    def test_path_rate_slows_delivery(self, env):
        fast_server = StreamingServer(env, 0, RATE)
        slow_server = StreamingServer(env, 1, RATE)
        fast, _ = attach(fast_server, prop=0.0, path_rate=float("inf"))
        slow, _ = attach(slow_server, prop=0.0, path_rate=1e6)
        fast_server.render_and_send(1, 0.0)
        slow_server.render_and_send(1, 0.0)
        env.run(until=5.0)
        assert slow.deliveries[0][1] > fast.deliveries[0][1]

    def test_fifo_serialization_shared(self, env):
        """Two players' segments serialize through one uplink."""
        server = StreamingServer(env, 0, RATE)
        s1, _ = attach(server, player_id=1, prop=0.0)
        s2, _ = attach(server, player_id=2, prop=0.0)
        server.render_and_send(1, 0.0)
        server.render_and_send(2, 0.0)
        env.run(until=5.0)
        t1 = s1.deliveries[0][1]
        t2 = s2.deliveries[0][1]
        seg = s1.deliveries[0][0]
        tx = 8.0 * seg.size_bytes / RATE
        assert abs(t2 - t1) == pytest.approx(tx, rel=0.05)

    def test_bytes_accounted(self, env):
        server = StreamingServer(env, 0, RATE)
        sink, enc = attach(server)
        server.render_and_send(1, 0.0)
        env.run(until=1.0)
        assert server.bytes_sent == sink.deliveries[0][0].size_bytes
        assert server.segments_sent == 1

    def test_detach_stops_delivery(self, env):
        server = StreamingServer(env, 0, RATE)
        sink, _ = attach(server)
        server.render_and_send(1, 0.0)
        server.detach_player(1)
        env.run(until=1.0)
        assert sink.deliveries == []
        assert server.n_players == 0

    def test_sender_sleeps_and_wakes(self, env):
        """The sender loop must idle without busy-waiting and resume."""
        server = StreamingServer(env, 0, RATE)
        sink, _ = attach(server, prop=0.0)

        server.render_and_send(1, 0.0)
        env.call_later(3.0, server.render_and_send, 1, 3.0)  # long idle gap
        env.run(until=10.0)
        assert len(sink.deliveries) == 2
        assert sink.deliveries[1][1] > 3.0


class TestDeadlineMode:
    def test_deadline_buffer_selected(self, env):
        from repro.core.scheduling import DeadlineSenderBuffer
        server = StreamingServer(env, 0, RATE, use_deadline_scheduling=True)
        assert isinstance(server.buffer, DeadlineSenderBuffer)

    def test_propagation_seeded_on_attach(self, env):
        server = StreamingServer(env, 0, RATE, use_deadline_scheduling=True)
        attach(server, player_id=3, prop=0.033)
        assert server.buffer.propagation.estimate(3) == pytest.approx(0.033)

    def test_expired_segment_not_counted_as_sent(self, env):
        server = StreamingServer(env, 0, RATE, use_deadline_scheduling=True)
        sink, enc = attach(server, req=0.110, prop=0.5)  # hopeless prop

        server.render_and_send(1, 0.0)
        env.run(until=5.0)
        # The segment was expired (0.5 s propagation > 110 ms budget):
        # delivered with zero packets, no uplink bytes spent.
        assert server.bytes_sent == 0
        seg, _ = sink.deliveries[0]
        assert seg.remaining_packets == 0


class TestRenderTiming:
    """What queueing the render from the action's tick must not change."""

    def test_same_instant_renders_compete_under_edf(self, env):
        # The 60 ms player is rendered second but due first: the idle
        # uplink may start only once both renders have finished.
        server = StreamingServer(env, 0, RATE, use_deadline_scheduling=True)
        loose, _ = attach(server, player_id=1, req=0.110, prop=0.0)
        tight, _ = attach(server, player_id=2, req=0.060, prop=0.0)
        server.render_and_send(1, 0.0)
        server.render_and_send(2, 0.0)
        env.run(until=1.0)
        (seg1, t1), = loose.deliveries
        (seg2, t2), = tight.deliveries
        assert seg1.remaining_packets > 0 and seg2.remaining_packets > 0
        assert t2 < t1

    @staticmethod
    def _detached_then_reattached(env, server, reattach_at):
        sink, enc = attach(server)
        server.detach_player(1)
        env.call_later(reattach_at, server.attach_player, 1, enc,
                       sink.deliver, 0.01)
        return sink

    @pytest.mark.parametrize("reattach_at, delivered",
                             [(0.012, 0), (0.008, 1)])
    def test_render_needs_the_player_when_its_state_arrives(
            self, env, reattach_at, delivered):
        server = StreamingServer(env, 0, RATE, render_delay_s=0.005)
        sink = self._detached_then_reattached(env, server, reattach_at)
        env.call_later(0.010, server.render_and_send, 1, 0.0)
        env.run(until=1.0)
        assert len(sink.deliveries) == delivered

    @pytest.mark.parametrize("reattach_at, delivered",
                             [(0.012, 0), (0.008, 1)])
    def test_ahead_of_time_render_needs_the_player_when_its_state_arrives(
            self, env, reattach_at, delivered):
        # Queued at the action's instant, with the state due at 0.010:
        # a re-attach inside the render window (0.010-0.015) is too late.
        server = StreamingServer(env, 0, RATE, render_delay_s=0.005)
        sink = self._detached_then_reattached(env, server, reattach_at)
        server.render_and_send(1, 0.0, 0.010)
        env.run(until=1.0)
        assert len(sink.deliveries) == delivered
        if delivered:
            assert sink.deliveries[0][0].state_ready_s == 0.010

    def test_ahead_of_time_render_stamps_exact_instants(self, env):
        t, l_r = 0.1, 0.023
        env.run(until=t)
        server = StreamingServer(env, 0, RATE, render_delay_s=0.005)
        sink, _ = attach(server)
        server.render_and_send(1, t, t + l_r)
        env.run(until=1.0)
        (seg, _), = sink.deliveries
        assert seg.action_time_s == t
        assert seg.state_ready_s == t + l_r
        assert seg.created_at_s == (t + l_r) + 0.005
