"""Unit tests for deadline-driven sender buffer scheduling (Eqs. 12-14)."""

import math

import pytest

from repro.core.scheduling import (
    DeadlineSenderBuffer,
    PropagationEstimator,
    SchedulingParams,
)
from repro.network.packet import PACKET_PAYLOAD_BYTES, VideoSegment

RATE = 8.0 * PACKET_PAYLOAD_BYTES * 100  # 100 packets per second


def seg(player=0, n_packets=10, action=0.0, req=0.1, tolerance=0.3,
        state_ready=None):
    return VideoSegment(
        player_id=player,
        quality_level=3,
        size_bytes=PACKET_PAYLOAD_BYTES * n_packets,
        duration_s=0.1,
        action_time_s=action,
        latency_req_s=req,
        loss_tolerance=tolerance,
        state_ready_s=state_ready,
    )


def make_buffer(rate=RATE, **kw):
    return DeadlineSenderBuffer(rate, params=SchedulingParams(**kw))


class TestParams:
    def test_defaults(self):
        p = SchedulingParams()
        assert p.decay_rate == 1.0  # paper: λ = 1

    def test_validation(self):
        with pytest.raises(ValueError):
            SchedulingParams(decay_rate=-1.0)
        with pytest.raises(ValueError):
            SchedulingParams(sigma_s=0.0)
        with pytest.raises(ValueError):
            SchedulingParams(propagation_window=0)

    def test_rate_positive(self):
        with pytest.raises(ValueError):
            DeadlineSenderBuffer(0.0)


class TestPropagationEstimator:
    def test_default_before_samples(self):
        est = PropagationEstimator()
        assert est.estimate(1, default_s=0.02) == 0.02

    def test_average(self):
        est = PropagationEstimator()
        est.record(1, 0.01)
        est.record(1, 0.03)
        assert est.estimate(1) == pytest.approx(0.02)

    def test_window_slides(self):
        """Eq. 13 averages only the m most recent packets."""
        est = PropagationEstimator(window=3)
        for v in (1.0, 1.0, 1.0, 0.1, 0.1, 0.1):
            est.record(1, v)
        assert est.estimate(1) == pytest.approx(0.1)

    def test_per_player_isolation(self):
        est = PropagationEstimator()
        est.record(1, 0.01)
        est.record(2, 0.09)
        assert est.estimate(1) == pytest.approx(0.01)
        assert est.estimate(2) == pytest.approx(0.09)

    def test_window_validation(self):
        with pytest.raises(ValueError):
            PropagationEstimator(window=0)


class TestEdfOrdering:
    def test_earliest_deadline_first(self):
        buf = make_buffer()
        late = seg(player=1, action=0.0, req=0.5)
        urgent = seg(player=2, action=0.0, req=0.05)
        buf.enqueue(late, now_s=0.0)
        buf.enqueue(urgent, now_s=0.0)
        assert buf.dequeue().player_id == 2
        assert buf.dequeue().player_id == 1

    def test_equal_deadlines_insertion_order(self):
        buf = make_buffer()
        a = seg(player=1, action=0.0, req=0.1)
        b = seg(player=2, action=0.0, req=0.1)
        buf.enqueue(a, 0.0)
        buf.enqueue(b, 0.0)
        assert buf.dequeue().player_id == 1

    def test_peek_and_iter(self):
        buf = make_buffer()
        buf.enqueue(seg(player=1, req=0.9), 0.0)
        buf.enqueue(seg(player=2, req=0.1), 0.0)
        assert buf.peek().player_id == 2
        assert [s.player_id for s in buf.iter_pending()] == [2, 1]

    def test_len_and_backlog(self):
        buf = make_buffer()
        buf.enqueue(seg(n_packets=3, req=10.0), 0.0)
        buf.enqueue(seg(n_packets=5, req=10.0), 0.0)
        assert len(buf) == 2
        assert buf.backlog_bytes == PACKET_PAYLOAD_BYTES * 8

    def test_preceding_bytes(self):
        buf = make_buffer()
        first = seg(player=1, n_packets=4, req=0.1)
        second = seg(player=2, n_packets=2, req=0.2)
        buf.enqueue(second, 0.0)
        buf.enqueue(first, 0.0)
        assert buf.preceding_bytes(first) == 0.0
        assert buf.preceding_bytes(second) == PACKET_PAYLOAD_BYTES * 4


class TestLatencyEstimate:
    def test_eq12_components(self):
        """L_r = l_r + l_s + l_q + l_t + l_p for a known setup."""
        buf = DeadlineSenderBuffer(RATE, render_delay_s=0.005)
        buf.propagation.record(1, 0.02)
        # Both deadlines are lax so the enqueue-time rebalance drops
        # nothing and the estimate decomposes cleanly.
        ahead = seg(player=2, n_packets=10, action=0.0, req=9.0)
        buf.enqueue(ahead, now_s=0.04)
        target = seg(player=1, n_packets=10, action=0.0, req=10.0,
                     state_ready=0.03)
        target.created_at_s = 0.04
        buf.enqueue(target, now_s=0.04)

        l_r = 0.04  # created - action
        l_s = 0.005
        l_q = 10 * PACKET_PAYLOAD_BYTES * 8 / RATE
        l_t = 10 * PACKET_PAYLOAD_BYTES * 8 / RATE
        l_p = 0.02
        est = buf.estimate_response_latency_s(target, now_s=0.04)
        assert est == pytest.approx(l_r + l_s + l_q + l_t + l_p)

    def test_estimated_arrival(self):
        buf = make_buffer()
        buf.propagation.record(1, 0.01)
        s = seg(player=1, n_packets=10, req=10.0)
        buf.enqueue(s, now_s=0.0)
        l_t = 10 * PACKET_PAYLOAD_BYTES * 8 / RATE
        assert buf.estimated_arrival_s(s, 0.0) == pytest.approx(l_t + 0.01)

    def test_sigma_default_one_packet_time(self):
        buf = make_buffer()
        assert buf.sigma_s == pytest.approx(8 * PACKET_PAYLOAD_BYTES / RATE)

    def test_sigma_override(self):
        buf = make_buffer(sigma_s=0.5)
        assert buf.sigma_s == 0.5


class TestDropping:
    def test_no_drop_when_on_time(self):
        buf = make_buffer()
        buf.enqueue(seg(n_packets=5, req=1.0), 0.0)
        assert buf.packets_dropped == 0

    def test_drops_when_late(self):
        """A segment whose queue delay exceeds its deadline loses packets."""
        buf = make_buffer()
        # 100 packets of backlog = 1 s of serialization.
        buf.enqueue(seg(player=1, n_packets=100, req=2.0, tolerance=0.3), 0.0)
        # This segment needs to arrive within 50 ms but sits behind 1 s.
        buf.enqueue(seg(player=2, n_packets=10, req=0.05, tolerance=0.3), 0.0)
        assert buf.packets_dropped > 0

    def test_drop_respects_tolerance(self):
        buf = make_buffer()
        first = seg(player=1, n_packets=100, req=2.0, tolerance=0.2)
        buf.enqueue(first, 0.0)
        buf.enqueue(seg(player=2, n_packets=10, req=0.01, tolerance=0.2), 0.0)
        assert first.loss_fraction <= 0.2 + 1e-9

    def test_eq14_weights_favor_tolerant_segments(self):
        """Higher loss tolerance -> more packets dropped (Eq. 14)."""
        buf = make_buffer(decay_rate=0.0)  # isolate the tolerance factor
        tolerant = seg(player=1, n_packets=50, req=1.0, tolerance=0.6)
        brittle = seg(player=2, n_packets=50, req=1.0, tolerance=0.1)
        buf.enqueue(tolerant, 0.0)
        buf.enqueue(brittle, 0.0)
        buf.enqueue(seg(player=3, n_packets=10, req=0.02), 0.0)
        assert tolerant.dropped_packets >= brittle.dropped_packets

    def test_decay_shields_old_segments(self):
        """Eq. 14: φ = e^{-λt} shrinks the share of long-queued segments."""
        buf = make_buffer(decay_rate=50.0)
        old = seg(player=1, n_packets=50, req=5.0, tolerance=0.5)
        fresh = seg(player=2, n_packets=50, req=5.0, tolerance=0.5)
        buf.enqueue(old, now_s=0.0)
        buf.enqueue(fresh, now_s=0.5)  # old has waited 0.5 s
        trigger = seg(player=3, n_packets=10, req=0.02, tolerance=0.5)
        buf.enqueue(trigger, now_s=0.5)
        assert fresh.dropped_packets >= old.dropped_packets

    def test_paper_worked_example_proportions(self):
        """Figure 4's example: tolerances .6/.2/.5, decay .5/.1/.2 ->
        drops roughly proportional to tolerance x decay (3/2/1 of 6)."""
        tolerances = [0.6, 0.2, 0.5]
        phis = [0.5, 0.1, 0.2]
        weights = [t * p for t, p in zip(tolerances, phis)]
        total = sum(weights)
        shares = [6 * w / total for w in weights]
        assert [round(s) for s in shares] == [4, 0, 1] or \
               [math.ceil(s) for s in shares] == [4, 1, 2]
        # The exact integers depend on rounding; the paper reports 3/2/1
        # with its own apportioning. What must hold: monotone in weight.
        assert shares[0] > shares[2] > shares[1]

    def test_whole_drop_marked(self):
        buf = make_buffer()
        tiny = seg(player=1, n_packets=1, req=5.0, tolerance=1.0)
        buf.enqueue(tiny, 0.0)
        buf.enqueue(seg(player=2, n_packets=200, req=0.001, tolerance=1.0),
                    0.0)
        if tiny.remaining_packets == 0:
            assert buf.segments_fully_dropped >= 1


class TestExpiry:
    def test_hopeless_segment_expired_at_dequeue(self):
        buf = make_buffer()
        s = seg(player=1, n_packets=10, action=0.0, req=0.05, tolerance=0.1)
        buf.enqueue(s, 0.0)
        out = buf.dequeue(now_s=10.0)  # way past the deadline
        assert out is s
        assert out.remaining_packets == 0

    def test_feasible_segment_not_expired(self):
        buf = make_buffer()
        s = seg(player=1, n_packets=1, action=0.0, req=10.0)
        buf.enqueue(s, 0.0)
        out = buf.dequeue(now_s=0.01)
        assert out.remaining_packets == 1

    def test_dequeue_without_now_never_expires(self):
        buf = make_buffer()
        # tolerance 0: the enqueue-time rebalance cannot drop anything.
        s = seg(player=1, n_packets=10, action=0.0, req=0.001, tolerance=0.0)
        buf.enqueue(s, 0.0)
        out = buf.dequeue()
        assert out.remaining_packets == 10

    def test_empty_dequeue(self):
        assert make_buffer().dequeue(0.0) is None
