"""Unit tests for packets and video segments."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.network.packet import PACKET_PAYLOAD_BYTES, Packet, VideoSegment


def make_segment(size_bytes=14000, loss_tolerance=0.3, latency_req_s=0.09,
                 action_time_s=1.0, state_ready_s=None):
    return VideoSegment(
        player_id=1,
        quality_level=4,
        size_bytes=size_bytes,
        duration_s=0.1,
        action_time_s=action_time_s,
        latency_req_s=latency_req_s,
        loss_tolerance=loss_tolerance,
        state_ready_s=state_ready_s,
    )


class TestPacket:
    def test_in_flight(self):
        p = Packet(segment_id=0, index=0, size_bytes=1400)
        assert not p.in_flight
        p.sent_at_s = 1.0
        assert p.in_flight
        p.arrived_at_s = 2.0
        assert not p.in_flight


class TestSegmentBasics:
    def test_positive_size_required(self):
        with pytest.raises(ValueError):
            make_segment(size_bytes=0)

    def test_loss_tolerance_bounds(self):
        with pytest.raises(ValueError):
            make_segment(loss_tolerance=1.5)

    def test_unique_ids(self):
        assert make_segment().segment_id != make_segment().segment_id

    def test_total_packets_ceiling(self):
        seg = make_segment(size_bytes=PACKET_PAYLOAD_BYTES * 3 + 1)
        assert seg.total_packets == 4

    def test_tiny_segment_one_packet(self):
        assert make_segment(size_bytes=10).total_packets == 1

    def test_total_packets_is_not_a_constructor_argument(self):
        with pytest.raises(TypeError):
            VideoSegment(player_id=1, quality_level=4, size_bytes=14000,
                         duration_s=0.1, action_time_s=1.0,
                         latency_req_s=0.09, loss_tolerance=0.3,
                         total_packets=3)

    def test_deadline_anchored_at_action_by_default(self):
        seg = make_segment(action_time_s=2.0, latency_req_s=0.05)
        assert seg.deadline_s == pytest.approx(2.05)

    def test_deadline_anchored_at_state_ready(self):
        seg = make_segment(action_time_s=2.0, latency_req_s=0.05,
                           state_ready_s=2.04)
        assert seg.anchor_s == 2.04
        assert seg.deadline_s == pytest.approx(2.09)


class TestDropping:
    def test_drop_bounded_by_tolerance(self):
        seg = make_segment(size_bytes=PACKET_PAYLOAD_BYTES * 10,
                           loss_tolerance=0.3)
        dropped = seg.drop(100)
        assert dropped == 3  # 30% of 10

    def test_drop_accumulates(self):
        seg = make_segment(size_bytes=PACKET_PAYLOAD_BYTES * 10,
                           loss_tolerance=0.5)
        assert seg.drop(2) == 2
        assert seg.drop(10) == 3
        assert seg.dropped_packets == 5

    def test_negative_drop_rejected(self):
        with pytest.raises(ValueError):
            make_segment().drop(-1)

    def test_remaining_bytes_shrink(self):
        seg = make_segment(size_bytes=PACKET_PAYLOAD_BYTES * 10,
                           loss_tolerance=1.0)
        before = seg.remaining_bytes
        seg.drop(5)
        assert seg.remaining_bytes == pytest.approx(before / 2, rel=0.01)

    def test_meets_loss_tolerance(self):
        seg = make_segment(size_bytes=PACKET_PAYLOAD_BYTES * 10,
                           loss_tolerance=0.2)
        seg.drop(2)
        assert seg.meets_loss_tolerance()

    def test_loss_fraction(self):
        seg = make_segment(size_bytes=PACKET_PAYLOAD_BYTES * 4,
                           loss_tolerance=1.0)
        seg.drop(1)
        assert seg.loss_fraction == pytest.approx(0.25)

    def test_drop_all_bypasses_tolerance(self):
        seg = make_segment(size_bytes=PACKET_PAYLOAD_BYTES * 10,
                           loss_tolerance=0.1)
        newly = seg.drop_all()
        assert newly == 10
        assert seg.remaining_packets == 0
        assert seg.remaining_bytes == 0

    def test_drop_all_idempotent_count(self):
        seg = make_segment(size_bytes=PACKET_PAYLOAD_BYTES * 4,
                           loss_tolerance=1.0)
        seg.drop(1)
        assert seg.drop_all() == 3
        assert seg.drop_all() == 0

    def test_zero_tolerance_drops_nothing(self):
        seg = make_segment(loss_tolerance=0.0)
        assert seg.drop(5) == 0
        assert seg.remaining_packets == seg.total_packets


def _reference_total(size_bytes):
    """Packet count as a property recomputed from the size on each read."""
    return max(1, -(-size_bytes // PACKET_PAYLOAD_BYTES))


def _reference_remaining_bytes(size_bytes, dropped):
    full = _reference_total(size_bytes)
    if full == 1:
        return 0 if dropped else size_bytes
    return int(round(size_bytes / full * (full - dropped)))


class TestPacketAccountingReference:
    @given(size_bytes=st.integers(1, 400_000),
           drops=st.lists(st.integers(0, 300), max_size=4),
           drop_all=st.booleans())
    def test_matches_reference_formulas(self, size_bytes, drops, drop_all):
        seg = make_segment(size_bytes=size_bytes, loss_tolerance=1.0)
        total = _reference_total(size_bytes)
        for n in drops:
            seg.drop(n)
        if drop_all:
            seg.drop_all()
        dropped = seg.dropped_packets
        assert 0 <= dropped <= total
        assert seg.total_packets == total
        assert seg.remaining_packets == total - dropped
        assert seg.remaining_bytes == _reference_remaining_bytes(
            size_bytes, dropped)
