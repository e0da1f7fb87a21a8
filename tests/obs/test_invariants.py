"""Invariant checkers must pass clean traces and fail corrupted ones.

Every checker gets a deliberately corrupted trace that must raise
:class:`InvariantViolation` — a checker that cannot catch its own
violation class is dead code.
"""

import pytest

from repro.obs.invariants import (
    LADDER_MAX_LEVEL,
    LADDER_MIN_LEVEL,
    ClockMonotonicityChecker,
    EdfOrderChecker,
    InvariantViolation,
    PacketConservationChecker,
    PlaybackNonNegativeChecker,
    QualityLadderChecker,
    default_checkers,
    run_checkers,
)
from repro.obs.trace import TraceEvent


def ev(t, component, kind, **data):
    return TraceEvent(t, component, kind, data)


def ledger(p_in, p_out, p_drop, p_pend):
    return dict(p_in=p_in, p_out=p_out, p_drop=p_drop, p_pend=p_pend)


class TestPacketConservation:
    def test_clean_ledger_passes(self):
        events = [
            ev(0.0, "server:1", "buffer.enqueue", disc="edf", deadline=1.0,
               **ledger(5, 0, 0, 5)),
            ev(0.1, "server:1", "buffer.drop", disc="edf",
               **ledger(5, 0, 2, 3)),
            ev(0.2, "server:1", "buffer.dequeue", disc="edf", deadline=1.0,
               **ledger(5, 3, 2, 0)),
        ]
        run_checkers(events, [PacketConservationChecker()])

    def test_lost_packet_fails(self):
        # One packet vanished: in=5 but out+drop+pend only covers 4.
        events = [ev(0.0, "server:1", "buffer.enqueue",
                     **ledger(5, 0, 0, 4))]
        with pytest.raises(InvariantViolation, match="conservation"):
            run_checkers(events, [PacketConservationChecker()])

    def test_conjured_packet_fails(self):
        # A packet appeared from nowhere: out+pend exceeds in.
        events = [ev(0.0, "server:1", "buffer.dequeue",
                     **ledger(5, 4, 0, 2))]
        with pytest.raises(InvariantViolation):
            run_checkers(events, [PacketConservationChecker()])

    def test_negative_pending_fails(self):
        events = [ev(0.0, "server:1", "buffer.dequeue",
                     **ledger(5, 6, 0, -1))]
        with pytest.raises(InvariantViolation, match="negative pending"):
            run_checkers(events, [PacketConservationChecker()])

    def test_non_buffer_events_ignored(self):
        run_checkers([ev(0.0, "x", "server.send", bytes=10)],
                     [PacketConservationChecker()])


class TestEdfOrder:
    def test_in_order_dequeues_pass(self):
        events = [
            ev(0.0, "s", "buffer.enqueue", disc="edf", deadline=2.0,
               **ledger(1, 0, 0, 1)),
            ev(0.0, "s", "buffer.enqueue", disc="edf", deadline=1.0,
               **ledger(2, 0, 0, 2)),
            ev(0.1, "s", "buffer.dequeue", disc="edf", deadline=1.0,
               **ledger(2, 1, 0, 1)),
            ev(0.2, "s", "buffer.dequeue", disc="edf", deadline=2.0,
               **ledger(2, 2, 0, 0)),
        ]
        run_checkers(events, [EdfOrderChecker()])

    def test_out_of_order_dequeue_fails(self):
        # Deadline 2.0 is dequeued while 1.0 still queues: EDF violated.
        events = [
            ev(0.0, "s", "buffer.enqueue", disc="edf", deadline=2.0),
            ev(0.0, "s", "buffer.enqueue", disc="edf", deadline=1.0),
            ev(0.1, "s", "buffer.dequeue", disc="edf", deadline=2.0),
        ]
        with pytest.raises(InvariantViolation, match="EDF order"):
            run_checkers(events, [EdfOrderChecker()])

    def test_dequeue_without_enqueue_fails(self):
        events = [ev(0.0, "s", "buffer.dequeue", disc="edf", deadline=1.0)]
        with pytest.raises(InvariantViolation, match="empty"):
            run_checkers(events, [EdfOrderChecker()])

    def test_fifo_buffers_are_exempt(self):
        # The FIFO baseline is *expected* to dequeue past deadlines in
        # arrival order — the checker only audits deadline discipline.
        events = [
            ev(0.0, "s", "buffer.enqueue", disc="fifo", deadline=2.0),
            ev(0.0, "s", "buffer.enqueue", disc="fifo", deadline=1.0),
            ev(0.1, "s", "buffer.dequeue", disc="fifo", deadline=2.0),
        ]
        run_checkers(events, [EdfOrderChecker()])

    def test_components_tracked_independently(self):
        events = [
            ev(0.0, "s1", "buffer.enqueue", disc="edf", deadline=1.0),
            ev(0.0, "s2", "buffer.enqueue", disc="edf", deadline=5.0),
            ev(0.1, "s2", "buffer.dequeue", disc="edf", deadline=5.0),
            ev(0.2, "s1", "buffer.dequeue", disc="edf", deadline=1.0),
        ]
        run_checkers(events, [EdfOrderChecker()])


class TestPlaybackNonNegative:
    def test_nonnegative_levels_pass(self):
        events = [
            ev(0.0, "p", "playback.arrival", buffered_s=0.1, packets=4),
            ev(0.5, "p", "playback.stall", stall_s=0.2),
        ]
        run_checkers(events, [PlaybackNonNegativeChecker()])

    def test_negative_buffer_fails(self):
        events = [ev(0.0, "p", "playback.arrival", buffered_s=-0.01)]
        with pytest.raises(InvariantViolation, match="negative playback"):
            run_checkers(events, [PlaybackNonNegativeChecker()])

    def test_negative_stall_fails(self):
        events = [ev(0.0, "p", "playback.stall", stall_s=-0.5)]
        with pytest.raises(InvariantViolation, match="negative stall"):
            run_checkers(events, [PlaybackNonNegativeChecker()])


class TestQualityLadder:
    def test_all_ladder_levels_pass(self):
        events = [ev(float(i), "p", "encoder.level", level=lvl)
                  for i, lvl in enumerate(
                      range(LADDER_MIN_LEVEL, LADDER_MAX_LEVEL + 1))]
        run_checkers(events, [QualityLadderChecker()])

    @pytest.mark.parametrize("bad_level", [
        LADDER_MIN_LEVEL - 1, LADDER_MAX_LEVEL + 1, 0, -3, 99])
    def test_out_of_ladder_level_fails(self, bad_level):
        events = [ev(0.0, "p", "encoder.level", level=bad_level)]
        with pytest.raises(InvariantViolation, match="outside ladder"):
            run_checkers(events, [QualityLadderChecker()])

    def test_bounds_match_streaming_ladder(self):
        # The obs package keeps the bounds literal to stay
        # import-cycle-free; this is the tripwire that keeps the copies
        # honest if the ladder ever changes.
        from repro.streaming import video
        assert LADDER_MIN_LEVEL == video.MIN_LEVEL
        assert LADDER_MAX_LEVEL == video.MAX_LEVEL


class TestClockMonotonicity:
    def test_monotone_clock_passes(self):
        events = [ev(t, "c", "k") for t in (0.0, 0.0, 0.5, 1.5)]
        run_checkers(events, [ClockMonotonicityChecker()])

    def test_backwards_clock_fails(self):
        events = [ev(1.0, "c", "k"), ev(0.5, "c", "k")]
        with pytest.raises(InvariantViolation, match="backwards"):
            run_checkers(events, [ClockMonotonicityChecker()])


class TestSessionReset:
    def test_session_start_resets_clock(self):
        # Back-to-back sessions each restart at t=0; the reset must keep
        # one recorder usable across a whole figure's variants.
        events = [
            ev(5.0, "c", "k"),
            ev(0.0, "session", "session.start", variant="cloud"),
            ev(0.0, "c", "k"),
        ]
        run_checkers(events, [ClockMonotonicityChecker()])

    def test_session_start_resets_edf_heaps(self):
        events = [
            ev(0.0, "s", "buffer.enqueue", disc="edf", deadline=1.0),
            ev(0.0, "session", "session.start", variant="cloud"),
            # The pre-reset enqueue must not leak into the new session.
            ev(0.0, "s", "buffer.enqueue", disc="edf", deadline=5.0),
            ev(0.1, "s", "buffer.dequeue", disc="edf", deadline=5.0),
        ]
        run_checkers(events, [EdfOrderChecker()])


class TestHarness:
    def test_default_checkers_cover_all_five(self):
        names = {c.name for c in default_checkers()}
        assert names == {
            "packet-conservation", "edf-order", "playback-nonnegative",
            "quality-ladder", "clock-monotonicity"}

    def test_violation_message_names_checker_and_event(self):
        events = [ev(3.0, "server:7", "buffer.dequeue", disc="edf",
                     deadline=1.0)]
        with pytest.raises(InvariantViolation) as exc:
            run_checkers(events, [EdfOrderChecker()])
        msg = str(exc.value)
        assert "edf-order" in msg
        assert "server:7" in msg
        assert "t=3.0" in msg

    def test_run_checkers_returns_checkers_on_clean_trace(self):
        out = run_checkers([ev(0.0, "c", "k")])
        assert len(out) == len(default_checkers())
