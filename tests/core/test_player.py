"""Unit tests for the player endpoint (receive side + feedback)."""

import pytest

from repro.core.adaptation import AdaptationParams
from repro.core.player import PlayerEndpoint
from repro.core.server import StreamingServer
from repro.streaming.encoder import SegmentEncoder
from repro.workload.games import GAMES

RATE = 20e6


def build(env, game=GAMES[4], use_adaptation=True, feedback_delay=0.005,
          stats_after=0.0, params=None):
    server = StreamingServer(env, 0, RATE)
    encoder = SegmentEncoder(1, game.latency_req_s, game.loss_tolerance)
    endpoint = PlayerEndpoint(
        env, 1, game, server,
        feedback_delay_s=feedback_delay,
        use_adaptation=use_adaptation,
        adaptation_params=params or AdaptationParams(hysteresis=2),
        stats_after_s=stats_after,
    )
    server.attach_player(1, encoder, endpoint.deliver, 0.005)
    return server, encoder, endpoint


def segment_for(encoder, action, now, state_ready=None):
    return encoder.encode_segment(action, now, state_ready_s=state_ready)


class TestDelivery:
    def test_stats_accumulate(self, env):
        _, enc, ep = build(env, use_adaptation=False)
        seg = segment_for(enc, 0.0, 0.0)
        ep.deliver(seg, 0.05)
        assert ep.stats.segments_received == 1
        assert ep.stats.packets_on_time == seg.total_packets

    def test_lost_segment_counted(self, env):
        _, enc, ep = build(env, use_adaptation=False)
        seg = segment_for(enc, 0.0, 0.0)
        seg.drop_all()
        ep.deliver(seg, 0.05)
        assert ep.stats.packets_dropped == seg.total_packets
        assert ep.stats.segments_received == 0

    def test_warmup_excluded(self, env):
        _, enc, ep = build(env, use_adaptation=False, stats_after=5.0)
        early = segment_for(enc, 1.0, 1.0)
        ep.deliver(early, 1.05)
        assert ep.stats.segments_received == 0
        late = segment_for(enc, 6.0, 6.0)
        ep.deliver(late, 6.05)
        assert ep.stats.segments_received == 1

    def test_satisfaction_uses_game_tolerance(self, env):
        game = GAMES[0]  # loss tolerance 0.30
        _, enc, ep = build(env, game=game, use_adaptation=False)
        for k in range(20):
            seg = segment_for(enc, k * 0.1, k * 0.1)
            seg.drop(int(seg.total_packets * 0.2))
            ep.deliver(seg, k * 0.1 + 0.01)
        assert ep.is_satisfied()


class TestFeedback:
    def test_miss_streak_lowers_encoder_level(self, env):
        game = GAMES[4]
        server, enc, ep = build(
            env, game=game,
            params=AdaptationParams(hysteresis=2, up_hysteresis=50))
        start = enc.level

        def late(k):
            seg = segment_for(enc, env.now, env.now)
            # deliver way past the deadline
            ep.deliver(seg, env.now + game.latency_req_s + 0.05)
            if k < 3:
                env.call_later(0.1, late, k + 1)

        env.call_later(0.0, late, 0)
        env.run(until=2.0)
        assert enc.level < start

    def test_feedback_takes_delay(self, env):
        game = GAMES[4]
        server, enc, ep = build(
            env, game=game, feedback_delay=0.5,
            params=AdaptationParams(hysteresis=1, up_hysteresis=99))
        seg = segment_for(enc, 0.0, 0.0)

        env.call_later(0.0, ep.deliver, seg,
                       game.latency_req_s + 1.0)  # missed
        env.run(until=0.3)
        level_before = enc.level
        env.run(until=2.0)
        assert enc.level == level_before - 1

    def test_feedback_debounced(self, env):
        """Multiple decisions while one is in flight produce one step."""
        game = GAMES[4]
        server, enc, ep = build(
            env, game=game, feedback_delay=1.0,
            params=AdaptationParams(hysteresis=1, up_hysteresis=99))
        start = enc.level

        def late(k):
            seg = segment_for(enc, env.now, env.now)
            ep.deliver(seg, env.now + game.latency_req_s + 0.05)
            if k < 2:
                env.call_later(0.01, late, k + 1)

        env.call_later(0.0, late, 0)
        env.run(until=5.0)
        assert enc.level == start - 1

    def test_no_adaptation_no_feedback(self, env):
        game = GAMES[4]
        server, enc, ep = build(env, game=game, use_adaptation=False)
        start = enc.level

        def late(k):
            seg = segment_for(enc, env.now, env.now)
            ep.deliver(seg, env.now + 1.0)
            if k < 9:
                env.call_later(0.1, late, k + 1)

        env.call_later(0.0, late, 0)
        env.run(until=5.0)
        assert enc.level == start
