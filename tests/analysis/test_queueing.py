"""Tests for the M/D/1 model, including DES cross-validation."""

import numpy as np
import pytest

from repro.analysis.queueing import (
    MD1Model,
    mean_initial_bitrate_bps,
    predicted_queue_delay_s,
    saturation_players,
    supernode_uplink_model,
)
from repro.workload.capacities import SLOT_BANDWIDTH_BPS


class TestMD1Math:
    def test_validation(self):
        with pytest.raises(ValueError):
            MD1Model(-1.0, 1.0)
        with pytest.raises(ValueError):
            MD1Model(1.0, 0.0)

    def test_utilization(self):
        assert MD1Model(10.0, 0.05).utilization == pytest.approx(0.5)

    def test_pollaczek_khinchine(self):
        """W = ρ E[S] / (2 (1 - ρ)) at ρ = 0.5."""
        m = MD1Model(10.0, 0.05)
        assert m.mean_wait_s == pytest.approx(0.5 * 0.05 / (2 * 0.5))

    def test_unstable_wait_infinite(self):
        m = MD1Model(30.0, 0.05)  # rho = 1.5
        assert not m.stable
        assert m.mean_wait_s == float("inf")

    def test_sojourn(self):
        m = MD1Model(10.0, 0.05)
        assert m.mean_sojourn_s == pytest.approx(m.mean_wait_s + 0.05)

    def test_wait_grows_with_load(self):
        waits = [MD1Model(lam, 0.05).mean_wait_s
                 for lam in (2.0, 10.0, 18.0)]
        assert waits == sorted(waits)

    def test_quantile(self):
        m = MD1Model(10.0, 0.05)
        assert m.wait_quantile_s(0.5) < m.wait_quantile_s(0.95)
        with pytest.raises(ValueError):
            m.wait_quantile_s(1.0)


class TestSupernodeModel:
    def test_mean_initial_bitrate(self):
        # Ladder initial levels = the five ladder bitrates; mean 920 kbps.
        assert mean_initial_bitrate_bps() == pytest.approx(920_000.0)

    def test_saturation_point(self):
        """A 10-slot supernode (18 Mbps) saturates near 19.6 players."""
        uplink = 10 * SLOT_BANDWIDTH_BPS
        assert saturation_players(uplink) == pytest.approx(19.57, abs=0.1)

    def test_model_consistency(self):
        model = supernode_uplink_model(10, 18e6)
        assert model.utilization == pytest.approx(
            10 * 920_000.0 / 18e6, rel=0.01)

    def test_predicted_delay_monotone(self):
        uplink = 18e6
        delays = [predicted_queue_delay_s(k, uplink) for k in (5, 10, 15)]
        assert delays == sorted(delays)


class TestDesCrossValidation:
    """The simulator must agree with queueing theory."""

    def test_knee_position_matches_theory(self):
        """DES satisfaction collapses within ~15 % of the predicted k*."""
        from repro.experiments.satisfaction import (
            SupernodeLoadConfig,
            simulate_supernode_load,
        )
        cfg = SupernodeLoadConfig(duration_s=20.0, warmup_s=6.0,
                                  capacity_slots=10)
        uplink = cfg.capacity_slots * SLOT_BANDWIDTH_BPS
        k_star = saturation_players(uplink)

        below = int(np.floor(k_star * 0.8))
        above = int(np.ceil(k_star * 1.25))
        sat_below = np.mean([
            simulate_supernode_load(below, False, False, seed=s,
                                    config=cfg)["satisfied"]
            for s in (0, 1)])
        sat_above = np.mean([
            simulate_supernode_load(above, False, False, seed=s,
                                    config=cfg)["satisfied"]
            for s in (0, 1)])
        assert sat_below > 0.8, "stable regime must satisfy players"
        assert sat_above < 0.2, "unstable regime must collapse"

    @staticmethod
    def _measure_queue_wait(n_players, uplink_bps, duration_s=30.0,
                            seed=0):
        """Controlled micro-DES: identical players, no render delay, no
        propagation — the measured sojourn minus the service time is the
        pure queueing delay."""
        from repro.core.server import StreamingServer
        from repro.sim.engine import Environment
        from repro.streaming.encoder import SegmentEncoder
        from repro.streaming.video import SEGMENT_DURATION_S

        env = Environment()
        server = StreamingServer(env, 0, uplink_bps, render_delay_s=0.0)
        waits = []
        game_req = 0.110  # level 5: every encoder at 1800 kbps
        seg_bytes = SegmentEncoder(0, game_req, 0.0).quality.segment_bytes()
        service = 8.0 * seg_bytes / uplink_bps

        def deliver(segment, now_s, waits=waits):
            waits.append(now_s - segment.state_ready_s - service)

        rng = np.random.default_rng(seed)
        for pid in range(n_players):
            enc = SegmentEncoder(pid, game_req, 0.0)
            server.attach_player(pid, enc, deliver, 0.0)

        def player_tick(pid):
            if env.now < duration_s:
                server.render_and_send(pid, env.now)
                env.call_later(SEGMENT_DURATION_S, player_tick, pid)

        for pid in range(n_players):
            env.call_later(float(rng.uniform(0, SEGMENT_DURATION_S)),
                           player_tick, pid)
        env.run(until=duration_s + 2.0)
        return float(np.mean(waits)), service

    def test_utilization_matches_theory(self):
        """Measured uplink busy fraction equals ρ in the stable regime."""
        uplink = 18e6
        n = 12
        from repro.streaming.video import SEGMENT_DURATION_S
        _, service = self._measure_queue_wait(n, uplink, duration_s=20.0)
        rho_theory = n * service / SEGMENT_DURATION_S
        model = supernode_uplink_model(n, uplink, bitrate_bps=1_800_000.0)
        assert model.utilization == pytest.approx(rho_theory, rel=0.01)

    def test_queue_wait_bounded_by_md1(self):
        """Phase-randomized periodic arrivals are *less* bursty than
        Poisson, so the measured wait must stay at or below the M/D/1
        prediction (within noise) and grow with load."""
        uplink = 36e6  # room for many 1800 kbps streams
        waits = []
        for n in (6, 12, 16):
            observed, _ = self._measure_queue_wait(n, uplink)
            model = supernode_uplink_model(
                n, uplink, bitrate_bps=1_800_000.0)
            assert observed <= model.mean_wait_s * 1.5 + 1e-4, (
                f"n={n}: DES wait {observed} vs M/D/1 {model.mean_wait_s}")
            waits.append(observed)
        assert waits[0] <= waits[-1] + 1e-4
