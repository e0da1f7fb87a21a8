"""Tests for the Figure 8/9 QoE experiment drivers."""

import pytest

from repro.core.infrastructure import SessionConfig, SystemVariant
from repro.experiments.qoe import (
    continuity_vs_players,
    latency_point,
    run_variant,
)
from repro.experiments.scenarios import peersim_scenario

CFG = SessionConfig(duration_s=6.0, warmup_s=1.0)


@pytest.fixture(scope="module")
def scen():
    return peersim_scenario(scale=0.04, seed=5)


class TestRunVariant:
    def test_returns_result(self, scen):
        res = run_variant(scen, SystemVariant.CLOUDFOG_B, config=CFG)
        assert res.n_players == scen.n_online
        assert res.variant is SystemVariant.CLOUDFOG_B

    def test_n_online_override(self, scen):
        res = run_variant(scen, SystemVariant.CLOUD, n_online=10, config=CFG)
        assert res.n_players == 10


class TestFig8:
    def test_series_shape(self, scen):
        for v in (SystemVariant.CLOUD, SystemVariant.CLOUDFOG_B):
            assert latency_point(scen, v, config=CFG) > 0

    def test_fog_beats_cloud(self, scen):
        cloud = latency_point(scen, SystemVariant.CLOUD, config=CFG)
        fog = latency_point(scen, SystemVariant.CLOUDFOG_A, config=CFG)
        assert fog < cloud


class TestFig9:
    def test_series_per_variant(self, scen):
        series = continuity_vs_players(
            scen, player_counts=(10, 20),
            variants=(SystemVariant.CLOUD, SystemVariant.CLOUDFOG_B),
            config=CFG)
        assert [s.label for s in series] == ["Cloud", "CloudFog/B"]
        for s in series:
            assert s.x == [10.0, 20.0]
            assert all(0.0 <= y <= 1.0 for y in s.y)

    def test_fog_higher_continuity(self, scen):
        series = continuity_vs_players(
            scen, player_counts=(20,),
            variants=(SystemVariant.CLOUD, SystemVariant.CLOUDFOG_B),
            config=CFG)
        cloud, fog = series
        assert fog.y[0] > cloud.y[0]

