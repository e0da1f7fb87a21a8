"""Unit tests for session dynamics."""

import numpy as np
import pytest

from repro.workload.sessions import (
    DEFAULT_ARRIVAL_RATE_PER_S,
    PLAYTIME_MIXTURE,
    sample_daily_play_s,
)


class TestPlaytimeMixture:
    def test_probabilities_sum_to_one(self):
        assert sum(p for p, _, _ in PLAYTIME_MIXTURE) == pytest.approx(1.0)

    def test_bands_match_paper(self):
        assert PLAYTIME_MIXTURE[0] == (0.5, 0.0, 2.0)
        assert PLAYTIME_MIXTURE[1] == (0.3, 2.0, 5.0)
        assert PLAYTIME_MIXTURE[2] == (0.2, 5.0, 24.0)

    def test_samples_within_day(self, rng):
        hours = sample_daily_play_s(rng, 10_000) / 3600.0
        assert hours.min() > 0.0
        assert hours.max() <= 24.0

    def test_band_fractions_match_paper(self, rng):
        hours = sample_daily_play_s(rng, 50_000) / 3600.0
        assert np.mean(hours <= 2.0) == pytest.approx(0.5, abs=0.02)
        assert np.mean((hours > 2.0) & (hours <= 5.0)) == pytest.approx(
            0.3, abs=0.02)
        assert np.mean(hours > 5.0) == pytest.approx(0.2, abs=0.02)

    def test_negative_count_rejected(self, rng):
        with pytest.raises(ValueError):
            sample_daily_play_s(rng, -1)

    def test_zero_count(self, rng):
        assert sample_daily_play_s(rng, 0).shape == (0,)


class TestArrivalRate:
    def test_default_rate_is_paper_value(self):
        assert DEFAULT_ARRIVAL_RATE_PER_S == 5.0
