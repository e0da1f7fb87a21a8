"""Tests for the diurnal arrival modulation."""

import numpy as np
import pytest

from repro.workload.sessions import (
    DIURNAL_AMPLITUDE,
    DIURNAL_PEAK_HOUR,
    diurnal_multiplier,
)


class TestDiurnalMultiplier:
    def test_peak_at_peak_hour(self):
        peak = diurnal_multiplier(DIURNAL_PEAK_HOUR * 3600.0)
        assert peak == pytest.approx(1.0 + DIURNAL_AMPLITUDE)

    def test_trough_opposite_peak(self):
        trough_hour = (DIURNAL_PEAK_HOUR + 12.0) % 24.0
        trough = diurnal_multiplier(trough_hour * 3600.0)
        assert trough == pytest.approx(1.0 - DIURNAL_AMPLITUDE)

    def test_mean_over_day_is_one(self):
        ts = np.linspace(0, 86_400.0, 10_000, endpoint=False)
        values = [diurnal_multiplier(t) for t in ts]
        assert np.mean(values) == pytest.approx(1.0, abs=0.01)

    def test_periodic(self):
        assert diurnal_multiplier(3600.0) == pytest.approx(
            diurnal_multiplier(3600.0 + 86_400.0))

    def test_always_positive(self):
        for t in np.linspace(0, 86_400.0, 200):
            assert diurnal_multiplier(t) > 0
