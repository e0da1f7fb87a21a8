"""Tests for the supernode cooperation extension experiment."""

import pytest

from repro.experiments.cooperation import (
    CooperationConfig,
    simulate_cooperation,
)
from repro.experiments.parallel import run_named

FAST = CooperationConfig(duration_s=20.0, warmup_s=5.0)


class TestSimulateCooperation:
    def test_result_keys(self):
        out = simulate_cooperation(8, 0.25, False, seed=0, config=FAST)
        assert set(out) == {"continuity", "satisfied", "latency_s",
                            "offloads"}

    def test_balanced_load_fine_either_way(self):
        solo = simulate_cooperation(12, 0.25, False, seed=0, config=FAST)
        coop = simulate_cooperation(12, 0.25, True, seed=0, config=FAST)
        assert solo["satisfied"] > 0.9
        assert coop["satisfied"] > 0.9

    def test_skewed_load_needs_cooperation(self):
        solo = simulate_cooperation(16, 0.75, False, seed=0, config=FAST)
        coop = simulate_cooperation(16, 0.75, True, seed=0, config=FAST)
        assert coop["satisfied"] > solo["satisfied"]
        assert coop["offloads"] > 0

    def test_no_offloads_when_disabled(self):
        out = simulate_cooperation(16, 0.75, False, seed=0, config=FAST)
        assert out["offloads"] == 0

    def test_hot_fraction_validated(self):
        with pytest.raises(ValueError):
            simulate_cooperation(8, 1.5, True)

    def test_deterministic(self):
        a = simulate_cooperation(10, 0.6, True, seed=2, config=FAST)
        b = simulate_cooperation(10, 0.6, True, seed=2, config=FAST)
        assert a == b

    def test_watermarks_respected(self):
        """After rebalancing, no supernode should stay above the high
        watermark if a neighbour had headroom (checked indirectly via
        satisfaction staying high under full skew)."""
        coop = simulate_cooperation(12, 1.0, True, seed=0, config=FAST)
        assert coop["satisfied"] > 0.8


@pytest.fixture(scope="module")
def cooperation():
    return run_named("cooperation", 0.02, 42).series


class TestCooperationSweep:
    def test_series_shape(self, cooperation):
        assert [s.label for s in cooperation] == [
            "no cooperation", "with cooperation"]
        for s in cooperation:
            assert s.x == [0.25, 0.4, 0.55, 0.7, 0.85]

    def test_cooperation_dominates_at_skew(self, cooperation):
        solo, coop = cooperation
        assert coop.y[-1] >= solo.y[-1]
