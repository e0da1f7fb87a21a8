"""Tests for the Figure 10/11 supernode-load experiment driver."""

import pytest

from repro.experiments.parallel import run_named
from repro.experiments.satisfaction import (
    FIG11_STRATEGIES,
    SupernodeLoadConfig,
    simulate_supernode_load,
)

# A small supernode (5 slots) puts the saturation knee around 10
# players, so short sessions exercise both regimes quickly.
FAST = SupernodeLoadConfig(duration_s=12.0, warmup_s=4.0, capacity_slots=5)


class TestSimulateSupernodeLoad:
    def test_result_keys(self):
        out = simulate_supernode_load(3, False, False, seed=0, config=FAST)
        assert set(out) == {"satisfied", "continuity", "latency_s",
                            "dropped_packets"}

    def test_light_load_fully_satisfied(self):
        out = simulate_supernode_load(3, False, False, seed=0, config=FAST)
        assert out["satisfied"] == 1.0
        assert out["continuity"] > 0.99

    def test_overload_collapses_baseline(self):
        out = simulate_supernode_load(20, False, False, seed=0, config=FAST)
        assert out["satisfied"] < 0.3

    def test_adaptation_rescues_overload(self):
        """Figure 10's claim at high load. (k=16 keeps the adaptation
        convergence transient inside this short session's warmup.)"""
        base = simulate_supernode_load(16, False, False, seed=0, config=FAST)
        adapt = simulate_supernode_load(16, True, False, seed=0, config=FAST)
        assert adapt["satisfied"] > base["satisfied"]

    def test_scheduling_rescues_overload(self):
        """Figure 11's claim at high load."""
        base = simulate_supernode_load(18, False, False, seed=0, config=FAST)
        sched = simulate_supernode_load(18, False, True, seed=0, config=FAST)
        assert sched["satisfied"] > base["satisfied"]
        assert sched["dropped_packets"] > 0

    def test_needs_players(self):
        with pytest.raises(ValueError):
            simulate_supernode_load(0, False, False)

    def test_deterministic(self):
        a = simulate_supernode_load(8, True, True, seed=3, config=FAST)
        b = simulate_supernode_load(8, True, True, seed=3, config=FAST)
        assert a == b


@pytest.fixture(scope="module")
def fig10():
    return run_named("fig10", 0.02, 42).series


class TestSatisfactionSweep:
    def test_fig10_shape(self, fig10):
        assert [s.label for s in fig10] == ["CloudFog/B", "CloudFog-adapt"]
        for s in fig10:
            assert s.x == [5.0, 10.0, 15.0, 20.0, 25.0]
            assert all(0.0 <= y <= 1.0 for y in s.y)

    def test_fig11_strategy_labels(self):
        assert FIG11_STRATEGIES[1][0] == "CloudFog-schedule"
        assert FIG11_STRATEGIES[1][2] is True

    def test_strategies_dominate_baseline_at_high_load(self, fig10):
        base, adapt = fig10
        for b, a in zip(base.y, adapt.y):
            assert a >= b
        assert adapt.y[-1] > base.y[-1]
