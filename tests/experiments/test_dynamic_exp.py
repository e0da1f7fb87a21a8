"""Tests for the dynamic (join/leave) population simulation."""

import numpy as np
import pytest

from repro.core.infrastructure import SessionConfig, SystemVariant
from repro.dynamics.plan import DiurnalLoad, DynamicsPlan
from repro.experiments.dynamic import DynamicSimulation, run_dynamic
from repro.experiments.scenarios import peersim_scenario


def diurnal_plan(horizon_s):
    """One evening-peaked day compressed into the horizon."""
    return DynamicsPlan(sources=(DiurnalLoad(day_length_s=horizon_s),))


@pytest.fixture(scope="module")
def pop():
    return peersim_scenario(scale=0.15, seed=6).build()


@pytest.fixture(scope="module")
def result(pop):
    return run_dynamic(pop, SystemVariant.CLOUDFOG_B, horizon_s=60.0)


class TestDynamicRun:
    def test_joins_and_leaves_balance(self, result):
        assert result.joins > 0
        # Sessions are capped at the horizon, so everyone who joined
        # also left by the end of the run.
        assert result.leaves == result.joins

    def test_online_count_ramps_up(self, result):
        assert result.online[0] <= max(result.online)
        assert max(result.online) > 3

    def test_fog_serves_majority(self, result):
        later = result.fog_fraction[len(result.fog_fraction) // 2:]
        assert np.mean(later) > 0.5

    def test_qoe_collected(self, result):
        assert len(result.continuities) == result.leaves
        assert all(0.0 <= c <= 1.0 for c in result.continuities)
        assert 0.0 <= result.satisfied_fraction <= 1.0

    def test_slot_utilization_bounded(self, result):
        assert all(0.0 <= u <= 1.0 for u in result.slot_utilization)

    def test_series_export(self, result):
        series = result.series()
        labels = [s.label for s in series]
        assert labels == ["online players", "fog-served fraction",
                          "slot utilization"]
        for s in series:
            assert len(s.x) == len(result.times_s)

    def test_cloud_variant_runs(self, pop):
        res = run_dynamic(pop, SystemVariant.CLOUD, horizon_s=30.0)
        assert res.joins > 0
        assert all(f == 0.0 for f in res.fog_fraction)

    def test_edgecloud_rejected(self, pop):
        with pytest.raises(ValueError):
            DynamicSimulation(pop, SystemVariant.EDGECLOUD)

    def test_slots_released_on_leave(self, pop):
        sim = DynamicSimulation(pop, SystemVariant.CLOUDFOG_B,
                                horizon_s=40.0)
        sim.run()
        # Every session ended, so every slot must be free again.
        assert sim._sn_service.load.sum() == 0

    def test_supernode_action_goes_through_nearest_datacenter(self, pop):
        """l_r's upload leg ends at the datacenter the assignment chose
        (the player's nearest), not at datacenter 0."""
        sim = DynamicSimulation(pop, SystemVariant.CLOUDFOG_B,
                                horizon_s=20.0)
        lat = pop.latency
        chosen, used = [], []
        assign = sim._sn_service.assign
        delay = sim.cloud.action_to_update_delay_s

        def spy_assign(host, latency_req_s):
            res = assign(host, latency_req_s)
            if res.uses_supernode:
                chosen.append(lat.one_way_s(host, res.datacenter_host_id))
            return res

        def spy_delay(upstream_s, cloud_to_site_s):
            used.append(upstream_s)
            return delay(upstream_s, cloud_to_site_s)

        sim._sn_service.assign = spy_assign
        sim.cloud.action_to_update_delay_s = spy_delay
        sim.run()
        assert chosen
        assert used == chosen

    def test_deterministic(self, pop):
        a = run_dynamic(pop, SystemVariant.CLOUDFOG_B, horizon_s=25.0)
        b = run_dynamic(pop, SystemVariant.CLOUDFOG_B, horizon_s=25.0)
        assert a.joins == b.joins
        assert a.online == b.online
        assert a.continuities == b.continuities

    def test_diurnal_arrivals_concentrate_in_evening(self, pop):
        """With the compressed-day diurnal curve, the back half of the
        horizon (afternoon/evening) sees more joins than the front
        (night/morning trough sits in the first half)."""
        sim = DynamicSimulation(pop, SystemVariant.CLOUDFOG_B,
                                horizon_s=60.0, plan=diurnal_plan(60.0))
        res = sim.run()
        assert res.joins > 0
        # Peak hour 20:00 maps to t = 50 s of 60; online count near the
        # end should exceed the early-morning trough samples.
        assert res.online[-1] >= res.online[0]

    def test_diurnal_same_daily_volume(self, pop):
        flat = run_dynamic(pop, SystemVariant.CLOUDFOG_B, horizon_s=60.0)
        sim = DynamicSimulation(pop, SystemVariant.CLOUDFOG_B,
                                horizon_s=60.0, plan=diurnal_plan(60.0))
        diurnal = sim.run()
        # Thinning preserves the daily average rate (Poisson noise aside).
        assert diurnal.joins == pytest.approx(flat.joins, rel=0.5)


def test_dynamic_task_carries_no_parameter():
    # DynamicSimulation reads no session duration, so the spec's one
    # task has nothing to pass and its cache key holds no dead knob.
    from repro.experiments.specs import get_spec
    (task,) = get_spec("dynamic").decompose(0.02, 11)
    assert task.params == {}
