"""The dynamics plan DSL: values, serialization, presets, compilation."""

import numpy as np
import pytest

from repro.dynamics import (
    DYNAMICS_KINDS,
    DYNAMICS_PRESETS,
    ChurnSource,
    DiurnalLoad,
    DynamicsBuilder,
    DynamicsPlan,
    FlashCrowd,
    Mobility,
    compile_plan,
    preset_dynamics,
)


class TestSources:
    def test_validation_rejects_bad_rates(self):
        with pytest.raises(ValueError):
            ChurnSource(join_rate_per_s=-1.0, mean_session_s=10.0)
        with pytest.raises(ValueError):
            ChurnSource(join_rate_per_s=1.0, mean_session_s=0.0)
        with pytest.raises(ValueError):
            FlashCrowd(at_s=0.0, duration_s=0.0, region=0,
                       arrivals_per_s=5.0)
        with pytest.raises(ValueError):
            FlashCrowd(at_s=0.0, duration_s=1.0, region=0,
                       arrivals_per_s=5.0, shape="sawtooth")
        with pytest.raises(ValueError):
            DiurnalLoad(amplitude=1.5)
        with pytest.raises(ValueError):
            Mobility(rate_per_s=1.0, from_region=2, to_region=2)

    def test_kind_registry_is_complete(self):
        assert set(DYNAMICS_KINDS) == {
            "churn", "flash-crowd", "diurnal", "mobility"}

    def test_diurnal_multiplier_matches_sessions_curve(self):
        from repro.workload.sessions import diurnal_multiplier

        d = DiurnalLoad(day_length_s=100.0)
        for t in (0.0, 25.0, 50.0, 99.0):
            assert d.multiplier(t) == pytest.approx(
                float(diurnal_multiplier(t / 100.0 * 86_400.0)))
        assert d.peak_multiplier == 1.0 + d.amplitude


class TestPlan:
    def test_plan_rejects_non_sources(self):
        with pytest.raises(TypeError):
            DynamicsPlan(sources=("not a source",))

    def test_sources_are_start_ordered(self):
        late = FlashCrowd(at_s=9.0, duration_s=1.0, region=0,
                          arrivals_per_s=1.0)
        early = ChurnSource(join_rate_per_s=1.0, mean_session_s=5.0,
                            start_s=1.0)
        plan = DynamicsPlan(sources=(late, early))
        assert plan.sources == (early, late)

    def test_roundtrip_through_dict(self):
        plan = (DynamicsBuilder(seed=7)
                .churn(join_rate_per_s=3.0, mean_session_s=12.0)
                .flash_crowd(at_s=4.0, duration_s=2.0, region=1,
                             arrivals_per_s=50.0, shape="spike")
                .diurnal(day_length_s=60.0)
                .mobility(rate_per_s=0.5, from_region=0, to_region=1)
                .build())
        again = DynamicsPlan.from_dict(plan.to_dict())
        assert again == plan
        assert again.to_dict() == plan.to_dict()

    def test_from_dict_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            DynamicsPlan.from_dict(
                {"seed": 0, "sources": [{"kind": "meteor-strike"}]})

    def test_from_dict_rejects_supernode_departures(self):
        # The cohort compiler never realised them; the churn experiment
        # takes its departure rate directly.
        with pytest.raises(ValueError, match="departures"):
            DynamicsPlan.from_dict({"seed": 0, "sources": [
                {"kind": "departures", "rate_per_minute": 2.0}]})

    def test_empty_plan_helpers(self):
        plan = DynamicsPlan()
        assert plan.is_empty
        assert len(plan) == 0
        assert plan.rate_multiplier(3.0) == 1.0
        assert plan.peak_rate_multiplier() == 1.0

    def test_random_plans_are_reproducible(self):
        a = DynamicsPlan.random(seed=11, horizon_s=30.0, n_sources=5)
        b = DynamicsPlan.random(seed=11, horizon_s=30.0, n_sources=5)
        assert a == b
        assert a != DynamicsPlan.random(seed=12, horizon_s=30.0,
                                        n_sources=5)


class TestPresets:
    @pytest.mark.parametrize("name", DYNAMICS_PRESETS)
    def test_every_preset_builds(self, name):
        plan = preset_dynamics(name, horizon_s=10.0, n_players=1000,
                               n_regions=4, intensity=1, seed=3)
        assert plan.is_empty == (name == "none")

    def test_intensity_zero_is_the_empty_plan(self):
        plan = preset_dynamics("flash-crowd", horizon_s=10.0,
                               n_players=1000, intensity=0)
        assert plan.is_empty

    def test_unknown_preset_raises(self):
        with pytest.raises(ValueError):
            preset_dynamics("black-friday", horizon_s=10.0,
                            n_players=1000)


class TestCompile:
    def test_empty_plan_compiles_to_nothing(self):
        out = compile_plan(DynamicsPlan(), n_ticks=20, tick_s=0.5,
                           n_regions=3)
        assert out.is_empty
        assert out.total_joins() == 0
        assert not out.moves
        assert not np.any(out.leave_prob)

    def test_compilation_is_a_pure_function(self):
        plan = preset_dynamics("launch-day", horizon_s=10.0,
                               n_players=2000, n_regions=4, seed=9)
        a = compile_plan(plan, n_ticks=20, tick_s=0.5, n_regions=4)
        b = compile_plan(plan, n_ticks=20, tick_s=0.5, n_regions=4)
        assert np.array_equal(a.home_joins, b.home_joins)
        assert np.array_equal(a.region_joins, b.region_joins)
        assert np.array_equal(a.leave_prob, b.leave_prob)
        assert a.moves == b.moves

    def test_flash_crowd_targets_its_region(self):
        plan = (DynamicsBuilder(seed=2)
                .flash_crowd(at_s=2.0, duration_s=4.0, region=1,
                             arrivals_per_s=100.0)
                .build())
        out = compile_plan(plan, n_ticks=20, tick_s=0.5, n_regions=3)
        assert out.region_joins[:, 1].sum() > 0
        assert out.region_joins[:, 0].sum() == 0
        assert out.region_joins[:, 2].sum() == 0
        # Surge sessions drain only from the surge region.
        assert np.any(out.leave_prob[:, 1] > 0)
        assert not np.any(out.leave_prob[:, 0] > 0)

    def test_mobility_region_bounds_checked(self):
        plan = (DynamicsBuilder(seed=2)
                .mobility(rate_per_s=1.0, from_region=0, to_region=7)
                .build())
        with pytest.raises(ValueError):
            compile_plan(plan, n_ticks=10, tick_s=0.5, n_regions=3)

    def test_diurnal_modulates_join_totals(self):
        def joins(sources):
            plan = DynamicsPlan(sources=sources, seed=5)
            return compile_plan(plan, n_ticks=40, tick_s=0.5,
                                n_regions=2).total_joins

        churn = ChurnSource(join_rate_per_s=50.0, mean_session_s=30.0)
        flat = joins((churn,))
        # Peak hour mapped onto the start of the horizon: more joins
        # early, and a different total than the flat plan.
        peaked = joins((churn, DiurnalLoad(peak_hour=0.0,
                                           day_length_s=20.0)))
        assert peaked != flat
