"""Determinism pins for the dynamics kernel (PR 10).

Three contracts, in increasing strength:

* the zero-plan run is byte-identical to the static kernel — pinned to
  a golden digest captured on the seed ``run_scale`` before
  ``repro.dynamics`` existed, and cross-checked against a live
  ``run_scale`` call;
* cohort and per-player modes agree under full population dynamics;
* the same seed reproduces the same run — including the exact set of
  (tick, player) shed decisions, not just the aggregate counts.

Mode parity cannot see a change to membership itself: both modes run
the one driver hook that joins, parks and evicts. So each membership
branch (fallback pops, dry pools, refused home joins, parked evictions)
is pinned to a digest and its counts as well.

If an intentional change moves the golden, regenerate with::

    PYTHONPATH=src python - <<'EOF'
    from repro.core.cohort import ScaleSpec, run_scale
    print(run_scale(ScaleSpec(n_players=250, n_regions=3, n_ticks=40,
                              seed=2, faults="none")).digest)
    EOF
"""

import pytest

from repro.core.cohort import ScaleSpec, run_scale
from repro.dynamics import (
    ChurnSource,
    DynamicsBuilder,
    DynamicsKernel,
    DynamicsPlan,
    DynamicsSpec,
    preset_dynamics,
    run_dynamics,
)

#: run_scale(ScaleSpec(n_players=250, n_regions=3, n_ticks=40, seed=2,
#: faults="none")) on the seed kernel, before the dynamics layer.
GOLDEN_ZERO_PLAN = (
    "71d110b700d511692133e950b9f0b14eb81612779c269082e2561c82ed4a5608")

BASE = dict(n_players=250, n_regions=3, n_ticks=40, seed=2,
            faults="none")

#: Flash crowd over an outage at seed 1: evicted players are re-admitted
#: in the tick that evicts them.
GOLDEN_READMIT = (
    "6bb3bf71f85d7ed9048a3d013a31a3a7d80e629a2e1b165e8eaa585a37b29e4e")

#: Moves from region 1 into region 0 across the start of region 0's
#: outage, captured while migrations still ran on FailoverController
#: timeouts that fired mid-tick.
GOLDEN_LANDING = (
    "209dbacd82650b448e73dc47e846bb26a1320d53bf16c5c03dc3c78b0e475b87")


#: Churn over the mixed faults at a 0.05 crash rate, from a 60% start:
#: every tick advances a subset, and crashes hit it (88 crashes, 5
#: reconnects).
GOLDEN_CRASH_SUBSET = (
    "e69fc13e634cd8421b56baeb6092bc084601f7789f1c3c253097490739922747")

#: ``(preset, faults, strategy, initial_fraction, intensity)`` -> digest
#: and ``(joins, leaves, refused, shed, evicted, pool_exhausted)``,
#: captured while joins still popped one player at a time.
MEMBERSHIP_PINS = {
    "fallback-pops-rehomed": (
        ("flash-crowd", "none", "graceful", 0.6, 1),
        "ad27d80a27e9cc1c7deced6414806b853fbc171b98faf8f58ced8cfacd54685d",
        (105, 86, 15, 0, 0, 0)),
    "pools-run-dry": (
        ("flash-crowd", "none", "graceful", 1.0, 3),
        "abf1cb7229c83d59e987a651191fe017e777d86892db3e5ed26a51520f990aed",
        (23, 77, 0, 0, 0, 342)),
    "home-joins-refused": (
        ("launch-day", "none", "graceful", 1.0, 3),
        "2127a6dbb3169a55f5e130e8276ca5f31e5243cadac954ee8da927f184032785",
        (309, 543, 145, 87, 0, 20)),
    "evicted-parked-then-popped": (
        ("launch-day", "outage", "graceful", 1.0, 3),
        "339089c178a249f88a3d0b51c4896d9a3e5a2947d99d0a4dbce6b55493cd90d2",
        (365, 594, 73, 373, 6, 36)),
    "unmanaged-outage": (
        ("launch-day", "outage", "none", 1.0, 3),
        "3aa53b8242982a1c42295e15e5c1ccbc9a9586499db438aea13dd96c90d124eb",
        (372, 606, 0, 0, 0, 102)),
}


def _spec(mode="cohort", faults="none", preset="none", intensity=1,
          initial_fraction=1.0, strategy="graceful", seed=2,
          crash_rate_per_tick=None):
    base = ScaleSpec(mode=mode, crash_rate_per_tick=crash_rate_per_tick,
                     **{**BASE, "faults": faults, "seed": seed})
    plan = preset_dynamics(preset,
                           horizon_s=base.n_ticks * base.params.tick_s,
                           n_players=base.n_players,
                           n_regions=base.n_regions,
                           intensity=intensity, seed=seed)
    return DynamicsSpec(base=base, plan=plan,
                        initial_fraction=initial_fraction,
                        strategy=strategy)


class TestZeroPlanEquivalence:
    def test_empty_plan_matches_golden_digest(self):
        report = run_dynamics(_spec())
        assert report.scale.digest == GOLDEN_ZERO_PLAN
        assert report.invariants == []
        assert report.joins == 0 and report.leaves == 0
        assert report.initial_active == BASE["n_players"]

    def test_empty_plan_matches_live_static_kernel(self):
        """Armed-but-empty dynamics never perturbs the base kernel,
        whatever the fault preset underneath."""
        for faults in ("none", "mixed"):
            base = ScaleSpec(mode="cohort", **{**BASE, "faults": faults})
            static = run_scale(base)
            dyn = run_dynamics(DynamicsSpec(base=base,
                                            plan=DynamicsPlan(),
                                            strategy="none"))
            assert dyn.scale.digest == static.digest, faults

    def test_strategy_choice_is_invisible_without_overload(self):
        """graceful vs none only diverges past the watermarks; the
        empty plan never crosses them."""
        a = run_dynamics(_spec(strategy="graceful"))
        b = run_dynamics(_spec(strategy="none"))
        assert a.scale.digest == b.scale.digest == GOLDEN_ZERO_PLAN


def assert_modes_agree(cohort, per_player):
    assert cohort.scale.digest == per_player.scale.digest
    assert cohort.invariants == [] and per_player.invariants == []
    assert (cohort.joins, cohort.leaves, cohort.refused,
            cohort.shed, cohort.evicted, cohort.moves) == (
        per_player.joins, per_player.leaves, per_player.refused,
        per_player.shed, per_player.evicted, per_player.moves)


class TestModeParity:
    @pytest.mark.parametrize("preset,faults", [
        ("churn", "none"),
        ("churn", "mixed"),
        ("launch-day", "none"),
    ])
    def test_cohort_equals_per_player(self, preset, faults):
        cohort = run_dynamics(_spec("cohort", faults, preset,
                                    initial_fraction=0.6))
        per_player = run_dynamics(_spec("per-player", faults, preset,
                                        initial_fraction=0.6))
        assert_modes_agree(cohort, per_player)

    @pytest.mark.parametrize("faults", ["none", "mixed"])
    def test_full_population_then_subset(self, faults):
        """Everyone plays the first 10 ticks (the cohort's full-population
        advance), then churn from 5 s on pools some players and the
        last 30 ticks advance a subset. No preset does this: churn's
        leaves at tick 0 run before the first advance."""
        plan = DynamicsPlan(sources=(ChurnSource(
            join_rate_per_s=4.0, mean_session_s=20.0, start_s=5.0,
            duration_s=5.0),))
        cohort, per_player = (
            run_dynamics(DynamicsSpec(
                base=ScaleSpec(mode=mode, **{**BASE, "faults": faults}),
                plan=plan, initial_fraction=1.0))
            for mode in ("cohort", "per-player"))
        assert cohort.leaves > 0
        assert_modes_agree(cohort, per_player)

    def test_readmission_in_the_eviction_tick(self):
        """A join can pop a player evicted earlier in the same hook; its
        pending chain event must advance it, not a second chain."""
        cohort, per_player = (
            run_dynamics(_spec(mode, faults="outage", preset="flash-crowd",
                               initial_fraction=1.0, seed=1))
            for mode in ("cohort", "per-player"))
        assert cohort.evicted > 0
        assert cohort.scale.digest == GOLDEN_READMIT
        assert_modes_agree(cohort, per_player)

    @pytest.mark.parametrize("mode", ["cohort", "per-player"])
    def test_moves_land_before_the_next_fault_transitions(self, mode):
        """Moves chosen at tick t land after every advance of t, and
        before tick t + 1's digest fold and fault transitions."""
        plan = (DynamicsBuilder(seed=2)
                .mobility(rate_per_s=4.0, from_region=1, to_region=0,
                          start_s=5.0, duration_s=3.0)
                .build())
        base = ScaleSpec(mode=mode, **{**BASE, "faults": "outage"})
        report = run_dynamics(DynamicsSpec(base=base, plan=plan,
                                           initial_fraction=1.0))
        assert report.moves > 0
        assert report.invariants == []
        assert report.scale.digest == GOLDEN_LANDING
        assert report.migration_max_s == 0.36 * base.params.tick_s

    def test_crash_heavy_subset(self):
        """Crashes on the subset path: the batch writes crash effects at
        the crashed positions' global ids, the reference run through
        ``_advance_one``."""
        reports = [run_dynamics(_spec(mode, "mixed", "churn",
                                      initial_fraction=0.6,
                                      crash_rate_per_tick=0.05))
                   for mode in ("cohort", "per-player")]
        for report in reports:
            assert report.scale.digest == GOLDEN_CRASH_SUBSET
            assert (report.scale.crashes, report.scale.reconnects) == (88, 5)
        assert_modes_agree(*reports)

    def test_mobility_migrates_in_both_modes(self):
        cohort = run_dynamics(_spec("cohort", preset="launch-day",
                                    initial_fraction=0.6))
        assert cohort.moves > 0
        assert cohort.migration_mean_s is not None


class TestMembershipPins:
    @pytest.mark.parametrize("branch", list(MEMBERSHIP_PINS))
    def test_digest_and_counts(self, branch):
        (preset, faults, strategy, fraction, intensity), digest, counts = (
            MEMBERSHIP_PINS[branch])
        r = run_dynamics(_spec("cohort", faults, preset, intensity,
                               initial_fraction=fraction,
                               strategy=strategy))
        assert r.scale.digest == digest
        assert (r.joins, r.leaves, r.refused, r.shed, r.evicted,
                r.pool_exhausted) == counts
        assert r.invariants == []

    def test_unfilled_joins_reach_the_text_report(self):
        r = run_dynamics(_spec(preset="flash-crowd", intensity=3,
                               initial_fraction=1.0))
        assert r.pool_exhausted == 342
        assert "0 evicted · 342 unfilled (pools dry)" in r.format_text()


class TestSeedDeterminism:
    def test_same_seed_same_shed_set(self):
        """Determinism of the overload ladder down to the identity of
        every shed session, not just the totals."""

        def run():
            k = DynamicsKernel(_spec("cohort", preset="flash-crowd",
                                     intensity=2,
                                     initial_fraction=0.5))
            report = k.run_dynamics()
            return report, list(k.shed_events)

        (r1, shed1), (r2, shed2) = run(), run()
        assert r1.scale.digest == r2.scale.digest
        assert shed1 == shed2
        assert r1.to_dict() == r2.to_dict()

    def test_different_seed_differs(self):
        a = run_dynamics(_spec("cohort", preset="churn",
                               initial_fraction=0.6, seed=2))
        b = run_dynamics(_spec("cohort", preset="churn",
                               initial_fraction=0.6, seed=3))
        assert a.scale.digest != b.scale.digest


class TestSatisfiedFraction:
    def test_counts_participants_only(self):
        """Players who never joined played no frames; they are neither
        satisfied nor unsatisfied, so both reports use the same
        denominator."""
        k = DynamicsKernel(_spec("cohort", preset="flash-crowd",
                                 initial_fraction=0.3))
        report = k.run_dynamics()
        frames = k.cohort.frames
        assert (frames == 0).any()  # some players never joined
        satisfied = (k.cohort.on_time_frames >= 0.8 * frames) & (frames > 0)
        assert report.scale.satisfied_fraction == (
            satisfied.sum() / (frames > 0).sum())
        assert (report.scale.satisfied_fraction
                == report.satisfied_active_fraction)

    def test_static_value_unchanged(self):
        # Every player of a static run plays every tick: participants
        # are the whole population. Value captured before the fraction
        # moved to a participants-only denominator.
        report = run_scale(ScaleSpec(n_players=300, n_regions=3,
                                     n_ticks=40, seed=1, faults="mixed"))
        assert report.satisfied_fraction == 0.9766666666666667
