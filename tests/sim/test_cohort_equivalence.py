"""Cohort-kernel equivalence: vectorised and per-player runs are one trace.

The cohort kernel's whole claim is that batching players is an
*optimisation*, not an approximation: for the same spec, the cohort run
(one batch advance per tick) and the per-player reference run (one event
chain per player) must produce byte-identical trace digests — across
seeds, region counts, fault presets, run lengths and event queues. The
digest rests on one kernel-level equivalence, checked directly by a
Hypothesis property: from any cohort state, ``PlayerCohort.advance``
over a batch writes exactly what ``_advance_one`` writes for each of
its players.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cohort import (
    FAULT_PRESETS,
    CohortKernel,
    ScaleSpec,
    run_scale,
)
from repro.core.player import CohortParams, PlayerCohort
from repro.dynamics import DynamicsSpec, preset_dynamics, run_dynamics
from repro.network.latency import LatencyParams, RegionalLatency
from repro.sim.engine import Environment

N_PLAYERS = 400
N_TICKS = 50


def digest_of(**kw):
    return run_scale(ScaleSpec(**kw)).digest


class TestModeEquivalence:
    def test_across_seeds(self):
        for seed in (0, 1, 17):
            a = digest_of(n_players=N_PLAYERS, n_regions=4, n_ticks=N_TICKS,
                          seed=seed, mode="cohort", faults="mixed")
            b = digest_of(n_players=N_PLAYERS, n_regions=4, n_ticks=N_TICKS,
                          seed=seed, mode="per-player", faults="mixed")
            assert a == b, f"seed {seed}"

    def test_across_region_counts(self):
        for regions in (1, 2, 5, 9):
            a = digest_of(n_players=N_PLAYERS, n_regions=regions,
                          n_ticks=N_TICKS, seed=2, mode="cohort",
                          faults="outage")
            b = digest_of(n_players=N_PLAYERS, n_regions=regions,
                          n_ticks=N_TICKS, seed=2, mode="per-player",
                          faults="outage")
            assert a == b, f"{regions} regions"

    def test_across_fault_presets(self):
        for faults in FAULT_PRESETS:
            a = digest_of(n_players=N_PLAYERS, n_regions=4,
                          n_ticks=N_TICKS, seed=3, mode="cohort",
                          faults=faults)
            b = digest_of(n_players=N_PLAYERS, n_regions=4,
                          n_ticks=N_TICKS, seed=3, mode="per-player",
                          faults=faults)
            assert a == b, f"faults={faults}"

    def test_across_queues(self):
        # Both axes at once: the vectorised run on the kernel's calendar
        # queue against the individual run on a binary heap.
        kw = dict(n_players=N_PLAYERS, n_regions=4, n_ticks=N_TICKS,
                  seed=4, faults="mixed")
        a = digest_of(mode="cohort", **kw)
        kernel = CohortKernel(ScaleSpec(mode="per-player", **kw))
        kernel.env = Environment(queue="heap")
        assert a == kernel.run().digest

    def test_different_seeds_differ(self):
        # The digest is not vacuous: different seeds, different traces.
        a = digest_of(n_players=N_PLAYERS, n_regions=4, n_ticks=N_TICKS,
                      seed=0, mode="cohort", faults="mixed")
        b = digest_of(n_players=N_PLAYERS, n_regions=4, n_ticks=N_TICKS,
                      seed=1, mode="cohort", faults="mixed")
        assert a != b

    def test_rerun_is_deterministic(self):
        kw = dict(n_players=N_PLAYERS, n_regions=4, n_ticks=N_TICKS,
                  seed=5, mode="cohort", faults="mixed")
        assert digest_of(**kw) == digest_of(**kw)

    @pytest.mark.parametrize("n_ticks", [1, 2])
    @pytest.mark.parametrize("faults", FAULT_PRESETS)
    def test_shortest_runs(self, faults, n_ticks):
        # One tick leaves the outage presets no middle third; two give
        # a one-tick outage. Both must build and agree across modes.
        # The raised crash rate puts crashes into these few ticks.
        kw = dict(n_players=60, n_regions=3, n_ticks=n_ticks, seed=6,
                  faults=faults, crash_rate_per_tick=0.05)
        a = digest_of(mode="cohort", **kw)
        b = digest_of(mode="per-player", **kw)
        assert a == b


class TestOneBatchPerTick:
    @pytest.mark.parametrize("faults", FAULT_PRESETS)
    def test_cohort_mode_schedules_only_the_driver(self, faults):
        report = run_scale(ScaleSpec(
            n_players=N_PLAYERS, n_regions=4, n_ticks=N_TICKS, seed=3,
            mode="cohort", faults=faults))
        if faults != "none":  # crashes and failovers ran in the batch
            assert report.crashes + report.migrations > 0
        assert report.events_scheduled == N_TICKS
        assert report.materialisations == 0
        assert report.reabsorptions == 0
        assert report.final_materialised == 0

    def test_dynamics_with_mobility_schedules_only_the_driver(self):
        # Joins, leaves, the overload ladder and migrations are array
        # edits in the driver's hooks: no event beyond one per tick.
        base = ScaleSpec(n_players=N_PLAYERS, n_regions=4,
                         n_ticks=N_TICKS, seed=3, mode="cohort",
                         faults="outage")
        plan = preset_dynamics(
            "launch-day", horizon_s=N_TICKS * base.params.tick_s,
            n_players=N_PLAYERS, n_regions=4, seed=3)
        report = run_dynamics(DynamicsSpec(base=base, plan=plan,
                                           initial_fraction=0.6))
        assert report.moves > 0
        assert report.invariants == []
        assert report.scale.events_scheduled == N_TICKS


#: Every per-player array :meth:`PlayerCohort.advance` may write.
PLAYER_ARRAYS = ("buffer_s", "position_s", "tier", "served_by",
                 "last_switch", "rebuffer_ticks", "crashes", "switches",
                 "reconnects", "migrations", "on_time_frames", "frames")


@st.composite
def cohort_states(draw):
    """An arbitrary cohort state plus a tick and a batch of indices."""
    n = draw(st.integers(1, 40))
    n_regions = draw(st.integers(1, 5))
    params = CohortParams(crash_rate_per_tick=draw(
        st.sampled_from([0.0, 0.05, 0.5])))
    tick = draw(st.integers(0, 10_000))

    def ints(lo, hi, size):
        return np.array(draw(st.lists(st.integers(lo, hi), min_size=size,
                                      max_size=size)), dtype=np.int64)

    def floats(lo, hi, size):
        return np.array(draw(st.lists(
            st.floats(lo, hi, allow_nan=False, allow_infinity=False),
            min_size=size, max_size=size)), dtype=np.float64)

    offline = np.array(draw(st.lists(st.booleans(), min_size=n_regions,
                                     max_size=n_regions)))
    targets = ints(0, n_regions - 1, n_regions)
    state = {
        "params": params,
        "centers": np.column_stack([floats(0.0, 4000.0, n_regions),
                                    floats(0.0, 2500.0, n_regions)]),
        "region": ints(0, n_regions - 1, n),
        "access_s": floats(0.0, 0.3, n),
        "seed": draw(st.integers(0, 2**16)),
        "served_by": ints(0, n_regions - 1, n),
        "tier": ints(0, params.n_tiers - 1, n),
        "buffer_s": floats(0.0, params.max_buffer_s, n),
        "position_s": floats(0.0, 1e4, n),
        "last_switch": tick - ints(0, 2 * params.switch_cooldown_ticks, n),
        "region_offline": offline,
        "failover_to": np.where(offline, targets, np.arange(n_regions)),
        "congestion_s": floats(0.0, 0.2, n_regions),
    }
    idx = np.array(sorted(draw(st.sets(st.integers(0, n - 1),
                                       min_size=1))), dtype=np.int64)
    order = draw(st.permutations(list(idx)))
    return state, tick, idx, order


def build_cohort(state):
    cohort = PlayerCohort(
        state["region"], state["access_s"],
        RegionalLatency(state["centers"], LatencyParams()),
        state["params"], state["seed"])
    for name in ("served_by", "tier", "buffer_s", "position_s",
                 "last_switch", "region_offline", "failover_to",
                 "congestion_s"):
        getattr(cohort, name)[:] = state[name]
    return cohort


def assert_same_state(batch, scalar):
    for name in (*PLAYER_ARRAYS, "tick_load", "lat_hist"):
        a, b = getattr(batch, name), getattr(scalar, name)
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name


class TestAdvanceMirror:
    @given(cohort_states())
    @settings(max_examples=150, deadline=None)
    def test_batch_advance_equals_scalar_mirror(self, case):
        """The batch kernel and its scalar mirror write the same bits,
        whatever the state and whatever order the scalar calls run in."""
        state, tick, idx, order = case
        batch, scalar = build_cohort(state), build_cohort(state)
        batch.advance(idx, tick)
        for i in order:
            scalar._advance_one(int(i), tick)
        assert_same_state(batch, scalar)

    @given(cohort_states())
    @settings(max_examples=150, deadline=None)
    def test_full_population_advance_equals_scalar_mirror(self, case):
        """The same property with every player in the batch: the
        advance then works on views of the cohort arrays instead of
        index copies, which the random subsets above rarely reach."""
        state, tick, _, _ = case
        batch, scalar = build_cohort(state), build_cohort(state)
        batch.advance(np.arange(batch.n_players, dtype=np.int64), tick)
        for i in range(scalar.n_players):
            scalar._advance_one(i, tick)
        assert_same_state(batch, scalar)
