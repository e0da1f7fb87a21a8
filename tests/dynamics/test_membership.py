"""Membership as array edits: the home-join replay and the pool checks.

The dynamics kernel admits a tick's home joins from per-region pop
counts that :func:`home_join_pops` replays level by level. The oracle
below is the per-join loop that replay stands in for; a Hypothesis
property holds the two together over arbitrary pool sizes, join counts
and blocked masks. The pool invariants of
:meth:`DynamicsKernel.check_invariants` are checked on a finished run
whose pools are then corrupted on purpose.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cohort import ScaleSpec
from repro.dynamics import DynamicsKernel, DynamicsSpec, preset_dynamics
from repro.dynamics.kernel import home_join_pops


def per_join_oracle(sizes, want, blocked):
    """``want`` home joins, one at a time: each pops the deepest pool
    (``argmax``, so the lowest region on a tie), is refused when that
    region is blocked, and the rest run dry once every pool is empty."""
    sizes = list(sizes)
    pops = [0] * len(sizes)
    refused = 0
    for i in range(want):
        r = int(np.argmax(sizes))
        if sizes[r] == 0:
            return pops, refused, want - i
        if blocked is not None and blocked[r]:
            refused += 1
            continue
        sizes[r] -= 1
        pops[r] += 1
    return pops, refused, 0


@st.composite
def join_cases(draw):
    n = draw(st.integers(1, 9))
    sizes = draw(st.lists(st.integers(0, 40), min_size=n, max_size=n))
    want = draw(st.integers(0, 200))
    blocked = draw(st.none() | st.lists(st.booleans(), min_size=n,
                                         max_size=n))
    return sizes, want, blocked


class TestHomeJoinReplay:
    @given(join_cases())
    @settings(max_examples=500, deadline=None)
    def test_matches_the_per_join_loop(self, case):
        sizes, want, blocked = case
        assert (home_join_pops(sizes, want, blocked)
                == per_join_oracle(sizes, want, blocked))

    def test_ties_go_to_the_lowest_region(self):
        assert home_join_pops([3, 5, 5], 5, None) == ([1, 2, 2], 0, 0)

    def test_a_blocked_top_pool_refuses_the_rest(self):
        assert home_join_pops([4, 6, 6], 9, [False, False, True]) == (
            [0, 1, 0], 8, 0)

    def test_the_rest_run_dry(self):
        assert home_join_pops([1, 0, 2], 7, [False, False, False]) == (
            [1, 0, 2], 0, 4)


def finished_kernel():
    base = ScaleSpec(n_players=250, n_regions=3, n_ticks=40, seed=2,
                     faults="none")
    plan = preset_dynamics("churn",
                           horizon_s=base.n_ticks * base.params.tick_s,
                           n_players=base.n_players,
                           n_regions=base.n_regions, seed=2)
    k = DynamicsKernel(DynamicsSpec(base=base, plan=plan,
                                    initial_fraction=0.6))
    k.run_dynamics()
    assert all(k._pools)
    return k


def has(problems, text):
    return any(text in p for p in problems)


class TestPoolInvariants:
    def test_clean_run_passes(self):
        assert finished_kernel().check_invariants() == []

    def test_player_parked_twice(self):
        k = finished_kernel()
        k._pools[1].append(k._pools[1][0])
        assert has(k.check_invariants(), "1 players parked twice")

    def test_player_in_another_regions_pool(self):
        k = finished_kernel()
        k._pools[2].append(k._pools[0].pop())
        problems = k.check_invariants()
        assert has(problems, "1 pooled players outside their region's pool")
        assert not has(problems, "population leak")

    def test_active_player_parked(self):
        k = finished_kernel()
        pid = int(np.flatnonzero(k.cohort.active)[0])
        k._pools[int(k.cohort.region[pid])].append(pid)
        assert has(k.check_invariants(), "1 pooled players active")
