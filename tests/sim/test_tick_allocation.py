"""A cohort tick allocates nothing the size of the population.

``PlayerCohort.advance`` writes every intermediate into the cohort's
scratch rows, and ``counter_u01`` and ``RegionalLatency.gather_s`` write
into the ``out`` it hands them. Per-tick temporaries the size of the
population would cost more than their arithmetic: glibc trims them off
the top of the heap at the end of one tick and the next tick faults
them back in. What a steady tick may still allocate is bounded by a
constant: chunk temporaries, numpy's cast buffers, the crashed
players' indices.
"""

import tracemalloc

import numpy as np
import pytest

from repro.core.cohort import CohortKernel, ScaleSpec

N_PLAYERS = 20_000


@pytest.mark.parametrize("faults", ["outage", "mixed"])
def test_all_active_tick_allocates_less_than_one_population_array(faults):
    kernel = CohortKernel(ScaleSpec(
        n_players=N_PLAYERS, n_regions=8, n_ticks=40, faults=faults))
    cohort = kernel.cohort
    assert (cohort.params.crash_rate_per_tick > 0.0) == (faults == "mixed")
    idx = cohort.batch_indices()
    assert idx.size == N_PLAYERS
    for tick in range(3):  # warm-up: rows of the latency table
        cohort.advance(idx, tick)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for tick in range(3, 13):
            cohort.advance(idx, tick)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    one_array = N_PLAYERS * np.dtype(np.float64).itemsize
    assert peak - base < one_array
