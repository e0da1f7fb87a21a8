"""Scale-regression benchmarks for the million-player event kernel.

Three gates, each a qualitative claim the cohort refactor makes:

* the calendar queue's amortised-O(1) pop/push beats the binary heap's
  O(log n) once the pending-event set reaches the million-player regime
  (the heap's sift path touches O(log n) cache lines per op and slows
  with depth; the calendar's cost stays flat);
* one cohort step costs *sublinear* time in population — the vectorised
  batch amortises its fixed overhead, so 64× the players must cost well
  under 64× the time;
* a 100k-player multi-region run with a fault preset finishes inside a
  CI-sized wall-clock budget.

The queue gate measures the raw structures under the classic hold model
(pop one, push a replacement at ``t + delay``, constant queue size) so
the comparison isolates the queue from engine dispatch overhead. At
shallow depths (≤100k pending) the C-implemented ``heapq`` wins on
constant factors — the engine's default stays ``heap`` for exactly that
reason — and the crossover sits in the hundreds of thousands of pending
events, which is where a per-player million-player run lives.
"""

import heapq
import time

import numpy as np

from repro.core.cohort import CohortKernel, ScaleSpec
from repro.sim.calendar import CalendarQueue

#: Wall-clock budget for the 100k smoke (generous for shared CI runners;
#: the run takes ~10 s on a laptop-class core).
SMOKE_BUDGET_S = 120.0

#: Pending-set size for the queue crossover gate: the per-player regime
#: the calendar queue exists for.
LARGE_PENDING = 1_000_000
#: Hold-model operations per measurement round.
HOLD_OPS = 200_000


def _hold_delays(pending: int, ops: int) -> list:
    rng = np.random.default_rng(0)
    return (rng.random(pending + ops) * 0.5 + 1e-4).tolist()


def _hold_calendar(pending: int, ops: int, delays: list) -> float:
    """Hold-model churn on the raw CalendarQueue; returns seconds."""
    q = CalendarQueue()
    for seq in range(pending):
        q.push(delays[seq], seq, None)
    seq = pending
    t0 = time.perf_counter()
    for j in range(pending, pending + ops):
        t, _, _ = q.pop()
        q.push(t + delays[j], seq, None)
        seq += 1
    return time.perf_counter() - t0


def _hold_heap(pending: int, ops: int, delays: list) -> float:
    """The same churn on a raw ``heapq`` list; returns seconds."""
    h = []
    for seq in range(pending):
        heapq.heappush(h, (delays[seq], seq, None))
    seq = pending
    t0 = time.perf_counter()
    for j in range(pending, pending + ops):
        t, _, _ = heapq.heappop(h)
        heapq.heappush(h, (t + delays[j], seq, None))
        seq += 1
    return time.perf_counter() - t0


def _best_of(fn, rounds=3):
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_calendar_beats_heap_at_million_pending(benchmark):
    """Calendar events/sec >= heap events/sec at 1M pending events."""
    delays = _hold_delays(LARGE_PENDING, HOLD_OPS)
    heap_s = min(_hold_heap(LARGE_PENDING, HOLD_OPS, delays)
                 for _ in range(3))
    cal_s = min(_hold_calendar(LARGE_PENDING, HOLD_OPS, delays)
                for _ in range(3))
    benchmark.extra_info["heap_ev_per_s"] = HOLD_OPS / heap_s
    benchmark.extra_info["calendar_ev_per_s"] = HOLD_OPS / cal_s
    benchmark.pedantic(
        lambda: _hold_calendar(LARGE_PENDING, HOLD_OPS, delays),
        rounds=1, iterations=1)
    # The heap's O(log n) must have crossed the calendar's flat cost by
    # this depth (small tolerance for timer noise on shared runners).
    assert cal_s <= heap_s * 1.05, (
        f"calendar {HOLD_OPS/cal_s:,.0f} ev/s < "
        f"heap {HOLD_OPS/heap_s:,.0f} ev/s at {LARGE_PENDING:,} pending")


def test_calendar_within_bounds_at_10k_pending(benchmark):
    """Shallow-queue sanity: calendar stays within 4x of heap at 10k.

    At 10k pending the C heap wins on constant factors — that is
    expected and why ``heap`` remains the engine default — but the
    calendar must not be *pathologically* slower (a resize storm or a
    degenerate bucket width would show up here as an order of
    magnitude, not a small multiple).
    """
    delays = _hold_delays(10_000, HOLD_OPS)
    heap_s = min(_hold_heap(10_000, HOLD_OPS, delays) for _ in range(3))
    cal_s = min(_hold_calendar(10_000, HOLD_OPS, delays)
                for _ in range(3))
    benchmark.extra_info["heap_ev_per_s"] = HOLD_OPS / heap_s
    benchmark.extra_info["calendar_ev_per_s"] = HOLD_OPS / cal_s
    benchmark.pedantic(
        lambda: _hold_calendar(10_000, HOLD_OPS, delays),
        rounds=1, iterations=1)
    assert cal_s <= heap_s * 4.0, (
        f"calendar degenerated at 10k pending: "
        f"{HOLD_OPS/cal_s:,.0f} ev/s vs heap {HOLD_OPS/heap_s:,.0f}")


def test_cohort_step_cost_sublinear(benchmark):
    """64× the players must cost far less than 64× the step time.

    The small operating point (250 players) is deliberately below the
    amortisation knee — per-player cost there is dominated by the fixed
    per-call overhead of the numpy kernels a step issues, so a
    vectorised batch 64× larger lands well under 64× the time (10–17×
    on a 2-vCPU x86 cloud host). Comparing two already-amortised sizes
    would instead measure memory bandwidth, which is linear.
    """
    def step_time(n_players, ticks=30):
        kernel = CohortKernel(ScaleSpec(
            n_players=n_players, n_regions=6, n_ticks=ticks,
            faults="none"))
        idx = kernel.cohort.batch_indices()
        t0 = time.perf_counter()
        for tick in range(ticks):
            kernel.cohort.advance(idx, tick)
        return (time.perf_counter() - t0) / ticks

    small = min(step_time(250) for _ in range(3))
    large = min(step_time(16_000) for _ in range(3))
    ratio = large / small
    benchmark.extra_info["step_250_us"] = small * 1e6
    benchmark.extra_info["step_16k_us"] = large * 1e6
    benchmark.extra_info["scaling_ratio"] = ratio
    benchmark(lambda: step_time(16_000, ticks=10))
    # Strictly sublinear with headroom: 64x players in < 32x time.
    assert ratio < 32.0, f"step cost scaled {ratio:.1f}x for 64x players"


def test_100k_smoke_under_budget(benchmark):
    """100k players, 8 regions, outage preset — inside the CI budget."""
    def run():
        kernel = CohortKernel(ScaleSpec(
            n_players=100_000, n_regions=8, n_ticks=120,
            seed=0, mode="cohort", faults="outage"))
        t0 = time.perf_counter()
        report = kernel.run()
        return report, time.perf_counter() - t0

    report, wall_s = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["events"] = report.events_scheduled
    benchmark.extra_info["p99_ms"] = report.p99_ms
    assert wall_s < SMOKE_BUDGET_S
    assert report.n_players == 100_000
    assert 0.9 < report.satisfied_fraction <= 1.0
    assert report.p50_ms < report.p95_ms < report.p99_ms
