"""Extension benches: supernode churn/failover and cooperation.

These exercise the paper's backup mechanism (§III-A-3) and its stated
future work (§V, supernode cooperation).
"""

from conftest import record_series

from repro.experiments.runner import run_experiment


def test_churn_failover(benchmark, bench_scale, bench_seed):
    series = benchmark.pedantic(
        lambda: run_experiment("churn", scale=bench_scale, seed=bench_seed),
        rounds=1, iterations=1)
    record_series(benchmark, series,
                  "Extension: continuity vs supernode churn")

    with_b, without_b = series
    assert with_b.label == "with backups"
    # No churn: strategies indistinguishable.
    assert abs(with_b.y[0] - without_b.y[0]) < 0.02
    # Backups keep continuity high; cloud fallback decays with churn.
    assert with_b.y[-1] > 0.9
    assert without_b.y[-1] < with_b.y[-1] - 0.1
    assert without_b.y == sorted(without_b.y, reverse=True)


def test_supernode_cooperation(benchmark, bench_scale, bench_seed):
    series = benchmark.pedantic(
        lambda: run_experiment("cooperation", scale=bench_scale,
                               seed=bench_seed),
        rounds=1, iterations=1)
    record_series(benchmark, series,
                  "Extension: satisfaction vs load skew (cooperation)")

    solo, coop = series
    # Balanced load: both fine.
    assert solo.y[0] > 0.9 and coop.y[0] > 0.9
    # Skewed load: cooperation pools the neighbourhood's uplinks.
    assert coop.y[-1] > solo.y[-1] + 0.3
