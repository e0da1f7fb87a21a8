"""Figure 10 — effectiveness of the encoding rate adaptation."""

from conftest import record_series

from repro.experiments.runner import run_experiment


def test_fig10_satisfaction_adapt(benchmark, bench_scale, bench_seed):
    series = benchmark.pedantic(
        lambda: run_experiment("fig10", scale=bench_scale, seed=bench_seed),
        rounds=1, iterations=1)
    record_series(
        benchmark, series,
        "Figure 10: satisfied players, CloudFog-adapt vs CloudFog/B")

    base, adapt = series
    assert base.label == "CloudFog/B"
    assert adapt.label == "CloudFog-adapt"
    # Adaptation never hurts and wins where the supernode saturates.
    for k in range(len(base.x)):
        assert adapt.y[k] >= base.y[k] - 1e-9
    # Paper: the increase is large at 25 players per supernode.
    assert adapt.y[-1] - base.y[-1] > 0.25
    # The baseline "drops quickly" under load.
    assert base.y[0] > 0.9
    assert base.y[-1] < 0.3
