"""Figure 11 — effectiveness of the deadline-driven buffer scheduling."""

from conftest import record_series

from repro.experiments.runner import run_experiment


def test_fig11_satisfaction_schedule(benchmark, bench_scale, bench_seed):
    series = benchmark.pedantic(
        lambda: run_experiment("fig11", scale=bench_scale, seed=bench_seed),
        rounds=1, iterations=1)
    record_series(
        benchmark, series,
        "Figure 11: satisfied players, CloudFog-schedule vs CloudFog/B")

    base, sched = series
    assert base.label == "CloudFog/B"
    assert sched.label == "CloudFog-schedule"
    for k in range(len(base.x)):
        assert sched.y[k] >= base.y[k] - 1e-9
    # Paper: scheduling helps "especially when a supernode is supporting
    # a large number of players".
    gap_light = sched.y[0] - base.y[0]
    gap_heavy = sched.y[-1] - base.y[-1]
    assert gap_heavy > gap_light
    assert gap_heavy > 0.15
