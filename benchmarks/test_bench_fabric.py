"""Benches for the remote fabric's throughput machinery.

Like :mod:`test_bench_parallel` these are *comparative*: each test
measures two configurations of the same loopback sweep and asserts the
fabric's headline ratios — a 4-slot worker at least 2× the task
throughput of a single-slot worker, and a warm-cache re-run shipping
under 10% of the cold run's result-direction wire bytes (hash-only
``cached`` frames instead of payload blobs). Both sides of every
comparison re-check the determinism contract (identical digests), so
a speedup bought by divergence fails loudly.

Each test folds its measurements into ``BENCH_fabric.json`` (override
the path with ``CLOUDFOG_BENCH_FABRIC_OUT``), the artifact CI uploads.
"""

import json
import os
import time

from repro.experiments import RunConfig
from repro.experiments.api import ExperimentSpec, SweepTask
from repro.experiments.backends.remote import RemoteBackend
from repro.experiments.parallel import run_spec
from repro.experiments.specs import merge_series_fragments
from repro.obs import Observability

SEED = 42

OUT_PATH = os.environ.get("CLOUDFOG_BENCH_FABRIC_OUT",
                          "BENCH_fabric.json")


def _record(**measurements) -> None:
    """Merge measurements into the shared BENCH_fabric.json artifact."""
    data = {}
    try:
        with open(OUT_PATH, "r", encoding="utf-8") as fp:
            data = json.load(fp)
    except (OSError, ValueError):
        pass
    data.update(measurements)
    with open(OUT_PATH, "w", encoding="utf-8") as fp:
        json.dump(data, fp, indent=2, sort_keys=True)
        fp.write("\n")


def _probe_spec(params):
    return ExperimentSpec(
        name="fabric-bench", description="loopback fabric bench",
        tags=("bench",),
        decompose=lambda scale, seed: [
            SweepTask("fabric-bench", (p["index"],), "flaky_probe", p)
            for p in params],
        merge=lambda scale, seed, ordered: merge_series_fragments(ordered))


def test_four_slot_worker_doubles_single_slot_throughput():
    """One 4-slot worker must run >= 2x the tasks/s of a 1-slot one."""
    n_tasks, sleep_s = 12, 0.15
    params = [{"index": i, "sleep_s": sleep_s} for i in range(n_tasks)]

    def timed_run(slots):
        backend = RemoteBackend(launch=1, slots=slots)
        with RunConfig(backend=backend) as cfg:
            # Warm the fabric first (worker launch, hello and the slot
            # pool's fork) so the clock measures task throughput, not
            # interpreter startup.
            run_spec(_probe_spec([{"index": 0}]), 0.05, SEED, config=cfg)
            t0 = time.perf_counter()
            result = run_spec(_probe_spec(params), 0.05, SEED, config=cfg)
            elapsed = time.perf_counter() - t0
        assert result.ok
        return result, n_tasks / elapsed

    single, tput_1 = timed_run(1)
    quad, tput_4 = timed_run(4)
    assert quad.digest == single.digest
    speedup = tput_4 / tput_1
    _record(throughput_tasks_per_s_1slot=round(tput_1, 2),
            throughput_tasks_per_s_4slot=round(tput_4, 2),
            slot_speedup=round(speedup, 2),
            slot_bench_tasks=n_tasks,
            slot_bench_task_s=sleep_s)
    print(f"\nloopback throughput: 1 slot {tput_1:.1f} tasks/s, "
          f"4 slots {tput_4:.1f} tasks/s, speedup {speedup:.2f}x")
    assert speedup >= 2.0, (
        f"4-slot speedup {speedup:.2f}x < 2x "
        f"({tput_1:.1f} vs {tput_4:.1f} tasks/s)")


def test_warm_cache_rerun_ships_under_ten_percent_of_cold_bytes(
        tmp_path):
    """Warm re-run result bytes must be < 10% of the cold run's.

    Cold run: workers ship every payload blob back. Warm re-run with a
    metrics-only obs context (cache reads bypassed, store still
    consulted): task frames carry ``have`` and workers answer with
    hash-only ``cached`` frames, so the result direction collapses to
    confirmations plus heartbeats.
    """
    params = [{"index": i, "bulk_points": 4000} for i in range(8)]
    backend = RemoteBackend(launch=2, slots=2)
    with RunConfig(backend=backend,
                   cache_dir=str(tmp_path / "store")) as cfg:
        cold = run_spec(_probe_spec(params), 0.05, SEED, config=cfg)
        wire_cold = backend.wire_stats()
        obs = Observability()
        warm = run_spec(_probe_spec(params), 0.05, SEED, config=cfg,
                        obs=obs)
        wire_warm = backend.wire_stats()
    assert warm.digest == cold.digest
    assert warm.metrics == cold.metrics
    snap = obs.metrics.snapshot()
    assert snap["harness.cached_frames"]["value"] == warm.tasks_total
    cold_recv = wire_cold["recv"]
    warm_recv = wire_warm["recv"] - wire_cold["recv"]
    ratio = warm_recv / cold_recv
    _record(cold_result_bytes=cold_recv,
            warm_result_bytes=warm_recv,
            warm_bytes_ratio=round(ratio, 4),
            wire_bytes_sent_total=wire_warm["sent"],
            cached_frames=snap["harness.cached_frames"]["value"])
    print(f"\nwire bytes (result direction): cold {cold_recv}, "
          f"warm {warm_recv}, ratio {ratio:.1%}")
    assert ratio < 0.10, (
        f"warm re-run shipped {ratio:.1%} of cold bytes "
        f"(cold {cold_recv}, warm {warm_recv})")
