"""Tests for the typed Experiment API, parallel engine and result cache.

The load-bearing property is the determinism contract: for the same
``(scale, seed)``, executing an experiment's sweep tasks on a process
pool must produce series, result digests and merged metrics snapshots
byte-identical to inline serial execution — and a warm cache re-run
must reproduce all of it without simulating anything.
"""

import pytest

from repro.experiments.api import ExperimentSpec, RunResult, SweepTask
from repro.experiments.cache import ResultCache, material_digest
from repro.experiments.config import RunConfig
from repro.experiments.parallel import run_named, run_spec
from repro.experiments.specs import SPECS, TASK_RUNNERS, get_spec
from repro.metrics.series import FigureSeries
from repro.obs import Observability, TraceRecorder, default_checkers

SCALE = 0.02
SEED = 11


def series_dicts(result: RunResult) -> list[dict]:
    return [s.to_dict() for s in result.series]


class TestSpecRegistry:
    def test_specs_are_typed(self):
        for spec in SPECS.values():
            assert isinstance(spec, ExperimentSpec)
            assert spec.description
            assert spec.tags

    def test_get_spec_unknown(self):
        with pytest.raises(ValueError, match="unknown experiment"):
            get_spec("fig99")

    def test_every_runner_is_registered(self):
        for spec in SPECS.values():
            for task in spec.decompose(SCALE, SEED):
                assert task.runner in TASK_RUNNERS

    def test_decompose_keys_unique_and_stable(self):
        for spec in SPECS.values():
            tasks = spec.decompose(SCALE, SEED)
            assert tasks, spec.name
            keys = [t.key for t in tasks]
            assert len(set(keys)) == len(keys), spec.name
            again = [t.key for t in spec.decompose(SCALE, SEED)]
            assert keys == again, spec.name

    def test_sweeps_actually_decompose(self):
        # The point of the engine: figure sweeps split into several
        # independently executable tasks (one per point/variant/seed).
        assert len(SPECS["fig5a"].decompose(SCALE, SEED)) == 5
        assert len(SPECS["fig8a"].decompose(SCALE, SEED)) == 4
        assert len(SPECS["fig9a"].decompose(SCALE, SEED)) == 12
        assert len(SPECS["churn"].decompose(SCALE, SEED)) == 20


@pytest.mark.parametrize("name", ["fig5a", "fig8a", "fig8b", "economics"])
class TestParallelEqualsSerial:
    """jobs=4 must be byte-identical to jobs=1 (acceptance criterion)."""

    @pytest.fixture(scope="class")
    def runs(self, request):
        cache = {}

        def get(name):
            if name not in cache:
                cache[name] = (
                    run_named(name, SCALE, SEED),
                    run_named(name, SCALE, SEED, config=RunConfig(jobs=4)),
                )
            return cache[name]

        return get

    def test_series_identical(self, runs, name):
        serial, parallel = runs(name)
        assert series_dicts(serial) == series_dicts(parallel)

    def test_digest_identical(self, runs, name):
        serial, parallel = runs(name)
        assert serial.digest == parallel.digest

    def test_metrics_identical(self, runs, name):
        serial, parallel = runs(name)
        assert serial.metrics == parallel.metrics


class TestTracedParallelEqualsSerial:
    def test_trace_digest_and_checkers(self):
        def traced(jobs):
            obs = Observability(trace=TraceRecorder(),
                                checkers=default_checkers())
            result = run_named("fig8a", SCALE, 5,
                               config=RunConfig(jobs=jobs), obs=obs)
            obs.finish()
            return result, obs

        r1, obs1 = traced(1)
        r4, obs4 = traced(4)
        assert obs1.digest() == obs4.digest()
        assert len(obs1.trace) == len(obs4.trace) > 0
        assert obs1.metrics.snapshot() == obs4.metrics.snapshot()
        assert r1.digest == r4.digest


class TestRunResult:
    def test_fields_populated(self):
        r = run_named("fig5a", SCALE, SEED)
        assert r.name == "fig5a"
        assert r.tasks_total == 5
        assert r.tasks_cached == 0
        assert r.elapsed_s > 0
        assert len(r.digest) == 64
        assert all(isinstance(s, FigureSeries) for s in r.series)

    def test_to_dict_round_trips_series(self):
        r = run_named("fig5a", SCALE, SEED)
        payload = r.to_dict()
        restored = [FigureSeries.from_dict(d) for d in payload["series"]]
        assert [s.to_dict() for s in restored] == series_dicts(r)

    def test_duplicate_task_keys_rejected(self):
        spec = ExperimentSpec(
            name="dup", description="d", tags=("t",),
            decompose=lambda scale, seed: [
                SweepTask("dup", (1,), "econ_frontier", {}),
                SweepTask("dup", (1,), "econ_frontier", {}),
            ],
            merge=lambda scale, seed, ordered: [])
        with pytest.raises(ValueError, match="duplicate task keys"):
            run_spec(spec, SCALE, SEED)


class TestResultCache:
    def test_warm_run_skips_execution_and_reproduces(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cold = run_named("fig5a", SCALE, SEED,
                         config=RunConfig(cache=cache))
        assert cold.tasks_cached == 0
        assert cache.misses == cold.tasks_total
        warm = run_named("fig5a", SCALE, SEED,
                         config=RunConfig(cache=cache))
        assert warm.tasks_cached == warm.tasks_total == cold.tasks_total
        assert series_dicts(warm) == series_dicts(cold)
        assert warm.digest == cold.digest
        assert warm.metrics == cold.metrics

    def test_key_includes_scale_seed_and_params(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        run_named("fig5a", SCALE, SEED,
                         config=RunConfig(cache=cache))
        n = len(cache)
        other_seed = run_named("fig5a", SCALE, SEED + 1,
                               config=RunConfig(cache=cache))
        assert other_seed.tasks_cached == 0
        other_scale = run_named("fig5a", 0.03, SEED,
                                config=RunConfig(cache=cache))
        assert other_scale.tasks_cached == 0
        assert len(cache) == 3 * n

    def test_material_digest_is_canonical(self):
        a = material_digest({"x": 1, "y": [2, 3]})
        b = material_digest({"y": [2, 3], "x": 1})
        assert a == b
        assert a != material_digest({"x": 1, "y": [2, 4]})

    def test_torn_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        digest = material_digest({"k": 1})
        path = cache.put(digest, {"data": {"v": 1}})
        with open(path, "w") as fp:
            fp.write("{not json")
        assert cache.get(digest) is None
        assert cache.errors == 1

    def test_non_utf8_entry_is_a_miss(self, tmp_path):
        # A worker's local cache reads entries through get_payload: an
        # entry that is not even UTF-8 must be a miss, not an exception.
        cache = ResultCache(str(tmp_path))
        digest = "cd" * 32
        cache.put_payload(digest, ("data", {}, (), 0.1))
        with open(cache._path(digest), "wb") as fp:
            fp.write(b"\x80torn")
        assert cache.get_payload(digest) is None
        assert cache.misses == 1
        assert cache.errors == 1

    def test_tmp_droppings_swept_on_open(self, tmp_path):
        root = tmp_path / "cache"
        (root / "ab").mkdir(parents=True)
        (root / "ab" / "orphan.tmp").write_bytes(b"dead")
        cache = ResultCache(str(root))
        assert not (root / "ab" / "orphan.tmp").exists()
        assert cache.tmp_swept == 1

    def test_payload_roundtrip_and_accounting(self, tmp_path):
        # One entry format: an execute_task payload maps onto the entry
        # without its trace events, and back with none.
        cache = ResultCache(str(tmp_path))
        digest = "ab" * 32
        assert cache.get_payload(digest) is None
        events = ((0.0, "c", "k", {}),)
        cache.put_payload(digest, ({"series": [1.0, 2.0]},
                                   {"m": {"kind": "counter", "value": 2}},
                                   events, 0.5))
        assert cache.get(digest) == {
            "data": {"series": [1.0, 2.0]},
            "metrics": {"m": {"kind": "counter", "value": 2}},
            "elapsed_s": 0.5}
        assert cache.get_payload(digest) == (
            {"series": [1.0, 2.0]},
            {"m": {"kind": "counter", "value": 2}}, (), 0.5)
        assert len(cache) == 1
        assert cache.hits == 2 and cache.misses == 1

    def test_parallel_run_shares_cache(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cold = run_named("fig8a", SCALE, SEED,
                         config=RunConfig(jobs=4, cache=cache))
        warm = run_named("fig8a", SCALE, SEED,
                         config=RunConfig(jobs=4, cache=cache))
        assert warm.tasks_cached == warm.tasks_total
        assert warm.digest == cold.digest

    def test_traced_run_bypasses_cache_reads(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        run_named("fig5a", SCALE, SEED,
                         config=RunConfig(cache=cache))
        obs = Observability(trace=TraceRecorder())
        traced = run_named("fig5a", SCALE, SEED,
                           config=RunConfig(cache=cache), obs=obs)
        # A cache hit could not replay events into obs — so no hits.
        assert traced.tasks_cached == 0
        untraced = run_named("fig5a", SCALE, SEED,
                         config=RunConfig(cache=cache))
        assert untraced.tasks_cached == untraced.tasks_total
