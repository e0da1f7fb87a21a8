"""Tests for the sweep engine's resilience layer.

The load-bearing property extends the determinism contract: a sweep
whose tasks crash, hang or raise — and then recover under retry — must
produce series, result digests, trace digests and merged metrics
byte-identical to a run that never failed. On top of that: the
watchdog cancels hung tasks within its budget, ``keep_going`` salvages
completed points with a structured failure list instead of raising,
completed tasks are cached the moment they finish, and a re-run with
the same cache executes only the remaining tasks.
"""

import os
import signal

import pytest

from repro.cli import main
from repro.experiments.api import ExperimentSpec, RunResult, SweepTask
from repro.experiments.backends.remote import RemoteFabricError
from repro.experiments.cache import ResultCache
from repro.experiments.config import RunConfig
from repro.experiments.parallel import run_spec as _run_spec
from repro.experiments.resilience import (
    PoolManager,
    ResilienceConfig,
    SweepFailure,
    claim_attempt,
    flaky_probe,
)
from repro.experiments.specs import SPECS, merge_series_fragments

SCALE = 0.02
SEED = 11


def run_spec(spec, scale, seed, *, jobs=1, resilience=None, cache=None,
             obs=None, **fabric):
    """This module's historical kwargs, expressed as a RunConfig;
    ``fabric`` passes the remote backend's fields through."""
    with RunConfig(jobs=jobs, resilience=resilience, cache=cache,
                   **fabric) as config:
        return _run_spec(spec, scale, seed, obs=obs, config=config)


#: The parallel backends, which must agree on the failure taxonomy: a
#: two-process pool and one launched remote worker.
PARALLEL = {"pool": {"jobs": 2},
            "remote": {"backend": "remote", "launch": 1}}


def fast_cfg(**kw):
    """A ResilienceConfig with near-zero backoff wall time."""
    kw.setdefault("max_retries", 2)
    kw.setdefault("backoff_base_s", 0.001)
    kw.setdefault("poll_interval_s", 0.02)
    return ResilienceConfig(**kw)


def flaky_spec(state_dir=None, n=4, modes=None, name="flaky-exp",
               runner="flaky_probe", delegate=None):
    """A spec of ``n`` flaky_probe tasks; ``modes[i]`` overrides params.

    With ``delegate`` given, successful tasks run a real registered
    runner so trace/metrics determinism can be asserted.
    """
    modes = modes or {}

    def decompose(scale, seed):
        tasks = []
        for i in range(n):
            params = {"index": i, "value": float(i * 10)}
            if state_dir is not None:
                params["state_dir"] = str(state_dir)
            if delegate is not None:
                params["delegate"] = delegate
                params["delegate_params"] = {
                    "scenario": "peersim", "variant": "CloudFog/B",
                    "index": i, "label": "probe", "duration_s": 15.0}
            params.update(modes.get(i, {}))
            tasks.append(SweepTask(name, (i,), runner, params))
        return tasks

    def merge(scale, seed, ordered):
        return merge_series_fragments(ordered)

    return ExperimentSpec(name=name, description="resilience probe",
                          tags=("test",), decompose=decompose, merge=merge)


def reference_run(n=4, delegate=None, **run_kw) -> RunResult:
    """An uninterrupted all-ok jobs=1 run with the same payload values."""
    return run_spec(flaky_spec(n=n, delegate=delegate), SCALE, SEED,
                    jobs=1, **run_kw)


class TestRetryOnException:
    @pytest.mark.parametrize("backend", PARALLEL)
    def test_parallel_recovers_and_matches_uninterrupted(self, tmp_path,
                                                         backend):
        spec = flaky_spec(tmp_path / "state",
                          modes={1: {"mode": "raise", "fail_attempts": 1}})
        result = run_spec(spec, SCALE, SEED, **PARALLEL[backend],
                          resilience=fast_cfg())
        assert result.ok
        assert result.tasks_retried >= 1
        assert result.digest == reference_run().digest
        # The flaky task really did run twice.
        markers = os.listdir(tmp_path / "state")
        assert "task1.attempt2" in markers

    def test_inline_recovers_too(self, tmp_path):
        spec = flaky_spec(tmp_path / "state",
                          modes={2: {"mode": "raise", "fail_attempts": 2}})
        result = run_spec(spec, SCALE, SEED, jobs=1, resilience=fast_cfg())
        assert result.ok
        assert result.tasks_retried == 2
        assert result.digest == reference_run().digest

    @pytest.mark.parametrize("backend", ["inline", *PARALLEL])
    def test_retries_exhausted_raises_structured_failure(self, tmp_path,
                                                         backend):
        spec = flaky_spec(tmp_path / "state",
                          modes={0: {"mode": "raise", "fail_attempts": 99}})
        with pytest.raises(SweepFailure) as exc_info:
            run_spec(spec, SCALE, SEED, **PARALLEL.get(backend, {}),
                     resilience=fast_cfg(max_retries=1))
        (failure,) = exc_info.value.failures
        assert failure.kind == "exception"
        assert failure.key == (0,)
        assert failure.attempts == 2  # first run + one retry
        assert "flaky_probe: injected failure" in failure.message
        assert "after 2 attempt(s)" in exc_info.value.report()


class TestWorkerCrashRecovery:
    # The crash kills a slot process — of the pool, or inside the
    # launched worker at one slot and at two — never the daemon.
    @pytest.mark.parametrize("backend, slots", [
        ("pool", 1), ("remote", 2), ("remote", 1)],
        ids=["pool", "remote", "remote-1slot"])
    def test_sigkilled_worker_is_transparent(self, tmp_path, backend,
                                             slots):
        from repro.obs import Observability
        spec = flaky_spec(tmp_path / "state",
                          modes={1: {"mode": "crash", "fail_attempts": 1}})
        obs = Observability()
        result = run_spec(spec, SCALE, SEED, **PARALLEL[backend],
                          slots=slots, resilience=fast_cfg(), obs=obs)
        assert result.ok
        assert result.digest == reference_run().digest
        snap = obs.metrics.snapshot()
        assert snap["harness.worker_crashes"]["value"] >= 1
        assert snap["harness.retries"]["value"] >= 1
        # Only the pool backend's scheduler owns a pool to rebuild.
        assert ("harness.pool_rebuilds" in snap) == (backend == "pool")

    @pytest.mark.parametrize("backend", PARALLEL)
    def test_crash_with_no_retries_reports_worker_crash(self, tmp_path,
                                                        backend):
        spec = flaky_spec(tmp_path / "state",
                          modes={0: {"mode": "crash", "fail_attempts": 99}},
                          n=2)
        with pytest.raises(SweepFailure) as exc_info:
            run_spec(spec, SCALE, SEED, **PARALLEL[backend], slots=2,
                     resilience=fast_cfg(max_retries=0))
        assert any(f.kind == "worker-crash"
                   for f in exc_info.value.failures)


class TestTimeoutWatchdog:
    @pytest.mark.parametrize("backend", PARALLEL)
    def test_hung_task_is_cancelled_and_retried(self, tmp_path, backend):
        # On the remote fabric the hung worker is the only one: the
        # scheduler must terminate and replace it, not wait for a
        # rejoin that never comes.
        import time
        from repro.obs import Observability
        spec = flaky_spec(
            tmp_path / "state",
            modes={1: {"mode": "hang", "fail_attempts": 1, "hang_s": 60.0}})
        obs = Observability()
        t0 = time.monotonic()
        result = run_spec(spec, SCALE, SEED, **PARALLEL[backend],
                          resilience=fast_cfg(timeout_s=1.0), obs=obs)
        elapsed = time.monotonic() - t0
        assert result.ok
        assert elapsed < 30.0  # nowhere near the 60s hang
        assert result.digest == reference_run().digest
        snap = obs.metrics.snapshot()
        assert snap["harness.timeouts"]["value"] >= 1

    @pytest.mark.parametrize("backend", PARALLEL)
    def test_hang_beyond_budget_fails_as_timeout(self, tmp_path, backend):
        # A one-task sweep too: the lone task still runs in a process
        # the watchdog can terminate.
        for n in (2, 1):
            spec = flaky_spec(
                tmp_path / f"state{n}", n=n,
                modes={0: {"mode": "hang", "fail_attempts": 99,
                           "hang_s": 60.0}})
            with pytest.raises(SweepFailure) as exc_info:
                run_spec(spec, SCALE, SEED, **PARALLEL[backend],
                         resilience=fast_cfg(max_retries=0, timeout_s=0.5))
            (failure,) = [f for f in exc_info.value.failures
                          if f.kind == "timeout"]
            assert failure.key == (0,)
            assert "0.5" in failure.message


class TestPoolManager:
    def test_slot_processes_die_on_sigterm(self):
        # A worker daemon turns SIGTERM into SystemExit; its forked slot
        # processes must not inherit that, or terminate() would unwind a
        # slot's work loop instead of killing the process.
        from repro.experiments.backends.worker import _exit_on_sigterm
        previous = signal.signal(signal.SIGTERM, _exit_on_sigterm)
        mgr = PoolManager(1)
        try:
            disposition = mgr.submit(signal.getsignal,
                                     signal.SIGTERM).result(timeout=30)
        finally:
            mgr.shutdown(terminate=True)
            signal.signal(signal.SIGTERM, previous)
        assert disposition == signal.SIG_DFL


class TestKeepGoing:
    def test_partial_results_with_failure_list(self, tmp_path):
        spec = flaky_spec(tmp_path / "state",
                          modes={2: {"mode": "raise", "fail_attempts": 99}})
        result = run_spec(spec, SCALE, SEED, jobs=2,
                          resilience=fast_cfg(max_retries=1,
                                              keep_going=True))
        assert not result.ok
        assert result.tasks_failed == 1
        (failure,) = result.failures
        assert failure.kind == "exception"
        assert failure.key == (2,)
        # Completed points are salvaged: 3 of 4 x-values survive.
        (series,) = result.series
        assert series.x == [0, 1, 3]
        payload = result.to_dict()
        assert payload["tasks_failed"] == 1
        assert payload["failures"][0]["kind"] == "exception"

    def test_all_ok_keep_going_matches_strict(self, tmp_path):
        strict = reference_run()
        lax = run_spec(flaky_spec(), SCALE, SEED, jobs=2,
                       resilience=fast_cfg(keep_going=True))
        assert lax.ok and lax.digest == strict.digest


class TestDeterminismUnderRetry:
    def test_trace_metrics_and_series_digests_survive_recovery(
            self, tmp_path):
        from repro.obs import Observability, TraceRecorder

        def traced_run(spec, jobs):
            obs = Observability(trace=TraceRecorder())
            result = run_spec(spec, SCALE, SEED, jobs=jobs,
                              resilience=fast_cfg(), obs=obs)
            return result, obs

        flaky = flaky_spec(
            tmp_path / "state", n=3, delegate="latency_variant",
            modes={1: {"mode": "raise", "fail_attempts": 1}})
        clean = flaky_spec(n=3, delegate="latency_variant")
        r_flaky, obs_flaky = traced_run(flaky, jobs=2)
        r_clean, obs_clean = traced_run(clean, jobs=1)
        assert r_flaky.tasks_retried >= 1
        assert r_flaky.digest == r_clean.digest
        assert obs_flaky.digest() == obs_clean.digest()
        assert len(obs_flaky.trace) == len(obs_clean.trace) > 0
        # Merged result metrics stay inside the determinism envelope;
        # harness.* telemetry lives on the obs context instead.
        assert r_flaky.metrics == r_clean.metrics
        assert not any(k.startswith("harness.") for k in r_flaky.metrics)
        assert obs_flaky.metrics.snapshot()["harness.retries"]["value"] >= 1


class TestIncrementalCacheWrites:
    """Regression: cache.put used to run only after *all* futures
    resolved, so a late failure discarded every finished task's entry."""

    def test_serial_failure_keeps_earlier_entries(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        spec = flaky_spec(tmp_path / "state",
                          modes={3: {"mode": "raise", "fail_attempts": 99}})
        with pytest.raises(SweepFailure):
            run_spec(spec, SCALE, SEED, jobs=1, cache=cache,
                     resilience=fast_cfg(max_retries=0))
        assert len(cache) == 3  # tasks 0-2 were persisted before the blowup

    def test_worker_crash_keeps_completed_entries(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        spec = flaky_spec(
            tmp_path / "state",
            modes={3: {"mode": "crash", "fail_attempts": 99,
                       "sleep_s": 0.3}})
        with pytest.raises(SweepFailure):
            run_spec(spec, SCALE, SEED, jobs=2, cache=cache,
                     resilience=fast_cfg(max_retries=0))
        assert len(cache) >= 1

    def test_resume_after_failure_completes_with_identical_digest(
            self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        spec = flaky_spec(tmp_path / "state",
                          modes={3: {"mode": "raise", "fail_attempts": 1}})
        with pytest.raises(SweepFailure):
            run_spec(spec, SCALE, SEED, jobs=1, cache=cache,
                     resilience=fast_cfg(max_retries=0))
        rerun = run_spec(spec, SCALE, SEED, jobs=1, cache=cache,
                         resilience=fast_cfg(max_retries=0))
        assert rerun.ok
        assert rerun.tasks_cached == 3
        assert rerun.digest == reference_run().digest


class _ReadOnlyCache(ResultCache):
    """Models a cache directory that became read-only mid-flight (plain
    chmod is no use here: tests may run as root, which bypasses modes)."""

    def put(self, digest, entry):
        raise PermissionError(13, "Permission denied", self.root)


class TestErrorPathParity:
    """Engine error paths behave identically at jobs=1 and jobs=4."""

    def test_read_only_cache_dir_parity(self, tmp_path):
        runs = {}
        for jobs in (1, 4):
            cache = _ReadOnlyCache(str(tmp_path / f"cache{jobs}"))
            runs[jobs] = (run_spec(flaky_spec(), SCALE, SEED, jobs=jobs,
                                   cache=cache, resilience=fast_cfg()),
                          cache)
        (r1, c1), (r4, c4) = runs[1], runs[4]
        assert r1.digest == r4.digest
        assert [s.to_dict() for s in r1.series] == \
               [s.to_dict() for s in r4.series]
        assert r1.metrics == r4.metrics
        assert c1.errors == c4.errors == 4  # every put swallowed + counted
        assert len(c1) == len(c4) == 0

    def test_unknown_runner_name_parity(self, tmp_path):
        for jobs in (1, 4):
            spec = flaky_spec(name=f"bad-runner-{jobs}",
                              runner="no_such_runner")
            with pytest.raises(SweepFailure, match="unknown task runner"):
                run_spec(spec, SCALE, SEED, jobs=jobs,
                         resilience=fast_cfg(max_retries=0))

    def test_duplicate_task_keys_parity(self):
        spec = ExperimentSpec(
            name="dup", description="d", tags=("t",),
            decompose=lambda scale, seed: [
                SweepTask("dup", (1,), "flaky_probe", {"index": 1}),
                SweepTask("dup", (1,), "flaky_probe", {"index": 1}),
            ],
            merge=lambda scale, seed, ordered: [])
        for jobs in (1, 4):
            with pytest.raises(ValueError, match="duplicate task keys"):
                run_spec(spec, SCALE, SEED, jobs=jobs)


class TestFlakyProbe:
    def test_claim_attempt_is_monotonic(self, tmp_path):
        d = str(tmp_path / "state")
        assert [claim_attempt(d, 0) for _ in range(3)] == [1, 2, 3]
        assert claim_attempt(d, 1) == 1  # per-task counters

    def test_payload_is_attempt_independent(self, tmp_path):
        p = {"index": 2, "value": 20.0, "mode": "raise",
             "fail_attempts": 1, "state_dir": str(tmp_path / "s")}
        with pytest.raises(RuntimeError, match="injected failure"):
            flaky_probe(SCALE, SEED, p)
        recovered = flaky_probe(SCALE, SEED, p)
        pristine = flaky_probe(SCALE, SEED, {"index": 2, "value": 20.0})
        assert recovered == pristine


class TestCliFailureReport:
    def _patch_fig5a(self, monkeypatch, tmp_path, modes):
        spec = flaky_spec(tmp_path / "state", name="fig5a", modes=modes)
        monkeypatch.setitem(SPECS, "fig5a", spec)

    def test_engine_failure_becomes_report_and_exit_code(
            self, monkeypatch, tmp_path, capsys):
        self._patch_fig5a(monkeypatch, tmp_path,
                          {0: {"mode": "raise", "fail_attempts": 99}})
        rc = main(["fig5a", "--scale", "0.01", "--retries", "0"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "sweep failed:" in err
        assert "exception after 1 attempt(s)" in err
        assert "Traceback" not in err

    def test_keep_going_prints_partial_report(
            self, monkeypatch, tmp_path, capsys):
        self._patch_fig5a(monkeypatch, tmp_path,
                          {1: {"mode": "raise", "fail_attempts": 99}})
        rc = main(["fig5a", "--scale", "0.01", "--retries", "0",
                   "--keep-going"])
        assert rc == 1
        captured = capsys.readouterr()
        assert "flaky" in captured.out  # salvaged series still printed
        assert "partial results: 1 sweep task(s) failed" in captured.err

    def test_healthy_run_exit_zero_with_retries_flag(self, capsys):
        assert main(["fig5a", "--scale", "0.01", "--retries", "1"]) == 0


class TestCliRecoveryHint:
    """A stopped sweep's hint says what was kept: the cache root and a
    plain re-run with --cache-dir, nothing without it."""

    @pytest.mark.parametrize("error, code", [
        (SweepFailure([]), 1),
        (RemoteFabricError("every worker died"), 1),
        (KeyboardInterrupt(), 130),
    ], ids=["sweep-failure", "fabric-error", "interrupt"])
    @pytest.mark.parametrize("with_cache", [True, False],
                             ids=["cache-dir", "no-cache"])
    def test_hint_names_what_was_kept(self, monkeypatch, tmp_path, capsys,
                                      error, code, with_cache):
        def stopped(*args, **kwargs):
            raise error

        monkeypatch.setattr("repro.cli.run_results", stopped)
        cache_dir = str(tmp_path / "cache")
        argv = ["fig5a", "--scale", "0.01"]
        if with_cache:
            argv += ["--cache-dir", cache_dir]
        assert main(argv) == code
        err = capsys.readouterr().err
        if with_cache:
            assert f"completed tasks are cached in {cache_dir}" in err
            assert "re-run the same command" in err
        else:
            assert "completed tasks were not kept" in err
            assert "re-run with --cache-dir to keep them" in err
            assert "cached" not in err
