"""Crash-safe resume tests: the harness itself is killed and restarted.

A subprocess runs a sweep whose fault-injecting task SIGKILLs the
harness (or the test SIGINTs it) partway through; the result cache
must hold every task that completed, and a plain re-run with the same
cache must finish only the remaining work while producing a digest
byte-identical to an uninterrupted run. This is the harness-level
analogue of the supernode crash/failover chaos tests in tests/faults.
"""

import json
import os
import signal
import subprocess
import sys
import textwrap
import time

import pytest

from repro.cli import main
from repro.experiments.api import ExperimentSpec, SweepTask
from repro.experiments.cache import ResultCache
from repro.experiments.config import RunConfig
from repro.experiments.parallel import run_spec
from repro.experiments.resilience import ResilienceConfig
from repro.experiments.specs import merge_series_fragments

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")
SCALE = 0.02
SEED = 7

#: Harness subprocess: builds the spec from a shared params file so the
#: in-process re-run addresses byte-identical cache keys.
HARNESS = textwrap.dedent("""
    import json, sys
    sys.path.insert(0, {src!r})
    from repro.experiments.api import ExperimentSpec, SweepTask
    from repro.experiments.config import RunConfig
    from repro.experiments.parallel import run_spec
    from repro.experiments.resilience import ResilienceConfig
    from repro.experiments.specs import merge_series_fragments

    import os
    with open({pid_file!r}, "w", encoding="utf-8") as fp:
        fp.write(str(os.getpid()))
    with open({params!r}, "r", encoding="utf-8") as fp:
        params = json.load(fp)
    spec = ExperimentSpec(
        name="resumable", description="d", tags=("t",),
        decompose=lambda scale, seed: [
            SweepTask("resumable", (p["index"],), "flaky_probe", p)
            for p in params],
        merge=lambda scale, seed, ordered: merge_series_fragments(ordered))
    try:
        run_spec(spec, {scale!r}, {seed!r},
                 config=RunConfig(jobs=2, cache_dir={cache!r},
                                  resilience=ResilienceConfig(
                                      max_retries=0,
                                      backoff_base_s=0.001)))
    except KeyboardInterrupt:
        sys.exit(130)
    sys.exit(0)
""")


def build_params(tmp_path, killer=None, sleep_s=0.0, n=4):
    params = []
    for i in range(n):
        p = {"index": i, "value": float(i * 10),
             "state_dir": str(tmp_path / "state")}
        if sleep_s:
            p["sleep_s"] = sleep_s
        if killer is not None and i == killer:
            p.update({"mode": "kill-parent", "fail_attempts": 1,
                      "sleep_s": 1.0,
                      "pid_file": str(tmp_path / "harness.pid")})
        params.append(p)
    return params


def spec_from_params(params):
    return ExperimentSpec(
        name="resumable", description="d", tags=("t",),
        decompose=lambda scale, seed: [
            SweepTask("resumable", (p["index"],), "flaky_probe", p)
            for p in params],
        merge=lambda scale, seed, ordered: merge_series_fragments(ordered))


@pytest.fixture
def launch_harness():
    """Start harness subprocesses, each in a session of its own.

    A SIGKILLed harness leaves its pool workers behind, reparented to
    init. They stay in the harness's process group, so teardown kills
    each group, whether the test passed or failed.
    """
    procs = []

    def launch(tmp_path, params):
        params_file = tmp_path / "params.json"
        params_file.write_text(json.dumps(params))
        script = HARNESS.format(src=os.path.abspath(SRC),
                                params=str(params_file),
                                scale=SCALE, seed=SEED,
                                cache=str(tmp_path / "cache"),
                                pid_file=str(tmp_path / "harness.pid"))
        proc = subprocess.Popen([sys.executable, "-c", script],
                                stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE,
                                start_new_session=True)
        procs.append(proc)
        return proc

    yield launch
    for proc in procs:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


def wait_for_entry(root, proc, timeout_s=60.0):
    """Block until the running harness has cached its first task.

    Counts entry files instead of opening a :class:`ResultCache`,
    whose sweep of ``*.tmp`` files would race the harness's writes.
    """
    deadline = time.monotonic() + timeout_s
    while not any(name.endswith(".json")
                  for _dir, _subdirs, files in os.walk(root)
                  for name in files):
        assert proc.poll() is None, "harness exited before caching a task"
        assert time.monotonic() < deadline, "harness cached no task"
        time.sleep(0.02)


def rerun(tmp_path, params):
    """The same sweep again, in-process, with no flag but the cache."""
    return run_spec(
        spec_from_params(params), SCALE, SEED,
        config=RunConfig(
            jobs=2, cache=ResultCache(str(tmp_path / "cache")),
            resilience=ResilienceConfig(max_retries=0,
                                        backoff_base_s=0.001)))


def uninterrupted_digest(tmp_path, n=4):
    clean = [{"index": i, "value": float(i * 10)} for i in range(n)]
    return run_spec(spec_from_params(clean), SCALE, SEED).digest


class TestParentKillResume:
    def test_sigkilled_harness_resumes_to_identical_digest(
            self, tmp_path, launch_harness):
        params = build_params(tmp_path, killer=2)
        proc = launch_harness(tmp_path, params)
        proc.wait(timeout=120)
        assert proc.returncode == -signal.SIGKILL

        # The cache kept the tasks that finished pre-kill.
        done = len(ResultCache(str(tmp_path / "cache")))
        assert done >= 2

        # Re-run in-process: only the remaining tasks execute (the
        # killer's attempt counter has moved past its failure window).
        result = rerun(tmp_path, params)
        assert result.ok
        assert result.tasks_cached == done
        assert result.digest == uninterrupted_digest(tmp_path)
        # And the cache now holds the whole run.
        assert len(ResultCache(str(tmp_path / "cache"))) == 4

    def test_second_kill_then_resume_still_converges(
            self, tmp_path, launch_harness):
        params = build_params(tmp_path, killer=2)
        # fail_attempts=2: the killer strikes on the re-run as well.
        params[2]["fail_attempts"] = 2
        for expected_kill in (True, True):
            proc = launch_harness(tmp_path, params)
            proc.wait(timeout=120)
            assert proc.returncode == -signal.SIGKILL
        assert len(ResultCache(str(tmp_path / "cache"))) >= 2
        result = rerun(tmp_path, params)
        assert result.ok
        assert result.digest == uninterrupted_digest(tmp_path)


class TestSigintDrain:
    def test_sigint_keeps_completed_tasks_and_rerun_completes(
            self, tmp_path, launch_harness):
        params = build_params(tmp_path, sleep_s=0.8)
        proc = launch_harness(tmp_path, params)
        # First worker batch done, second in flight.
        wait_for_entry(tmp_path / "cache", proc)
        proc.send_signal(signal.SIGINT)
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 130, (out, err)

        kept = len(ResultCache(str(tmp_path / "cache")))
        assert kept >= 1
        result = rerun(tmp_path, params)
        assert result.ok
        assert result.tasks_cached == kept
        assert result.digest == uninterrupted_digest(tmp_path)


class TestCliResume:
    def test_rerun_serves_every_task_from_cache(self, tmp_path, capsys):
        argv = ["fig5a", "--scale", "0.01", "--seed", "3",
                "--cache-dir", str(tmp_path / "cache")]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv) == 0
        assert "[cache] 5 hits, 0 misses" in capsys.readouterr().out
