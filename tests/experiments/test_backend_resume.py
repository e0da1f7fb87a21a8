"""Resuming across execution backends.

The result cache is keyed by content-addressed material, not by
backend: a sweep whose scheduler is SIGKILLed while running on one
backend must be finished by a re-run on a *different* backend and
converge to a digest byte-identical to an uninterrupted run. This
extends the kill-the-harness suite in ``test_resilience_resume.py``
(pool-only) to the inline and remote backends.
"""

import json
import os
import signal
import subprocess
import sys
import textwrap

import pytest

from repro.experiments.api import ExperimentSpec, SweepTask
from repro.experiments.cache import ResultCache
from repro.experiments.config import RunConfig
from repro.experiments.parallel import run_spec
from repro.experiments.resilience import ResilienceConfig
from repro.experiments.specs import merge_series_fragments

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")
SCALE = 0.02
SEED = 7

#: Harness subprocess: runs the sweep on the backend under test until a
#: kill-parent task SIGKILLs it. The spec is rebuilt from a shared
#: params file so the re-running process addresses byte-identical
#: cache keys.
HARNESS = textwrap.dedent("""
    import json, os, sys
    sys.path.insert(0, {src!r})
    from repro.experiments.api import ExperimentSpec, SweepTask
    from repro.experiments.config import RunConfig
    from repro.experiments.parallel import run_spec
    from repro.experiments.resilience import ResilienceConfig
    from repro.experiments.specs import merge_series_fragments

    with open({pid_file!r}, "w", encoding="utf-8") as fp:
        fp.write(str(os.getpid()))
    with open({params!r}, "r", encoding="utf-8") as fp:
        params = json.load(fp)
    spec = ExperimentSpec(
        name="xresume", description="d", tags=("t",),
        decompose=lambda scale, seed: [
            SweepTask("xresume", (p["index"],), "flaky_probe", p)
            for p in params],
        merge=lambda scale, seed, ordered: merge_series_fragments(ordered))
    config = RunConfig(
        cache_dir={cache!r},
        resilience=ResilienceConfig(max_retries=0, backoff_base_s=0.001),
        **json.loads({config_json!r}))
    try:
        run_spec(spec, {scale!r}, {seed!r}, config=config)
    finally:
        config.close()
    sys.exit(0)
""")


def build_params(tmp_path, killer=2, n=4):
    params = []
    for i in range(n):
        p = {"index": i, "value": float(i * 10),
             "state_dir": str(tmp_path / "state")}
        if i == killer:
            p.update({"mode": "kill-parent", "fail_attempts": 1,
                      "sleep_s": 1.0,
                      "pid_file": str(tmp_path / "harness.pid")})
        params.append(p)
    return params


def spec_from_params(params):
    return ExperimentSpec(
        name="xresume", description="d", tags=("t",),
        decompose=lambda scale, seed: [
            SweepTask("xresume", (p["index"],), "flaky_probe", p)
            for p in params],
        merge=lambda scale, seed, ordered: merge_series_fragments(ordered))


def launch_harness(tmp_path, params, config_kwargs):
    params_file = tmp_path / "params.json"
    params_file.write_text(json.dumps(params))
    script = HARNESS.format(src=os.path.abspath(SRC),
                            params=str(params_file),
                            scale=SCALE, seed=SEED,
                            cache=str(tmp_path / "cache"),
                            pid_file=str(tmp_path / "harness.pid"),
                            config_json=json.dumps(config_kwargs))
    return subprocess.Popen([sys.executable, "-c", script],
                            stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)


def uninterrupted_pool_digest(n=4):
    clean = [{"index": i, "value": float(i * 10)} for i in range(n)]
    return run_spec(spec_from_params(clean), SCALE, SEED,
                    config=RunConfig(backend="pool", jobs=2)).digest


@pytest.mark.parametrize("backend_kwargs", [
    pytest.param({"backend": "inline"}, id="inline"),
    pytest.param({"backend": "remote", "launch": 2}, id="remote"),
])
def test_killed_scheduler_resumes_on_pool_backend(tmp_path,
                                                  backend_kwargs):
    params = build_params(tmp_path)
    proc = launch_harness(tmp_path, params, backend_kwargs)
    proc.wait(timeout=120)
    assert proc.returncode == -signal.SIGKILL

    # The cache kept whatever finished before the kill — under any
    # backend, at least the tasks ahead of the killer.
    done = len(ResultCache(str(tmp_path / "cache")))
    assert done >= 2

    # Re-run on a *different* backend: cache keys are content
    # addressed, so the pool picks up exactly where the killed
    # scheduler stopped.
    result = run_spec(
        spec_from_params(params), SCALE, SEED,
        config=RunConfig(backend="pool", jobs=2,
                         cache_dir=str(tmp_path / "cache"),
                         resilience=ResilienceConfig(
                             max_retries=0, backoff_base_s=0.001)))
    assert result.ok
    assert result.tasks_cached == done
    assert result.digest == uninterrupted_pool_digest()
    # The cache now holds the complete run.
    assert len(ResultCache(str(tmp_path / "cache"))) == len(params)
