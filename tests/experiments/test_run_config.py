"""RunConfig: the unified execution-options surface.

Validation lives in one place (``RunConfig.__post_init__``) and the CLI
maps onto it through ``RunConfig.from_args``.
"""

import argparse
import os

import pytest

from repro.experiments import (
    InlineBackend,
    PoolBackend,
    ResilienceConfig,
    ResultCache,
    RunConfig,
    resolve_jobs,
)


class TestResolveJobs:
    def test_none_and_zero_mean_all_cores(self):
        assert resolve_jobs(None) == (os.cpu_count() or 1)
        assert resolve_jobs(0) == (os.cpu_count() or 1)

    def test_positive_passthrough(self):
        assert resolve_jobs(1) == 1
        assert resolve_jobs(7) == 7

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="jobs must be >= 0"):
            resolve_jobs(-2)


class TestRunConfigValidation:
    def test_defaults_are_serial_uncached(self):
        cfg = RunConfig()
        assert cfg.backend_name == "auto"
        assert cfg.jobs == 1
        assert cfg.cache is None

    def test_negative_jobs_rejected(self):
        with pytest.raises(ValueError, match="jobs must be >= 0"):
            RunConfig(jobs=-1)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend 'carrier'"):
            RunConfig(backend="carrier")

    def test_remote_needs_an_endpoint(self):
        with pytest.raises(ValueError, match="remote backend needs"):
            RunConfig(backend="remote")

    def test_remote_endpoint_forms_accepted(self):
        assert RunConfig(backend="remote",
                         workers="h:1").workers == ("h:1",)
        assert RunConfig(backend="remote",
                         listen="127.0.0.1:0").listen == "127.0.0.1:0"
        assert RunConfig(backend="remote", launch=2).launch == 2

    def test_negative_launch_rejected(self):
        with pytest.raises(ValueError, match="launch must be >= 0"):
            RunConfig(backend="remote", launch=-1)

    def test_workers_string_is_split(self):
        cfg = RunConfig(backend="remote", workers="a:1, b:2,,c:3 ")
        assert cfg.workers == ("a:1", "b:2", "c:3")

    def test_workers_iterable_is_frozen(self):
        cfg = RunConfig(backend="remote", workers=["a:1", "b:2"])
        assert cfg.workers == ("a:1", "b:2")

    def test_cache_dir_builds_cache(self, tmp_path):
        cfg = RunConfig(cache_dir=str(tmp_path / "c"))
        assert isinstance(cfg.cache, ResultCache)
        assert cfg.cache.root == str(tmp_path / "c")

    def test_throughput_knob_defaults(self):
        cfg = RunConfig()
        assert cfg.slots == 1
        assert cfg.prefetch == 2

    def test_bad_slots_rejected(self):
        with pytest.raises(ValueError, match="slots must be >= 1"):
            RunConfig(slots=0)

    def test_negative_prefetch_rejected(self):
        with pytest.raises(ValueError, match="prefetch must be >= 0"):
            RunConfig(prefetch=-1)


class TestBackendSelection:
    def test_auto_is_inline_for_one_worker(self):
        assert isinstance(RunConfig().make_backend(), InlineBackend)
        assert isinstance(RunConfig(jobs=1).make_backend(), InlineBackend)

    def test_auto_is_pool_for_many_workers(self):
        assert isinstance(RunConfig(jobs=4).make_backend(), PoolBackend)

    def test_explicit_names(self):
        assert isinstance(RunConfig(backend="inline", jobs=8)
                          .make_backend(), InlineBackend)
        assert isinstance(RunConfig(backend="pool").make_backend(),
                          PoolBackend)

    def test_backend_instance_passthrough(self):
        backend = InlineBackend()
        cfg = RunConfig(backend=backend)
        assert cfg.make_backend() is backend
        assert cfg.backend_name == "inline"

    def test_backend_is_memoized_until_close(self):
        cfg = RunConfig(jobs=3)
        first = cfg.make_backend()
        assert cfg.make_backend() is first
        cfg.close()
        assert cfg.make_backend() is not first

    def test_context_manager_closes(self):
        with RunConfig() as cfg:
            backend = cfg.make_backend()
        assert cfg.make_backend() is not backend

    def test_resolved_resilience_default_and_override(self):
        assert RunConfig().resolved_resilience.max_retries >= 0
        rc = ResilienceConfig(max_retries=9)
        assert RunConfig(resilience=rc).resolved_resilience is rc


class TestFromArgs:
    def _namespace(self, **kw):
        base = dict(backend="auto", jobs=1, cache_dir=None,
                    retries=2, task_timeout=None, keep_going=False,
                    workers="", listen=None, launch=0, launcher=None)
        base.update(kw)
        return argparse.Namespace(**base)

    def test_bare_namespace_uses_defaults(self):
        cfg = RunConfig.from_args(argparse.Namespace())
        assert cfg.backend_name == "auto"
        assert cfg.jobs == 1
        assert cfg.cache is None

    def test_full_namespace(self, tmp_path):
        cfg = RunConfig.from_args(self._namespace(
            backend="pool", jobs=3, cache_dir=str(tmp_path),
            retries=5, task_timeout=7.0, keep_going=True))
        assert cfg.backend_name == "pool"
        assert cfg.jobs == 3
        assert isinstance(cfg.cache, ResultCache)
        assert cfg.resolved_resilience.max_retries == 5
        assert cfg.resolved_resilience.timeout_s == 7.0
        assert cfg.resolved_resilience.keep_going is True

    def test_workers_imply_remote(self):
        cfg = RunConfig.from_args(self._namespace(workers="h:1,h:2"))
        assert cfg.backend_name == "remote"
        assert cfg.workers == ("h:1", "h:2")

    def test_launch_implies_remote(self):
        cfg = RunConfig.from_args(self._namespace(launch=2))
        assert cfg.backend_name == "remote"

    def test_explicit_backend_wins(self):
        cfg = RunConfig.from_args(self._namespace(backend="inline"))
        assert cfg.backend_name == "inline"

    def test_throughput_knobs_map_through(self):
        cfg = RunConfig.from_args(self._namespace(
            launch=2, slots=4, prefetch=0))
        assert cfg.slots == 4
        assert cfg.prefetch == 0

    def test_throughput_knob_defaults_on_bare_namespace(self):
        cfg = RunConfig.from_args(argparse.Namespace())
        assert cfg.slots == 1
        assert cfg.prefetch == 2

    def test_cli_flags_parse_into_config(self):
        from repro.cli import add_execution_args
        parser = argparse.ArgumentParser()
        add_execution_args(parser)
        args = parser.parse_args(
            ["--launch", "2", "--slots", "4", "--prefetch", "1"])
        cfg = RunConfig.from_args(args)
        assert cfg.backend_name == "remote"
        assert cfg.slots == 4
        assert cfg.prefetch == 1
