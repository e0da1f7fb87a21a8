"""Unified execution configuration for the sweep engine.

:class:`RunConfig` is the one frozen value object that carries how a
sweep executes — backend, parallelism, cache and resilience — into :func:`~repro.experiments.parallel.run_spec`,
:func:`~repro.experiments.parallel.run_named`,
:func:`~repro.experiments.runner.run_results`,
:func:`~repro.experiments.runner.run_experiment` and
:func:`~repro.experiments.runner.run_all`::

    run_spec(spec, scale, seed, config=RunConfig(jobs=4, cache_dir=...))
    run_spec(spec, scale, seed,
             config=RunConfig(backend="remote", launch=2))

Each entry point reads ``config=None`` as ``RunConfig()``. Validation
happens in one place — :meth:`RunConfig.__post_init__` — so direct
construction and ``RunConfig.from_args`` on a parsed CLI namespace
reject bad combinations with the same message: negative ``jobs``, an
unknown backend name, or a remote backend with no way to reach
workers.

``jobs`` semantics (documented here once, enforced by
:func:`resolve_jobs`): ``None`` and ``0`` both mean "use every core
``os.cpu_count()`` reports"; positive integers are taken literally;
negative values are rejected.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Union

from repro.experiments.cache import ResultCache
from repro.experiments.resilience import DEFAULT_RESILIENCE, ResilienceConfig

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.experiments.backends.base import ExecutionBackend


#: Accepted ``backend=`` names (``"auto"`` picks inline for one worker,
#: pool otherwise).
BACKEND_NAMES = ("auto", "inline", "pool", "remote")


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalize a worker-count request.

    ``None`` and ``0`` both mean "all cores" (whatever
    ``os.cpu_count()`` reports); positive integers pass through;
    negative values are rejected — there is no ``-N`` shorthand.
    """
    if jobs is None or jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise ValueError(
            f"jobs must be >= 0 (0 or None = all cores), got {jobs}")
    return int(jobs)


@dataclass(frozen=True)
class RunConfig:
    """How one sweep executes: backend, parallelism, cache, resilience.

    The object is frozen — treat it as a value; derived state (the
    result cache built from ``cache_dir``, the memoized backend) is
    attached once and shared by every run using this config, so cache
    hit/miss accounting and a remote backend's worker fabric span a
    whole ``run_all`` instead of resetting per experiment.
    """

    #: ``"auto"`` | ``"inline"`` | ``"pool"`` | ``"remote"``, or an
    #: already-constructed :class:`ExecutionBackend`. ``"auto"`` runs
    #: inline when one worker is requested and on the pool otherwise.
    backend: Union[str, "ExecutionBackend", None] = "auto"
    #: Worker processes for the pool backend (``0``/``None`` = all
    #: cores; see :func:`resolve_jobs`).
    jobs: Optional[int] = 1
    #: Content-addressed result cache (shared artifact store for the
    #: remote backend, and the checkpoint a re-run of a killed sweep
    #: finishes from). Built from ``cache_dir`` when not given.
    cache: Optional[ResultCache] = None
    #: Convenience: directory to build :attr:`cache` from.
    cache_dir: Optional[str] = None
    #: Retry/timeout/keep-going policy (None = the default policy).
    resilience: Optional[ResilienceConfig] = None
    #: Remote backend: ``"host:port"`` addresses of listening worker
    #: daemons to dial (``cloudfog worker --listen ...``). A comma
    #: separated string is accepted and split.
    workers: tuple = ()
    #: Remote backend: scheduler bind address for dial-in workers
    #: (``cloudfog worker --connect ...``).
    listen: Optional[str] = None
    #: Remote backend: number of loopback workers to spawn via
    #: :attr:`launcher`.
    launch: int = 0
    #: Worker launch command template; ``{addr}`` (and ``{host}``,
    #: ``{port}``) are substituted. Default: this interpreter running
    #: ``repro.cli worker --connect {addr}``. SSH-compatible, e.g.
    #: ``"ssh gpu1 cloudfog worker --connect {addr}"``.
    launcher: Optional[str] = None
    #: Remote backend: task slots per *launched* worker daemon (the
    #: default launcher passes ``--slots N``; daemons started by hand
    #: set their own). Each slot is one in-worker task process.
    slots: int = 1
    #: Remote backend: tasks queued on a worker beyond its executing
    #: slots, hiding the dispatch round-trip. 0 disables pipelining
    #: (dispatch stop-and-wait per slot) — useful under tight per-task
    #: timeouts, whose clock starts at dispatch.
    prefetch: int = 2

    def __post_init__(self):
        resolve_jobs(self.jobs)  # the single jobs-validation point
        if isinstance(self.workers, str):
            parts = tuple(a for a in
                          (p.strip() for p in self.workers.split(","))
                          if a)
            object.__setattr__(self, "workers", parts)
        else:
            object.__setattr__(self, "workers", tuple(self.workers))
        name = self.backend_name
        if name not in BACKEND_NAMES:
            raise ValueError(
                f"unknown backend {self.backend!r} "
                f"(choose from {', '.join(BACKEND_NAMES)} or pass an "
                f"ExecutionBackend instance)")
        if self.launch < 0:
            raise ValueError(f"launch must be >= 0, got {self.launch}")
        if self.slots < 1:
            raise ValueError(f"slots must be >= 1, got {self.slots}")
        if self.prefetch < 0:
            raise ValueError(
                f"prefetch must be >= 0, got {self.prefetch}")
        if self.cache is None and self.cache_dir:
            object.__setattr__(self, "cache", ResultCache(self.cache_dir))
        if (name == "remote" and isinstance(self.backend, str)
                and not (self.workers or self.listen or self.launch)):
            # An already-constructed RemoteBackend instance carries its
            # own endpoints; only the by-name form needs them here.
            raise ValueError(
                "the remote backend needs at least one of workers= "
                "(addresses to dial), listen= (accept dial-in workers) "
                "or launch= (spawn loopback workers)")

    # -- derived views ----------------------------------------------------

    @property
    def backend_name(self) -> str:
        """The backend's name, normalizing None and instances."""
        if self.backend is None:
            return "auto"
        if isinstance(self.backend, str):
            return self.backend
        return getattr(self.backend, "name", "auto")

    @property
    def resolved_resilience(self) -> ResilienceConfig:
        return (self.resilience if self.resilience is not None
                else DEFAULT_RESILIENCE)

    def make_backend(self) -> "ExecutionBackend":
        """The (memoized) backend instance this config executes on.

        Every :func:`run_spec` call sharing this config reuses the same
        backend, so a remote fabric's workers persist across the
        experiments of one ``run_all``/CLI invocation.
        """
        backend = getattr(self, "_backend", None)
        if backend is None:
            backend = self._build_backend()
            object.__setattr__(self, "_backend", backend)
        return backend

    def _build_backend(self) -> "ExecutionBackend":
        from repro.experiments.backends import (
            ExecutionBackend,
            InlineBackend,
            PoolBackend,
            RemoteBackend,
        )
        if isinstance(self.backend, ExecutionBackend):
            return self.backend
        name = self.backend_name
        if name == "auto":
            name = "pool" if resolve_jobs(self.jobs) > 1 else "inline"
        if name == "inline":
            return InlineBackend()
        if name == "pool":
            return PoolBackend(jobs=self.jobs)
        return RemoteBackend(workers=self.workers, listen=self.listen,
                             launch=self.launch, launcher=self.launcher,
                             slots=self.slots, prefetch=self.prefetch)

    def close(self) -> None:
        """Tear down the memoized backend (bye frames to dial-out
        workers, terminate launched ones). Safe to call repeatedly."""
        backend = getattr(self, "_backend", None)
        if backend is not None:
            object.__setattr__(self, "_backend", None)
            backend.close()

    def __enter__(self) -> "RunConfig":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- construction helpers ---------------------------------------------

    @classmethod
    def from_args(cls, args) -> "RunConfig":
        """Build a config from a parsed argparse namespace.

        Reads the flags :func:`repro.cli.add_execution_args` installs;
        missing attributes fall back to the library defaults, so any
        namespace (even a bare ``argparse.Namespace()``) works.
        """
        resilience = ResilienceConfig(
            max_retries=getattr(args, "retries", 2),
            timeout_s=getattr(args, "task_timeout", None),
            keep_going=getattr(args, "keep_going", False),
        )
        backend = getattr(args, "backend", "auto") or "auto"
        if backend == "auto" and (getattr(args, "workers", None)
                                  or getattr(args, "listen", None)
                                  or getattr(args, "launch", 0)):
            backend = "remote"  # --workers/--listen/--launch imply it
        return cls(
            backend=backend,
            jobs=getattr(args, "jobs", 1),
            cache_dir=getattr(args, "cache_dir", None),
            resilience=resilience,
            workers=getattr(args, "workers", None) or (),
            listen=getattr(args, "listen", None),
            launch=getattr(args, "launch", 0) or 0,
            launcher=getattr(args, "launcher", None),
            slots=getattr(args, "slots", 1) or 1,
            prefetch=(2 if getattr(args, "prefetch", None) is None
                      else args.prefetch),
        )
