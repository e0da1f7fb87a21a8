"""Backend-agnostic sweep scheduler with deterministic merging.

:func:`run_spec` executes one experiment's
:class:`~repro.experiments.api.SweepTask` decomposition on whichever
:class:`~repro.experiments.backends.ExecutionBackend` the run's
:class:`~repro.experiments.config.RunConfig` selects — serial inline,
the local process pool, or the remote worker fabric — and merges the
per-task payloads **in task order**, never completion order. Every
backend runs each task under its own private
:class:`~repro.obs.Observability` (fresh metrics registry, plus a fresh
trace recorder when the parent run traces) and the scheduler folds the
telemetry into the parent the same way, so any two runs of the same
spec are byte-identical regardless of backend: same series, same
:class:`~repro.experiments.api.RunResult` digest, same trace digest,
same merged metrics snapshot.

Randomness: tasks carry no RNG state across process (or host)
boundaries — each task re-derives its substreams from ``(scale, seed,
task params)`` exactly as the serial sweep's points do, which is what
makes the decomposition sound in the first place.

Caching: with a :class:`~repro.experiments.cache.ResultCache` attached,
each task is looked up by the SHA-256 of its content-addressed cache
material before executing and stored **as soon as its result arrives**
(completion order), so a crash late in a sweep never discards earlier
tasks' entries; warm re-runs skip the simulation wholesale. The cache
is therefore also the sweep's checkpoint: a sweep killed under any
backend is finished by running it again with the same cache, which
executes only the tasks with no entry. For the remote backend the
cache doubles as the fabric's shared artifact store: workers push
results back with their task replies and the scheduler writes them
through the same atomic cache path. Cache *reads* are disabled while
an observability context is attached, because a cache hit cannot
replay the trace events the context would have recorded (entries are
still written, so a traced cold run warms the cache for later
untraced runs).

Resilience (see :mod:`repro.experiments.resilience`): every task runs
under a :class:`~repro.experiments.resilience.ResilienceConfig` —
bounded retries with exponential backoff for tasks that raise, per-task
wall-clock watchdogs for backends whose workers can be terminated, and
transparent recovery from dead workers (pool rebuild, remote requeue).
Because task payloads are pure functions of ``(task, scale, seed)``, a
task that fails and then succeeds on retry yields a byte-identical
series/trace/metrics digest to a run that never failed. Harness-level
telemetry (``harness.retries``, ``harness.timeouts``,
``harness.worker_crashes``, ``harness.workers_lost``, ...) is emitted
to the ambient :mod:`repro.obs` context and deliberately kept *out* of
the merged :class:`RunResult` metrics, which stay inside the
determinism envelope.
"""

from __future__ import annotations

from typing import Optional

import repro.obs as obs_mod
from repro import __version__
from repro.experiments.api import (
    ExperimentSpec,
    RunResult,
    TaskResult,
    now,
    series_digest,
)
from repro.experiments.backends.base import SweepPlan
from repro.experiments.cache import material_digest
from repro.experiments.config import RunConfig
from repro.experiments.resilience import SweepFailure, TaskFailure
from repro.obs.metrics import MetricsRegistry

#: Failure kind -> harness stats counter name.
_KIND_COUNTERS = {
    "exception": "task_errors",
    "timeout": "timeouts",
    "worker-crash": "worker_crashes",
}


def run_spec(
    spec: ExperimentSpec,
    scale: float = 0.1,
    seed: int = 42,
    *,
    config: Optional[RunConfig] = None,
    obs: Optional["obs_mod.Observability"] = None,
) -> RunResult:
    """Execute one experiment spec and merge its tasks deterministically.

    ``config`` selects the backend, parallelism, cache and resilience
    policy (``None``: :class:`RunConfig`'s defaults — inline execution,
    no cache). With a cache, tasks an earlier (killed) invocation
    stored are not executed again; the final result is byte-identical
    to an uninterrupted run on any backend.
    """
    t_run = now()
    if config is None:
        config = RunConfig()
    cfg = config.resolved_resilience
    cache = config.cache
    backend = config.make_backend()

    tasks = spec.decompose(scale, seed)
    keys = [t.key for t in tasks]
    if len(set(keys)) != len(keys):
        raise ValueError(f"{spec.name}: duplicate task keys in decompose")

    # Trace/checker replay needs the task's event stream; a metrics-only
    # or absent context does not.
    capture = obs is not None and obs.listening
    read_cache = cache is not None and obs is None

    stats = {"retries": 0, "task_errors": 0, "timeouts": 0,
             "worker_crashes": 0, "pool_rebuilds": 0}
    failures: list[TaskFailure] = []

    digests: list[Optional[str]] = [None] * len(tasks)
    results: list[Optional[TaskResult]] = [None] * len(tasks)

    def record(i: int, payload) -> None:
        """Accept one task's result: keep it and cache it."""
        results[i] = TaskResult(tasks[i], *payload)
        if cache is not None:
            cache.put_payload(digests[i], payload)

    def restore(i: int, cached: bool = False) -> bool:
        """Install task ``i``'s cached payload as its result, without
        writing it back; False on a miss. ``cached`` marks a cache hit
        (the remote backend's hash-only replies are not)."""
        payload = cache.get_payload(digests[i])
        if payload is not None:
            results[i] = TaskResult(tasks[i], *payload, cached=cached)
        return payload is not None

    todo: list[int] = []
    for i, task in enumerate(tasks):
        if cache is not None:
            digests[i] = material_digest(
                task.cache_material(scale, seed, __version__))
        if not (read_cache and restore(i, cached=True)):
            todo.append(i)

    def dispose(i: int, attempt: int, kind: str,
                message: str) -> Optional[float]:
        """Account one failed attempt; returns the backoff delay before
        the next attempt, or ``None`` when the task is terminally dead
        (raises :class:`SweepFailure` unless keep-going)."""
        stats[_KIND_COUNTERS[kind]] += 1
        if attempt <= cfg.max_retries:
            stats["retries"] += 1
            return cfg.backoff_s(attempt)
        failures.append(TaskFailure(kind, spec.name, tuple(tasks[i].key),
                                    attempt, message))
        if not cfg.keep_going:
            raise SweepFailure(failures)
        return None

    # Remote-fabric cache shipping: when cache *reads* are bypassed by
    # an attached obs context but no trace events are needed, the store
    # may still hold a task's result — the remote backend then marks
    # the task frame ``have``, the worker confirms by hash instead of
    # shipping the payload back, and ``restore`` redeems the hash.
    known: Optional[set] = None
    if cache is not None and not read_cache and not capture:
        known = {i for i in todo if cache.contains(digests[i])}

    plan = SweepPlan(tasks=tasks, todo=todo, scale=scale, seed=seed,
                     capture=capture, resilience=cfg, record=record,
                     dispose=dispose, stats=stats, digests=digests,
                     known=known,
                     restore=restore if cache is not None else None)
    backend.execute(plan)

    # Deterministic absorption: task order, regardless of which worker
    # (or host) produced each payload.
    merged = MetricsRegistry()
    for r in results:
        if r is None:
            continue
        if obs is not None:
            for (t, component, kind, data) in r.events:
                obs.emit(t, component, kind, **data)
            if r.metrics:
                obs.metrics.absorb_snapshot(r.metrics)
        if r.metrics:
            merged.absorb_snapshot(r.metrics)

    done = [r for r in results if r is not None]
    if failures:
        stats["tasks_salvaged"] = len(done)
    series = spec.merge(scale, seed, [(r.task.key, r.data) for r in done])
    result = RunResult(
        name=spec.name,
        series=series,
        metrics=merged.snapshot(),
        digest=series_digest(series),
        elapsed_s=now() - t_run,
        tasks_total=len(tasks),
        tasks_cached=sum(1 for r in done if r.cached),
        tasks_failed=len(failures),
        tasks_retried=stats["retries"],
        failures=tuple(failures),
    )

    # Harness telemetry goes to the ambient obs context, never into the
    # merged result metrics (those must match a run that never failed).
    ctx = obs if obs is not None else obs_mod.current()
    if ctx is not None:
        if failures:
            stats["tasks_failed"] = len(failures)
        for name in sorted(stats):
            if stats[name]:
                ctx.metrics.inc(f"harness.{name}", stats[name])
    return result


def run_named(
    name: str,
    scale: float = 0.1,
    seed: int = 42,
    *,
    config: Optional[RunConfig] = None,
    obs: Optional["obs_mod.Observability"] = None,
) -> RunResult:
    """:func:`run_spec` by exact experiment key."""
    from repro.experiments.specs import get_spec
    return run_spec(get_spec(name), scale, seed, config=config, obs=obs)
