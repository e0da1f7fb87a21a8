"""Process-pool execution: the backend behind ``--jobs N``.

The transport is futures on a
:class:`~repro.experiments.resilience.PoolManager`, with in-flight
submissions capped at the worker count (submit time ≈ start time, so
a deadline measures the run, not a queue). Everything else is the
shared :class:`~repro.experiments.backends.base.SchedulerCore`: retry
backoff, per-task deadlines, requeue-or-fail and the SIGINT drain. The
whole pool is one unit: a timeout terminates it, and its innocent
in-flight tasks requeue without attempt penalty — salvaged instead
when they finished first. A broken pool (a SIGKILLed process) is
settled and rebuilt by ``PoolManager.collect``.

Every task runs in a slot process, even with one worker or one task
left, so the watchdog and crash isolation hold for every sweep; the
pool never has more processes than tasks, and a sweep with nothing
left to run starts none. ``backend="auto"`` with the default
``jobs=1`` resolves to the inline backend instead.
"""

from __future__ import annotations

from repro.experiments.backends.base import (
    ExecutionBackend,
    SchedulerCore,
    SweepPlan,
    execute_task,
)
from repro.experiments.config import resolve_jobs
from repro.experiments.resilience import PoolManager


class PoolBackend(ExecutionBackend):
    """Run tasks on a self-healing local process pool."""

    name = "pool"

    def __init__(self, jobs: int | None = None):
        #: Requested worker count (``0``/``None`` = all cores).
        self.jobs = jobs

    def execute(self, plan: SweepPlan) -> None:
        workers = min(resolve_jobs(self.jobs), max(1, len(plan.todo)))
        mgr = PoolManager(workers)
        try:
            with SchedulerCore(plan) as core:
                while core.busy():
                    core.release()
                    while core.pending and core.load(mgr) < workers:
                        i, attempt = core.pending.popleft()
                        fut = mgr.submit(execute_task, plan.tasks[i],
                                         plan.scale, plan.seed,
                                         plan.capture)
                        core.start(mgr, fut, i, attempt)
                    for fut, failure, value in mgr.collect(
                            core.tokens(mgr), core.wait_s()):
                        core.resolve(mgr, fut, failure, value)
                    core.expire(lambda _pool: mgr.rebuild(), mgr.salvage)
                    plan.stats["pool_rebuilds"] = mgr.rebuilds
        except BaseException:
            mgr.shutdown(terminate=True)
            raise
        mgr.shutdown()
