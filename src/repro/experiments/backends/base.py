"""Execution-backend contract for the sweep scheduler.

:func:`repro.experiments.parallel.run_spec` owns everything that must
be backend-agnostic — task decomposition, cache lookups and writes,
deterministic task-order merging — and hands the residual work
("run these task indices, call me back") to an
:class:`ExecutionBackend` as a :class:`SweepPlan`:

* :class:`~repro.experiments.backends.inline.InlineBackend` — serial,
  in-process (what tier-1 tests use);
* :class:`~repro.experiments.backends.pool.PoolBackend` — futures on a
  self-healing local process pool
  (:class:`~repro.experiments.resilience.PoolManager`);
* :class:`~repro.experiments.backends.remote.RemoteBackend` — the
  socket scheduler dispatching pickled tasks to ``cloudfog worker``
  daemons.

The two parallel backends drive one :class:`SchedulerCore`: the pending
queue, backoff, per-task deadlines, requeue-or-fail and the deferred
SIGINT live there once, and each backend keeps only its transport.

The determinism contract does not belong to any backend: payloads are
pure functions of ``(task, scale, seed)`` and the scheduler merges in
task order, so inline, pool and remote runs of the same spec produce
byte-identical series/trace/metrics digests. A backend only decides
*where* ``execute_task`` runs and how its failures map onto the
``exception`` / ``timeout`` / ``worker-crash`` taxonomy via
``plan.dispose``.
"""

from __future__ import annotations

import abc
import signal
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Optional

import repro.obs as obs_mod
from repro.experiments.api import SweepTask, now
from repro.experiments.resilience import ResilienceConfig
from repro.obs import Observability, TraceRecorder


def execute_task(task: SweepTask, scale: float, seed: int,
                 capture_trace: bool = False):
    """Run one task under a private observability context.

    Returns ``(data, metrics_snapshot, events, elapsed_s)`` where
    ``events`` is a tuple of ``(t, component, kind, data)`` tuples (empty
    unless ``capture_trace``). This is the function every backend ships
    to its workers — process-pool pickle, remote task frame, or a plain
    call inline: it takes only picklable values and resolves the runner
    by name from :data:`repro.experiments.specs.TASK_RUNNERS`.
    """
    from repro.experiments.specs import TASK_RUNNERS
    runner = TASK_RUNNERS.get(task.runner)
    if runner is None:
        raise KeyError(
            f"unknown task runner {task.runner!r} "
            f"(registered: {sorted(TASK_RUNNERS)})")
    task_obs = Observability(
        trace=TraceRecorder() if capture_trace else None)
    t0 = now()
    with obs_mod.use(task_obs):
        data = runner(scale, seed, task.params)
    elapsed = now() - t0
    events = (tuple((e.t, e.component, e.kind, e.data)
                    for e in task_obs.trace.events)
              if capture_trace else ())
    return data, task_obs.metrics.snapshot(), events, elapsed


@dataclass
class SweepPlan:
    """One sweep's remaining work, as handed to a backend.

    ``record(i, payload)`` accepts task ``i``'s successful payload (the
    scheduler keeps and caches it — for the remote backend this is the
    shared-artifact-store write-through). ``dispose(i,
    attempt, kind, message)`` accounts one failed attempt and returns
    the backoff delay before the next attempt, or ``None`` when the
    task is terminally dead (it raises
    :class:`~repro.experiments.resilience.SweepFailure` itself unless
    keep-going). ``stats`` is the run's harness-telemetry dict;
    backends may add their own counters (``pool_rebuilds``,
    ``workers_lost``, ...).
    """

    #: Full task list (indices below refer into it).
    tasks: list
    #: Indices still to execute (cache hits already removed).
    todo: list
    scale: float
    seed: int
    #: Capture per-task trace events for the parent obs context.
    capture: bool
    #: Retry/timeout/keep-going policy for this run.
    resilience: ResilienceConfig
    record: Callable[[int, Any], None]
    dispose: Callable[[int, int, str, str], Optional[float]]
    stats: dict
    #: Per-task content-address digests (None entries when the run has
    #: no cache). The remote backend ships them with task frames so
    #: workers key their local result caches identically.
    digests: Optional[list] = None
    #: Todo indices whose entry the scheduler's store already holds but
    #: could not serve directly (cache reads bypassed by an attached
    #: obs context): the remote backend marks their task frames
    #: ``have`` so workers answer with hash-only ``cached`` frames.
    known: Optional[set] = None
    #: Install task ``i``'s payload from the scheduler's store as its
    #: result, without writing the store (the ``cached``-frame
    #: redemption path); False on a miss. None when the run has no
    #: cache.
    restore: Optional[Callable[[int], bool]] = None


class SchedulerCore:
    """Retry and deadline bookkeeping for one sweep on a parallel backend.

    The transport files each dispatched task under a *unit* — what fails
    as one: the pool backend's process pool, or one remote worker — and
    a *token* of its choosing (a future, a frame tid). The core owns the
    ``pending`` queue and the backoff that refills it, requeue-or-fail
    through ``plan.dispose``, deadlines stamped at dispatch, expiry and
    condemned units. As a context manager it defers SIGINT (main thread
    only): :meth:`busy` raises ``KeyboardInterrupt`` at the next loop
    head, once the round in progress has recorded every result it got.
    """

    def __init__(self, plan: SweepPlan):
        self.plan = plan
        self.timeout_s = plan.resilience.timeout_s
        self.poll_s = plan.resilience.poll_interval_s
        #: (task index, attempt) pairs ready to dispatch, in order.
        self.pending = deque((i, 1) for i in plan.todo)
        self._backoff: list[tuple[float, int, int]] = []
        #: unit -> {token: (task index, attempt, deadline or None)}
        self._flight: dict[Any, dict] = {}
        self._interrupted = False
        self._prev_sigint = None

    def __enter__(self) -> "SchedulerCore":
        if threading.current_thread() is threading.main_thread():
            self._prev_sigint = signal.signal(signal.SIGINT,
                                              self._defer_sigint)
        return self

    def __exit__(self, *exc) -> None:
        if self._prev_sigint is not None:
            signal.signal(signal.SIGINT, self._prev_sigint)

    def _defer_sigint(self, _signum, _frame) -> None:
        self._interrupted = True

    def busy(self) -> bool:
        """Whether tasks remain queued, backing off or in flight."""
        if self._interrupted:
            raise KeyboardInterrupt
        return bool(self.pending or self._backoff
                    or any(self._flight.values()))

    def load(self, unit) -> int:
        """How many tasks are in flight on ``unit``."""
        return len(self._flight.get(unit, ()))

    def tokens(self, unit) -> list:
        """The in-flight tokens of ``unit``."""
        return list(self._flight.get(unit, ()))

    def release(self) -> None:
        """Move tasks whose backoff delay has run out to ``pending``."""
        nowm = time.monotonic()
        ready = sorted(b for b in self._backoff if b[0] <= nowm)
        if ready:
            self._backoff = [b for b in self._backoff if b[0] > nowm]
            self.pending.extend((i, attempt) for _t, i, attempt in ready)

    def start(self, unit, token, i: int, attempt: int) -> None:
        """File task ``i`` as in flight; its deadline runs from now."""
        deadline = (time.monotonic() + self.timeout_s
                    if self.timeout_s else None)
        self._flight.setdefault(unit, {})[token] = (i, attempt, deadline)

    def take(self, unit, token) -> Optional[tuple[int, int]]:
        """Take ``token`` out of flight: its ``(index, attempt)``, or
        None when the task was already requeued."""
        entry = self._flight.get(unit, {}).pop(token, None)
        return None if entry is None else entry[:2]

    def resolve(self, unit, token, failure: Optional[str], value) -> None:
        """Settle one reply: ``value`` is the payload, or — when
        ``failure`` names a failure kind — the message."""
        entry = self.take(unit, token)
        if entry is None:
            return
        if failure is None:
            self.plan.record(entry[0], value)
        else:
            self.fail(*entry, failure, value)

    def fail(self, i: int, attempt: int, kind: str, message: str) -> None:
        """Account one failed attempt: retry after a backoff, or leave
        the task to ``plan.dispose`` (which raises unless keep-going)."""
        delay = self.plan.dispose(i, attempt, kind, message)
        if delay is not None:
            self._backoff.append((time.monotonic() + delay, i, attempt + 1))

    def wait_s(self) -> float:
        """How long the transport may block: until the next backoff
        release or deadline, and never longer than ``poll_s``."""
        wakes = [t for t, _i, _a in self._backoff]
        wakes += [d for tasks in self._flight.values()
                  for _i, _a, d in tasks.values() if d is not None]
        if not wakes:
            return self.poll_s
        return max(0.0, min(self.poll_s, min(wakes) - time.monotonic()))

    def condemn(self, unit, kind: Optional[str] = None, message: str = "",
                salvage: Optional[Callable[[Any], Any]] = None) -> None:
        """Empty ``unit``: record what ``salvage(token)`` recovers, fail
        the rest as ``kind`` or, with no kind, requeue them penalty-free."""
        for token, (i, attempt, _d) in self._flight.pop(unit, {}).items():
            payload = salvage(token) if salvage is not None else None
            if payload is not None:
                self.plan.record(i, payload)
            elif kind is None:
                self.pending.append((i, attempt))
            else:
                self.fail(i, attempt, kind, message)

    def expire(self, drop: Callable[[Any], None],
               salvage: Optional[Callable[[Any], Any]] = None) -> None:
        """Fail every task past its deadline as ``timeout``; condemn its
        unit penalty-free (see :meth:`condemn`) and hand it to ``drop``."""
        nowm = time.monotonic()
        for unit, tasks in list(self._flight.items()):
            late = [t for t, (_i, _a, d) in tasks.items()
                    if d is not None and nowm >= d]
            for token in late:
                i, attempt, _d = tasks.pop(token)
                self.fail(i, attempt, "timeout",
                          f"exceeded per-task timeout of "
                          f"{self.timeout_s}s on {unit}")
            if late:
                self.condemn(unit, salvage=salvage)
                drop(unit)


class ExecutionBackend(abc.ABC):
    """Where sweep tasks run. Stateless backends (inline, pool) build
    their machinery per :meth:`execute`; the remote backend keeps its
    worker fabric alive across calls until :meth:`close`."""

    #: Short name (matches the ``--backend`` CLI choice).
    name = "?"

    @abc.abstractmethod
    def execute(self, plan: SweepPlan) -> None:
        """Run every ``plan.todo`` task, reporting through
        ``plan.record`` / ``plan.dispose``. Returns when all tasks are
        recorded or terminally disposed; raises only for run-fatal
        conditions (``SweepFailure``, lost fabric, interrupt)."""

    def close(self) -> None:
        """Release any long-lived resources (no-op by default)."""

    def __repr__(self) -> str:
        return f"<{type(self).__name__} ({self.name})>"
