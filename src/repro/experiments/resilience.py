"""Resilience primitives for the sweep engine: failure taxonomy,
retry/backoff policy and process-pool recovery.

This is the harness-level twin of :mod:`repro.faults`: the fog layer of
the *simulated* system already detects crashed supernodes, retries with
backoff and fails over; this module gives the experiment harness that
produces the paper's figures the same discipline. The pieces:

* :class:`TaskFailure` / :class:`SweepFailure` — structured taxonomy of
  how a sweep task can die (``exception``, ``timeout``,
  ``worker-crash``), with attempt counts, surfaced either on
  :class:`~repro.experiments.api.RunResult.failures` (keep-going mode)
  or raised as one readable report;
* :class:`ResilienceConfig` — per-task wall-clock timeout, bounded
  retries with exponential backoff, and the keep-going switch. Retried
  tasks are pure functions of ``(task, scale, seed)``, so a task that
  fails then succeeds on a later attempt produces a byte-identical
  payload — the determinism contract survives recovery;
* :class:`PoolManager` — the slot pool the pool backend and every
  worker daemon share: a
  :class:`~concurrent.futures.ProcessPoolExecutor` wrapper that
  collects finished futures, salvages the ones that finished before a
  ``BrokenProcessPool`` (a SIGKILLed slot), reports the rest as
  ``worker-crash``, rebuilds, and terminates hung slots the watchdog
  gave up on;
* :func:`flaky_probe` — the test-only fault-injection runner (crash /
  hang / raise / kill-parent on the Nth attempt, tracked in a shared
  state directory) that the resilience test-suite and the CI smoke use
  to prove the recovery paths.
"""

from __future__ import annotations

import ctypes
import os
import signal
import sys
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import dataclass
from typing import Any, Optional

#: The three ways a sweep task can fail.
FAILURE_KINDS = ("exception", "timeout", "worker-crash")


@dataclass(frozen=True)
class TaskFailure:
    """One task's terminal failure after its retry budget ran out."""

    #: ``"exception"`` (the runner raised), ``"timeout"`` (the watchdog
    #: cancelled a hung task) or ``"worker-crash"`` (the worker process
    #: died and broke the pool).
    kind: str
    #: Experiment the task belongs to.
    experiment: str
    #: The task's ordered key within the experiment.
    key: tuple
    #: Total attempts made (first run + retries).
    attempts: int
    #: Human-readable cause (exception repr, timeout budget, ...).
    message: str

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "experiment": self.experiment,
            "key": list(self.key),
            "attempts": self.attempts,
            "message": self.message,
        }

    def describe(self) -> str:
        return (f"{self.experiment} task {tuple(self.key)}: {self.kind} "
                f"after {self.attempts} attempt(s) — {self.message}")


class SweepFailure(RuntimeError):
    """A sweep task exhausted its retries (and keep-going was off).

    Carries every :class:`TaskFailure` accumulated so far so the CLI
    can print one structured report instead of a raw traceback.
    """

    def __init__(self, failures: list[TaskFailure]):
        self.failures = list(failures)
        super().__init__(self.report())

    def report(self) -> str:
        lines = [f"{len(self.failures)} sweep task(s) failed:"]
        lines.extend(f"  - {f.describe()}" for f in self.failures)
        return "\n".join(lines)


@dataclass
class ResilienceConfig:
    """Retry/timeout/salvage policy for one :func:`run_spec` call.

    ``timeout_s`` is enforced by the pool and remote backends: an
    inline task cannot be preempted, while a hung worker process can
    be terminated and its task rescheduled. Backoff before attempt
    ``n+1`` after ``n`` failures is ``backoff_base_s * backoff_factor**(n-1)``.
    """

    #: Retries after the first attempt (0 = fail fast). A task runs at
    #: most ``max_retries + 1`` times.
    max_retries: int = 2
    #: First backoff delay; doubles (by default) per further failure.
    backoff_base_s: float = 0.05
    backoff_factor: float = 2.0
    #: Per-task wall-clock budget for the watchdog (None = no timeout).
    timeout_s: Optional[float] = None
    #: Salvage completed tasks and report failures on the RunResult
    #: instead of raising :class:`SweepFailure`.
    keep_going: bool = False
    #: Longest wait of the pool and remote scheduling loops between
    #: deadline and backoff checks.
    poll_interval_s: float = 0.05

    def backoff_s(self, failed_attempts: int) -> float:
        """Delay before the attempt following ``failed_attempts`` failures."""
        return self.backoff_base_s * (
            self.backoff_factor ** max(0, failed_attempts - 1))


#: Policy used when ``run_spec`` is called without an explicit config.
DEFAULT_RESILIENCE = ResilienceConfig()


#: ``prctl`` option: the signal a process gets when its parent dies.
_PR_SET_PDEATHSIG = 1


def _init_slot() -> None:
    """Slot-process initializer. SIGTERM kills the slot: a slot forked
    from a worker daemon would otherwise inherit the daemon's
    SystemExit handler, and :meth:`PoolManager._reap`'s ``terminate()``
    would unwind the slot's work loop instead of ending the process.
    On Linux the slot also dies with the process that forked it: a
    SIGKILLed daemon would otherwise leave its slots asleep for good,
    holding the daemon's connection open so its scheduler sees no EOF."""
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    if sys.platform.startswith("linux"):
        prctl = ctypes.CDLL(None).prctl
        prctl.argtypes = (ctypes.c_int, ctypes.c_ulong)
        prctl.restype = ctypes.c_int
        prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)


class PoolManager:
    """A self-healing :class:`ProcessPoolExecutor` handle.

    :meth:`collect` turns finished futures into outcomes and absorbs a
    broken pool; ``rebuild`` terminates the old pool's processes (dead
    after a crash, or hung past the watchdog budget — either way
    unusable) and lazily creates a fresh pool; ``submit`` retries
    through a broken executor so callers never see
    ``BrokenProcessPool`` at submission time.
    """

    def __init__(self, max_workers: int):
        self.max_workers = max_workers
        self.rebuilds = 0
        self._pool: Optional[ProcessPoolExecutor] = None

    def __str__(self) -> str:
        return f"a {self.max_workers}-process pool"

    @property
    def pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.max_workers,
                                             initializer=_init_slot)
        return self._pool

    def submit(self, fn, *args):
        try:
            return self.pool.submit(fn, *args)
        except BrokenExecutor:
            self.rebuild()
            return self.pool.submit(fn, *args)

    def collect(self, futures: list, timeout: float) -> list[tuple]:
        """Wait up to ``timeout`` s for any of ``futures`` to finish.

        Returns ``(future, failure, value)`` per finished future:
        ``failure`` None with the result as ``value``, or ``exception``
        / ``worker-crash`` with a message. One dead process breaks the
        whole pool, so on a ``BrokenExecutor`` every future in
        ``futures`` is settled — salvaged when it finished before the
        break, else a ``worker-crash`` — and the pool is rebuilt.
        """
        if not futures:
            time.sleep(timeout)
            return []
        done, _ = wait(futures, timeout=timeout,
                       return_when=FIRST_COMPLETED)
        out, broken = [], None
        for fut in done:
            try:
                out.append((fut, None, fut.result()))
            except BrokenExecutor as exc:
                broken = exc
            except (KeyboardInterrupt, SystemExit):
                raise
            except BaseException as exc:
                out.append((fut, "exception",
                            f"{type(exc).__name__}: {exc}"))
        if broken is None:
            return out
        message = f"worker process died ({broken or 'BrokenProcessPool'})"
        settled = {fut for fut, _failure, _value in out}
        for fut in futures:
            if fut not in settled:
                payload = self.salvage(fut)
                out.append((fut, None, payload) if payload is not None
                           else (fut, "worker-crash", message))
        self.rebuild()
        return out

    @staticmethod
    def salvage(fut) -> Any:
        """``fut``'s result if it finished cleanly, else None."""
        if fut.done() and not fut.cancelled():
            try:
                return fut.result()
            except (KeyboardInterrupt, SystemExit):
                raise
            except BaseException:
                pass
        return None

    def rebuild(self) -> None:
        pool, self._pool = self._pool, None
        if pool is None:
            return
        self.rebuilds += 1
        self._reap(pool)

    def shutdown(self, terminate: bool = False) -> None:
        pool, self._pool = self._pool, None
        if pool is None:
            return
        if terminate:
            self._reap(pool)
        else:
            pool.shutdown(wait=True, cancel_futures=True)

    @staticmethod
    def _reap(pool: ProcessPoolExecutor) -> None:
        # Kill workers first: a hung worker would otherwise stall
        # shutdown (and interpreter exit) indefinitely.
        for proc in list(getattr(pool, "_processes", {}).values()):
            try:
                proc.terminate()
            except Exception:
                pass
        pool.shutdown(wait=True, cancel_futures=True)


# --------------------------------------------------------------------------
# Test-only fault-injection runner
# --------------------------------------------------------------------------

def claim_attempt(state_dir: str, index: int) -> int:
    """Atomically claim this invocation's attempt number for a task.

    Uses ``O_CREAT | O_EXCL`` marker files so the count is correct
    across worker processes and across a killed-and-resumed harness.
    """
    os.makedirs(state_dir, exist_ok=True)
    n = 1
    while True:
        marker = os.path.join(state_dir, f"task{index}.attempt{n}")
        try:
            fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            n += 1
            continue
        os.close(fd)
        return n


def flaky_probe(scale: float, seed: int, p: dict) -> dict:
    """Deterministically misbehaving task runner (fault-injection hook).

    Registered in :data:`repro.experiments.specs.TASK_RUNNERS` so the
    resilience tests and the CI smoke can build sweeps whose tasks
    fail in controlled ways. Params:

    ``mode``
        ``ok`` (default), ``raise``, ``crash`` (SIGKILL own worker),
        ``hang`` (sleep ``hang_s``), ``kill-parent`` (SIGKILL the
        harness process, whose pid the harness wrote to ``pid_file`` —
        simulates a dead parent for resume tests).
    ``fail_attempts``
        Misbehave while the attempt number (per ``state_dir``) is
        ``<= fail_attempts``; succeed afterwards.
    ``delegate`` / ``delegate_params``
        After surviving the failure window, run a real registered
        runner — lets tests assert trace/metrics determinism under
        retry against an honest sweep.
    ``sleep_s`` / ``bulk_points``
        Shape the successful task for throughput/wire benches:
        ``sleep_s`` holds a slot busy, ``bulk_points`` appends that
        many pseudo-random series points (a pure function of ``seed``
        and ``index``) so the result payload has realistic bulk.

    The success payload is a pure function of the params (never of the
    attempt number), which is what makes recovery byte-identical.
    """
    index = int(p.get("index", 0))
    mode = p.get("mode", "ok")
    attempt = (claim_attempt(p["state_dir"], index)
               if p.get("state_dir") else 1)
    if mode != "ok" and attempt <= int(p.get("fail_attempts", 1)):
        if mode == "raise":
            raise RuntimeError(
                f"flaky_probe: injected failure (task {index}, "
                f"attempt {attempt})")
        if mode == "crash":
            os.kill(os.getpid(), signal.SIGKILL)
        if mode == "hang":
            time.sleep(float(p.get("hang_s", 3600.0)))
            raise RuntimeError("flaky_probe: hang outlived its budget")
        if mode == "kill-parent":
            time.sleep(float(p.get("sleep_s", 0.0)))
            # Never guess via getppid(): the inline backend runs this
            # task in the harness itself, a worker daemon in a slot.
            with open(p["pid_file"], "r", encoding="utf-8") as fp:
                harness_pid = int(fp.read().strip())
            os.kill(harness_pid, signal.SIGKILL)
            if harness_pid != os.getpid():
                os._exit(0)
        raise ValueError(f"flaky_probe: unknown mode {mode!r}")
    if p.get("sleep_s"):
        time.sleep(float(p["sleep_s"]))
    delegate = p.get("delegate")
    if delegate:
        from repro.experiments.specs import TASK_RUNNERS
        return TASK_RUNNERS[delegate](scale, seed,
                                      dict(p.get("delegate_params", {})))
    from repro.metrics.series import FigureSeries
    s = FigureSeries(label=p.get("label", "flaky"), x_label="task index",
                     y_label="value")
    s.add(index, float(p.get("value", index)))
    # Deterministic bulk (LCG seeded by the task identity): inflates
    # the payload without touching the attempt-independence contract.
    word = (seed * 2654435761 + index * 40503) & 0xFFFFFFFF
    for k in range(int(p.get("bulk_points", 0))):
        word = (word * 1664525 + 1013904223) & 0xFFFFFFFF
        s.add(index + k + 1, word / 2.0 ** 32)
    return {"series": [s.to_dict()]}
