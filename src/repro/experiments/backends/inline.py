"""Serial in-process execution — the tier-1 default.

Tasks run one at a time in the scheduler's own process with
retry/backoff but no preemptive timeout: an inline task cannot be
cancelled, only a worker process can (the pool and remote backends own
that part of the taxonomy).
"""

from __future__ import annotations

import time

from repro.experiments.backends.base import (
    ExecutionBackend,
    SweepPlan,
    execute_task,
)


class InlineBackend(ExecutionBackend):
    """Run every task serially in the calling process."""

    name = "inline"

    def execute(self, plan: SweepPlan) -> None:
        for i in plan.todo:
            attempt = 1
            while True:
                try:
                    payload = execute_task(plan.tasks[i], plan.scale,
                                           plan.seed, plan.capture)
                except (KeyboardInterrupt, SystemExit):
                    raise
                except BaseException as exc:
                    delay = plan.dispose(i, attempt, "exception",
                                         f"{type(exc).__name__}: {exc}")
                    if delay is None:
                        break
                    time.sleep(delay)
                    attempt += 1
                else:
                    plan.record(i, payload)
                    break
