"""Telemetry and invariant checking for the CloudFog reproduction.

The :class:`Observability` facade bundles the three legs of the
subsystem:

* a :class:`~repro.obs.trace.TraceRecorder` — structured JSONL events
  with sim-time, component and event kind, fingerprintable via a SHA-256
  digest (same seed ⇒ byte-identical digest);
* a :class:`~repro.obs.metrics.MetricsRegistry` — counters, gauges and
  histograms that components register instead of ad-hoc attribute
  counters, aggregated per run;
* live invariant checkers
  (:mod:`repro.obs.invariants`) that validate every emitted event as the
  simulation runs, so a broken invariant raises at the offending step.

Components take an optional ``obs`` argument and emit through
:meth:`Observability.emit`, resolved once at construction: events are
built only when :attr:`Observability.listening` (a trace or a checker
is attached), and metrics are recorded whenever ``obs`` is given. With
no observability attached components fall back to private metric
instruments, so the hot paths pay a single ``is None`` check per event
site either way. Experiment drivers install a context via
:func:`use` so deeply nested construction (sessions build servers build
buffers) picks the run's observability up without threading it through
every signature:

    obs = Observability(trace=TraceRecorder(), checkers=default_checkers())
    run_experiment("fig8a", scale=0.05, seed=1, obs=obs)
    obs.trace.digest()      # the run fingerprint
    obs.metrics.snapshot()  # per-run metric export
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterable, Optional, Sequence

from repro.obs.invariants import (
    ClockMonotonicityChecker,
    EdfOrderChecker,
    InvariantChecker,
    InvariantViolation,
    PacketConservationChecker,
    PlaybackNonNegativeChecker,
    QualityLadderChecker,
    default_checkers,
    run_checkers,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.trace import TraceEvent, TraceRecorder, load_jsonl, load_trace


class Observability:
    """One run's telemetry context: trace + metrics + live checkers.

    Parameters
    ----------
    trace:
        Recorder for structured events (``None`` = metrics/checkers only).
    metrics:
        Shared registry; a fresh one is created when not given.
    checkers:
        Invariant checkers run on every emitted event, live.
    """

    def __init__(
        self,
        trace: Optional[TraceRecorder] = None,
        metrics: Optional[MetricsRegistry] = None,
        checkers: Sequence[InvariantChecker] = (),
    ):
        self.trace = trace
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.checkers = list(checkers)

    @property
    def listening(self) -> bool:
        """True when an emitted event goes somewhere: a trace or a checker.

        Components read this once, at construction, and build no event
        payload when it is false; their metrics are recorded either way.
        """
        return self.trace is not None or bool(self.checkers)

    def emit(self, t: float, component: str, kind: str, **data: Any) -> None:
        """Record one event and run it through the live checkers."""
        if self.trace is not None:
            self.trace.emit(t, component, kind, **data)
            if self.checkers:
                event = self.trace.events[-1]
                for checker in self.checkers:
                    checker.on_event(event)
        elif self.checkers:
            event = TraceEvent(t, component, kind, data)
            for checker in self.checkers:
                checker.on_event(event)

    def finish(self) -> None:
        """Run end-of-trace checks on every attached checker."""
        for checker in self.checkers:
            checker.finish()

    def digest(self) -> Optional[str]:
        """The trace digest, or ``None`` when not tracing."""
        return self.trace.digest() if self.trace is not None else None


#: The process-wide current observability context (see :func:`use`).
_CURRENT: Optional[Observability] = None


def current() -> Optional[Observability]:
    """The observability context installed by :func:`use`, if any."""
    return _CURRENT


@contextmanager
def use(obs: Optional[Observability]):
    """Install ``obs`` as the context for nested component construction."""
    global _CURRENT
    previous = _CURRENT
    _CURRENT = obs
    try:
        yield obs
    finally:
        _CURRENT = previous


__all__ = [
    "ClockMonotonicityChecker",
    "Counter",
    "EdfOrderChecker",
    "Gauge",
    "Histogram",
    "InvariantChecker",
    "InvariantViolation",
    "MetricsRegistry",
    "Observability",
    "PacketConservationChecker",
    "PlaybackNonNegativeChecker",
    "QualityLadderChecker",
    "TraceEvent",
    "TraceRecorder",
    "current",
    "default_checkers",
    "load_jsonl",
    "load_trace",
    "run_checkers",
    "use",
]
