"""Runtime invariant checkers over trace streams.

Each checker consumes :class:`~repro.obs.trace.TraceEvent`\\ s — either
*live* (attached to an :class:`~repro.obs.Observability`, where a
violation raises at the exact simulation step that caused it) or
*offline* over a recorded/loaded trace via :func:`run_checkers` (the
pytest-fixture mode). The checked invariants:

``PacketConservationChecker``
    For every sender buffer, at every buffer event:
    ``packets_in == packets_out + packets_dropped + packets_pending``
    and the pending count is never negative — no packet is ever created
    or destroyed outside the enqueue/dequeue/drop bookkeeping.
``EdfOrderChecker``
    A deadline-driven buffer always dequeues the minimum-deadline entry
    currently queued (EDF is never violated, even under interleaved
    enqueues).
``PlaybackNonNegativeChecker``
    The receiver playback buffer level never goes negative and stalls
    never have negative duration.
``QualityLadderChecker``
    Every encoder level change lands inside the quality ladder.
``ClockMonotonicityChecker``
    Trace timestamps never run backwards within a run. (Scheduling into
    the past is refused by ``Environment.schedule`` itself.)

A ``session.start`` event resets all per-run state, so one recorder can
span several back-to-back sessions (e.g. the four system variants of a
Figure 8 run) without cross-run false positives.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Optional, Sequence

from repro.obs.trace import TraceEvent

_EPS = 1e-9

#: Ladder bounds mirrored from ``repro.streaming.video`` (kept literal so
#: the obs package stays import-cycle-free; the unit tests assert the two
#: stay in sync).
LADDER_MIN_LEVEL = 1
LADDER_MAX_LEVEL = 5


class InvariantViolation(AssertionError):
    """An invariant checker caught an inconsistency in the trace."""

    def __init__(self, checker: str, event: Optional[TraceEvent],
                 message: str):
        self.checker = checker
        self.event = event
        where = (f" at t={event.t} [{event.component}] {event.kind}"
                 if event is not None else "")
        super().__init__(f"{checker}: {message}{where}")


class InvariantChecker:
    """Base class: routes events, resets on ``session.start``."""

    name = "invariant"

    def on_event(self, event: TraceEvent) -> None:
        if event.kind == "session.start":
            self.reset()
            return
        self.check(event)

    def check(self, event: TraceEvent) -> None:  # pragma: no cover
        raise NotImplementedError

    def reset(self) -> None:
        """Clear per-run state (new session started)."""

    def finish(self) -> None:
        """End-of-trace hook (nothing pending by default)."""

    def fail(self, event: Optional[TraceEvent], message: str) -> None:
        raise InvariantViolation(self.name, event, message)


class PacketConservationChecker(InvariantChecker):
    """enqueued packets == dequeued + dropped + still pending, always."""

    name = "packet-conservation"

    def check(self, event: TraceEvent) -> None:
        if not event.kind.startswith("buffer."):
            return
        d = event.data
        if "p_in" not in d:
            return
        p_in, p_out = d["p_in"], d["p_out"]
        p_drop, p_pend = d["p_drop"], d["p_pend"]
        if p_pend < 0:
            self.fail(event, f"negative pending packet count {p_pend}")
        if p_in != p_out + p_drop + p_pend:
            self.fail(event, (
                f"packet conservation broken: in={p_in} != "
                f"out={p_out} + dropped={p_drop} + pending={p_pend}"))


class EdfOrderChecker(InvariantChecker):
    """Deadline buffers always dequeue the earliest queued deadline."""

    name = "edf-order"

    def __init__(self) -> None:
        self._heaps: dict[str, list[float]] = {}

    def reset(self) -> None:
        self._heaps.clear()

    def check(self, event: TraceEvent) -> None:
        if event.data.get("disc") != "edf":
            return
        if event.kind == "buffer.flush":
            # A crash flush empties the queue wholesale; deadlines that
            # died in the flush must not constrain post-recovery
            # dequeues.
            self._heaps.pop(event.component, None)
            return
        heap = self._heaps.setdefault(event.component, [])
        if event.kind == "buffer.enqueue":
            heapq.heappush(heap, event.data["deadline"])
        elif event.kind == "buffer.dequeue":
            if not heap:
                self.fail(event, "dequeue from an empty (per-trace) queue")
            earliest = heapq.heappop(heap)
            if event.data["deadline"] > earliest + _EPS:
                self.fail(event, (
                    f"EDF order violated: dequeued deadline "
                    f"{event.data['deadline']} but {earliest} was queued"))


class PlaybackNonNegativeChecker(InvariantChecker):
    """Playback buffer level and stall durations never go negative."""

    name = "playback-nonnegative"

    def check(self, event: TraceEvent) -> None:
        if event.kind == "playback.arrival":
            buffered = event.data["buffered_s"]
            if buffered < -_EPS:
                self.fail(event, f"negative playback buffer {buffered}")
        elif event.kind == "playback.stall":
            stall = event.data["stall_s"]
            if stall < -_EPS:
                self.fail(event, f"negative stall duration {stall}")


class QualityLadderChecker(InvariantChecker):
    """Encoder levels always stay inside the quality ladder."""

    name = "quality-ladder"

    def __init__(self, min_level: int = LADDER_MIN_LEVEL,
                 max_level: int = LADDER_MAX_LEVEL):
        self.min_level = min_level
        self.max_level = max_level

    def check(self, event: TraceEvent) -> None:
        if event.kind != "encoder.level":
            return
        level = event.data["level"]
        if not self.min_level <= level <= self.max_level:
            self.fail(event, (
                f"encoder level {level} outside ladder "
                f"[{self.min_level}, {self.max_level}]"))


class ClockMonotonicityChecker(InvariantChecker):
    """Sim time never runs backwards."""

    name = "clock-monotonicity"

    def __init__(self) -> None:
        self._last_t: Optional[float] = None

    def reset(self) -> None:
        self._last_t = None

    def check(self, event: TraceEvent) -> None:
        if self._last_t is not None and event.t < self._last_t - _EPS:
            self.fail(event, (
                f"clock ran backwards: {event.t} after {self._last_t}"))
        self._last_t = event.t


def default_checkers() -> list[InvariantChecker]:
    """One instance of every checker, ready to attach."""
    return [
        PacketConservationChecker(),
        EdfOrderChecker(),
        PlaybackNonNegativeChecker(),
        QualityLadderChecker(),
        ClockMonotonicityChecker(),
    ]


def run_checkers(
    events: Iterable[TraceEvent],
    checkers: Optional[Sequence[InvariantChecker]] = None,
) -> list[InvariantChecker]:
    """Replay ``events`` through ``checkers`` (default: all of them).

    Raises :class:`InvariantViolation` on the first broken invariant;
    returns the checkers (with their final state) when the trace is clean.
    """
    active = list(checkers) if checkers is not None else default_checkers()
    for event in events:
        for checker in active:
            checker.on_event(event)
    for checker in active:
        checker.finish()
    return active
