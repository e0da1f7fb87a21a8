"""The discrete-event simulation kernel.

The :class:`Environment` owns the clock and the future event list.
Entries are ``(time, sequence, event)`` tuples; the monotonically
increasing sequence number breaks time ties in insertion order, so a run
is a pure function of its inputs — the property PeerSim gives the
paper's simulation and that the whole reproduction relies on.

Two interchangeable event structures back the list (DESIGN.md §11),
chosen per environment with ``Environment(queue=...)``:

``"heap"``
    The classic binary heap (``heapq``), O(log n) per operation. The
    default, and what the packet-level sessions run on.
``"calendar"``
    A :class:`~repro.sim.calendar.CalendarQueue` — bucketed, amortized
    O(1) per operation, for event populations in the millions. The
    cohort kernel runs on it. Pops events in exactly the same
    ``(time, seq)`` order as the heap, so traces (and their digests)
    are byte-identical.
"""

from __future__ import annotations

import heapq
from typing import Any, Generator, Optional

from repro.sim.calendar import CalendarQueue
from repro.sim.events import Event, Timeout
from repro.sim.process import Process

#: Recognised future-event-list implementations.
QUEUE_KINDS = ("heap", "calendar")


class SimulationError(Exception):
    """An error raised by the simulation kernel itself."""


class Environment:
    """Event loop and simulation clock.

    Parameters
    ----------
    initial_time:
        Starting value of the clock (seconds).
    queue:
        Future-event-list implementation: ``"heap"`` (default) or
        ``"calendar"`` (see the module docstring).

    Examples
    --------
    >>> env = Environment()
    >>> def proc(env):
    ...     yield env.timeout(5)
    ...     return env.now
    >>> p = env.process(proc(env))
    >>> env.run()
    >>> p.value
    5
    """

    def __init__(self, initial_time: float = 0.0, queue: str = "heap"):
        if queue not in QUEUE_KINDS:
            raise ValueError(
                f"unknown event queue kind {queue!r}; "
                f"expected one of {QUEUE_KINDS}")
        self._now = float(initial_time)
        self._heap: list[tuple[float, int, Event]] = []
        #: Events queued so far (also the last sequence number issued).
        self._seq = 0
        self.queue_kind = queue
        self._cal: Optional[CalendarQueue] = None
        if queue == "calendar":
            self._cal = CalendarQueue()
            # Instance-attribute swap: the heap fast paths carry no
            # queue-kind branch.
            self.schedule = self._schedule_calendar  # type: ignore[method-assign]
            self.step = self._step_calendar  # type: ignore[method-assign]

    # -- clock ------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    # -- scheduling -------------------------------------------------------
    def schedule(self, event: Event, delay: float = 0.0) -> None:
        """Queue ``event`` to be processed ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        self._seq += 1
        heapq.heappush(self._heap, (self._now + delay, self._seq, event))

    def _schedule_calendar(self, event: Event, delay: float = 0.0) -> None:
        """:meth:`schedule` against the calendar queue."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        self._seq += 1
        self._cal.push(self._now + delay, self._seq, event)

    @property
    def pending(self) -> int:
        """Number of events awaiting processing."""
        return len(self._cal) if self._cal is not None else len(self._heap)

    # -- factories ----------------------------------------------------------
    def event(self) -> Event:
        """Create a fresh untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires after ``delay`` seconds."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator) -> Process:
        """Spawn a new process driving ``generator``."""
        return Process(self, generator)

    # -- execution ----------------------------------------------------------
    def step(self) -> None:
        """Process exactly one event. Raises ``SimulationError`` if empty."""
        if not self._heap:
            raise SimulationError("step() on an empty schedule")
        self._now, _, event = heapq.heappop(self._heap)

        callbacks, event.callbacks = event.callbacks, None
        if callbacks is None:
            raise SimulationError(f"{event!r} processed twice")
        for callback in callbacks:
            callback(event)

        if not event._ok and not event.defused:
            self._raise_uncaught(event._value)

    def _step_calendar(self) -> None:
        """:meth:`step` against the calendar queue."""
        cal = self._cal
        if not cal:
            raise SimulationError("step() on an empty schedule")
        self._now, _, event = cal.pop()

        callbacks, event.callbacks = event.callbacks, None
        if callbacks is None:
            raise SimulationError(f"{event!r} processed twice")
        for callback in callbacks:
            callback(event)

        if not event._ok and not event.defused:
            self._raise_uncaught(event._value)

    def _raise_uncaught(self, exc: BaseException) -> None:
        """Propagate an exception nobody handled out of the event loop."""
        raise exc

    def run(self, until: Optional[float] = None) -> None:
        """Run the simulation.

        With ``until=None`` run until the schedule is exhausted;
        otherwise run until the clock reaches ``until`` (the clock is
        advanced to exactly ``until`` even if no event lies there).
        """
        stop_at = float("inf") if until is None else float(until)
        if stop_at < self._now:
            raise SimulationError(
                f"until={stop_at} lies in the past (now={self._now})")
        if self._cal is None:
            heap = self._heap
            while heap and heap[0][0] <= stop_at:
                self.step()
        else:
            cal = self._cal
            # peek_time() caches the located bucket, so the pop inside
            # step() does not scan a second time.
            while cal and cal.peek_time() <= stop_at:
                self.step()
        if until is not None:
            self._now = stop_at

    def __repr__(self) -> str:
        return (f"<Environment now={self._now} pending={self.pending} "
                f"queue={self.queue_kind}>")
