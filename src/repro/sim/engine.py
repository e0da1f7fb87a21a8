"""The discrete-event simulation kernel.

The :class:`Environment` owns the clock and the future event list.
Entries are ``(time, sequence, fn, args)`` tuples, queued with
:meth:`Environment.call_later` (a delay from now) or
:meth:`Environment.call_at` (an absolute time); the loop calls
``fn(*args)``. The monotonically increasing sequence number breaks time
ties in insertion order, so a run is a pure function of its inputs —
the property PeerSim gives the paper's simulation and that the whole
reproduction relies on. A loop that repeats (a player's segment
cadence, a sampler) is a callback that queues its own next call.

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

Scheduling has one body for both kinds; the kind picks only how an
entry is pushed, peeked at and popped. The calendar queue keys its
opaque item, ``(fn, args)``, by the same ``(time, seq)``.
"""

from __future__ import annotations

import heapq
from functools import partial
from typing import Any, Callable, Optional

from repro.sim.calendar import CalendarQueue


class SimulationError(Exception):
    """An error raised by the simulation kernel itself."""


#: Recognised future-event-list implementations.
QUEUE_KINDS = ("heap", "calendar")

_INF = float("inf")


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
    >>> seen = []
    >>> env.call_later(5, lambda: seen.append(env.now))
    >>> env.run()
    >>> seen
    [5.0]
    """

    def __init__(self, initial_time: float = 0.0, queue: str = "heap"):
        if queue not in QUEUE_KINDS:
            raise ValueError(
                f"unknown event queue kind {queue!r}; "
                f"expected one of {QUEUE_KINDS}")
        self._now = float(initial_time)
        #: Events queued so far (also the last sequence number issued).
        self._seq = 0
        self.queue_kind = queue
        if queue == "calendar":
            cal = CalendarQueue()
            self._queue: Any = cal
            self._push = lambda entry: cal.push(entry[0], entry[1], entry[2:])
        else:
            heap: list[tuple[float, int, Callable[..., None],
                             tuple[Any, ...]]] = []
            self._queue = heap
            self._push = partial(heapq.heappush, heap)

    # -- clock ------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    # -- scheduling -------------------------------------------------------
    def call_later(self, delay: float, fn: Callable[..., None],
                   *args: Any) -> None:
        """Call ``fn(*args)`` ``delay`` seconds from now.

        One queue entry and one sequence number; the callback reads
        :attr:`now` when it needs the time. An exception it raises
        leaves :meth:`run` with the entry already popped, so a second
        ``run()`` carries on with the entries still queued.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        self._seq += 1
        self._push((self._now + delay, self._seq, fn, args))

    def call_at(self, when: float, fn: Callable[..., None],
                *args: Any) -> None:
        """Call ``fn(*args)`` at simulation time ``when``.

        :meth:`call_later` for a caller that already holds the instant:
        the entry fires at exactly ``when``, with no ``now + delay``
        round trip. A ``when`` before :attr:`now` raises
        :class:`SimulationError` and queues nothing.
        """
        if when < self._now:
            raise SimulationError(
                f"cannot schedule in the past (when={when}, now={self._now})")
        self._seq += 1
        self._push((when, self._seq, fn, args))

    def peek(self) -> float:
        """Time of the earliest queued entry, or ``inf`` when none is."""
        queue = self._queue
        if self.queue_kind == "heap":
            return queue[0][0] if queue else _INF
        return queue.peek_time()

    @property
    def pending(self) -> int:
        """Number of events awaiting processing."""
        return len(self._queue)

    # -- execution ----------------------------------------------------------
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
        queue = self._queue
        if self.queue_kind == "heap":
            pop = heapq.heappop
            while queue and queue[0][0] <= stop_at:
                self._now, _, fn, args = pop(queue)
                fn(*args)
        else:
            # peek_time() caches the located bucket, so the pop does not
            # scan a second time.
            pop = queue.pop
            while queue and queue.peek_time() <= stop_at:
                self._now, _, (fn, args) = pop()
                fn(*args)
        if until is not None:
            self._now = stop_at

    def __repr__(self) -> str:
        return (f"<Environment now={self._now} pending={self.pending} "
                f"queue={self.queue_kind}>")
