"""Waitable event primitives for the discrete-event engine.

An :class:`Event` is a one-shot occurrence: it starts *pending*, is
*triggered* (scheduled with a value), and finally *processed* when the
environment pops it off the event list and runs its callbacks.
Processes wait on events by ``yield``ing them; a process whose
generator raises is the one event that fails, carrying the exception.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Environment

# Sentinel distinguishing "not yet triggered" from a triggered None value.
_PENDING = object()


class SimulationError(Exception):
    """An error raised by the simulation kernel itself."""


class Event:
    """A one-shot waitable occurrence.

    Parameters
    ----------
    env:
        Owning environment.

    Notes
    -----
    Callbacks receive the event itself and run when the environment
    pops the event. A :class:`Timeout` is triggered when created; a
    :class:`~repro.sim.process.Process` when its generator finishes.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "defused")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok: bool = True
        #: True once a failure value has been consumed by some waiter; an
        #: unconsumed failure propagates out of Environment.run().
        self.defused = False

    # -- state ------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has a value (it may not be processed yet)."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded (valid only after triggering)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value. Raises if the event is still pending."""
        if self._value is _PENDING:
            raise AttributeError(f"value of {self!r} is not yet available")
        return self._value

    def _fire(self) -> None:
        """Process the event: the queue entry the environment pops."""
        callbacks, self.callbacks = self.callbacks, None
        if callbacks is None:
            raise SimulationError(f"{self!r} processed twice")
        for callback in callbacks:
            callback(self)
        if not self._ok and not self.defused:
            # Nobody handled the failure: it leaves the event loop.
            raise self._value

    def __repr__(self) -> str:
        state = "processed" if self.processed else (
            "triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires ``delay`` time units after creation."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        super().__init__(env)
        self.delay = delay
        self._ok = True
        self._value = value
        env.schedule(self, delay=delay)

    def __repr__(self) -> str:
        return f"<Timeout delay={self.delay} at {id(self):#x}>"
