"""Generator-driven simulation processes.

A :class:`Process` advances a Python generator. Each value the generator
``yield``s must be an :class:`~repro.sim.events.Event`; the process sleeps
until that event fires, then resumes with the event's value (or the event's
exception thrown into it). A process is itself an event that fires when the
generator returns, so processes can wait on each other.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Environment


class Process(Event):
    """A running simulation process (also a waitable event)."""

    __slots__ = ("_generator",)

    def __init__(self, env: "Environment", generator: Generator):
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator

        # Kick the process off via an immediate initialisation event.
        init = Event(env)
        init._ok = True
        init._value = None
        init.callbacks.append(self._resume)
        env.schedule(init)

    # -- internal ---------------------------------------------------------
    def _resume(self, event: Event) -> None:
        """Advance the generator with ``event``'s outcome."""
        try:
            if event._ok:
                next_target = self._generator.send(event._value)
            else:
                event.defused = True
                next_target = self._generator.throw(event._value)
        except StopIteration as stop:
            self._ok = True
            self._value = getattr(stop, "value", None)
            self.env.schedule(self)
            return
        except BaseException as exc:
            self._ok = False
            self._value = exc
            self.env.schedule(self)
            return

        if not isinstance(next_target, Event):
            raise TypeError(
                f"process yielded {next_target!r}, expected an Event")
        if next_target.env is not self.env:
            raise ValueError("yielded event belongs to another environment")

        if next_target.processed:
            # Already done: resume immediately (via schedule to stay fair).
            wake = Event(self.env)
            wake._ok = next_target._ok
            wake._value = next_target._value
            if not next_target._ok:
                next_target.defused = True
                wake.defused = True
            wake.callbacks.append(self._resume)
            self.env.schedule(wake)
        else:
            next_target.callbacks.append(self._resume)

    def __repr__(self) -> str:
        name = getattr(self._generator, "__name__", repr(self._generator))
        state = "dead" if self.triggered else "alive"
        return f"<Process {name} {state} at {id(self):#x}>"
