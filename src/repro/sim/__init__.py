"""Discrete-event simulation engine.

This package is CloudFog's substitute for PeerSim, which the paper uses
as an event scheduler: a small, deterministic callback scheduler built
from scratch so the reproduction has no external simulator dependency.
It holds what the two simulators run: the packet-level
``GamingSession`` (callbacks on the binary heap) and the cohort
kernel's tick driver (callbacks on the calendar queue).

Core pieces
-----------
``Environment``
    The event loop: a future event list (binary heap or calendar queue)
    plus the simulation clock. ``call_later(delay, fn, *args)`` and
    ``call_at(when, fn, *args)`` queue ``fn(*args)`` as one entry;
    ``peek()`` reads the earliest queued time. A repeating loop is a
    callback that queues its own next call. Equal-time entries fire in
    insertion order, which makes every run deterministic for a fixed
    RNG seed.
``RngRegistry``
    Named, independently seeded ``numpy`` random substreams so that each
    stochastic component (arrivals, capacities, jitter, ...) draws from its
    own stream and experiments are reproducible bit-for-bit.
"""

from repro.sim.calendar import CalendarQueue
from repro.sim.engine import QUEUE_KINDS, Environment, SimulationError
from repro.sim.rng import RngRegistry

__all__ = [
    "CalendarQueue",
    "Environment",
    "QUEUE_KINDS",
    "RngRegistry",
    "SimulationError",
]
