"""Discrete-event simulation engine.

This package is CloudFog's substitute for the PeerSim simulator used in the
paper: a small, deterministic, generator-based discrete-event kernel in the
style of SimPy, built from scratch so the reproduction has no external
simulator dependency. It holds what the two simulators run: the
packet-level ``GamingSession`` (processes and callbacks on the binary
heap) and the cohort kernel's tick driver (callbacks on the calendar
queue).

Core pieces
-----------
``Environment``
    The event loop: a future event list (binary heap or calendar queue)
    plus the simulation clock. Equal-time events fire in insertion
    order, which makes every run deterministic for a fixed RNG seed.
``Process``
    Wraps a Python generator; each ``yield``ed event suspends the process
    until the event fires.
``Timeout`` / ``Event``
    Waitable primitives.
``RngRegistry``
    Named, independently seeded ``numpy`` random substreams so that each
    stochastic component (arrivals, capacities, jitter, ...) draws from its
    own stream and experiments are reproducible bit-for-bit.
"""

from repro.sim.calendar import CalendarQueue
from repro.sim.engine import QUEUE_KINDS, Environment, SimulationError
from repro.sim.events import Event, Timeout
from repro.sim.process import Process
from repro.sim.rng import RngRegistry

__all__ = [
    "CalendarQueue",
    "Environment",
    "Event",
    "Process",
    "QUEUE_KINDS",
    "RngRegistry",
    "SimulationError",
    "Timeout",
]
