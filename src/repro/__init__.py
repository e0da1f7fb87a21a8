"""CloudFog reproduction — fog-assisted cloud gaming.

A from-scratch Python implementation of *CloudFog: Towards High Quality
of Experience in Cloud Gaming* (Lin & Shen, ICPP 2015), including every
substrate the paper's evaluation depends on: a discrete-event simulation
engine, a calibrated network latency/topology model, the video streaming
pipeline, the §IV workload generator, the economics model, and one
experiment driver per paper figure.

Quick start::

    from repro import peersim_scenario, SystemVariant, simulate_sessions

    scenario = peersim_scenario(scale=0.1)
    population = scenario.build()
    online = scenario.online_sample(population)
    result = simulate_sessions(population, SystemVariant.CLOUDFOG_A, online)
    print(result.mean_continuity, result.satisfied_fraction)
"""

from repro.core.adaptation import AdaptationParams, RateAdaptationController
from repro.core.assignment import AssignmentParams, SupernodeAssignment
from repro.core.infrastructure import (
    SessionConfig,
    SessionResult,
    SystemVariant,
    simulate_sessions,
)
from repro.core.scheduling import DeadlineSenderBuffer, SchedulingParams
from repro.experiments.scenarios import (
    Scenario,
    peersim_scenario,
    planetlab_scenario,
)
from repro.sim.rng import RngRegistry
from repro.streaming.video import QUALITY_LADDER
from repro.workload.games import GAMES
from repro.workload.players import Population, build_population

__version__ = "1.1.0"

__all__ = [
    "AdaptationParams",
    "AssignmentParams",
    "DeadlineSenderBuffer",
    "GAMES",
    "Population",
    "QUALITY_LADDER",
    "RateAdaptationController",
    "RngRegistry",
    "Scenario",
    "SchedulingParams",
    "SessionConfig",
    "SessionResult",
    "SupernodeAssignment",
    "SystemVariant",
    "__version__",
    "build_population",
    "peersim_scenario",
    "planetlab_scenario",
    "simulate_sessions",
]
