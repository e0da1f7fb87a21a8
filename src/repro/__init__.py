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

import importlib

__version__ = "1.1.0"

#: Public names, resolved on first use: name -> defining module. A
#: process that imports one subpackage (a cohort run imports
#: ``repro.core.cohort``) loads only what that subpackage needs.
_EXPORTS = {
    "AdaptationParams": "repro.core.adaptation",
    "RateAdaptationController": "repro.core.adaptation",
    "AssignmentParams": "repro.core.assignment",
    "SupernodeAssignment": "repro.core.assignment",
    "SessionConfig": "repro.core.infrastructure",
    "SessionResult": "repro.core.infrastructure",
    "SystemVariant": "repro.core.infrastructure",
    "simulate_sessions": "repro.core.infrastructure",
    "DeadlineSenderBuffer": "repro.core.scheduling",
    "SchedulingParams": "repro.core.scheduling",
    "Scenario": "repro.experiments.scenarios",
    "peersim_scenario": "repro.experiments.scenarios",
    "planetlab_scenario": "repro.experiments.scenarios",
    "RngRegistry": "repro.sim.rng",
    "QUALITY_LADDER": "repro.streaming.video",
    "GAMES": "repro.workload.games",
    "Population": "repro.workload.players",
    "build_population": "repro.workload.players",
}

__all__ = sorted([*_EXPORTS, "__version__"])


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value  # cache for subsequent lookups
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
