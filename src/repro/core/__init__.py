"""CloudFog core: the paper's contribution.

* :mod:`repro.core.adaptation` — receiver-driven encoding rate adaptation
  (paper §III-B, Eqs. 7–11);
* :mod:`repro.core.scheduling` — deadline-driven sender buffer scheduling
  (paper §III-C, Eqs. 12–14);
* :mod:`repro.core.assignment` — supernode assignment protocol
  (paper §III-A-3);
* :mod:`repro.core.cloud`, :mod:`repro.core.supernode`,
  :mod:`repro.core.player` — the simulated entities;
* :mod:`repro.core.infrastructure` — system variants (Cloud, EdgeCloud,
  CloudFog/B, CloudFog-adapt, CloudFog-schedule, CloudFog/A) and the
  packet-level session simulation that drives Figures 8–11.
"""

import importlib

#: Public names, resolved on first use: name -> defining module, so
#: ``import repro.core.cohort`` does not load the packet-level session
#: stack.
_EXPORTS = {
    "AdaptationParams": "repro.core.adaptation",
    "RateAdaptationController": "repro.core.adaptation",
    "AssignmentParams": "repro.core.assignment",
    "AssignmentStrategy": "repro.core.assignment",
    "STRATEGY_NAMES": "repro.core.assignment",
    "SupernodeAssignment": "repro.core.assignment",
    "assign_players": "repro.core.assignment",
    "make_assignment": "repro.core.assignment",
    "CohortKernel": "repro.core.cohort",
    "ScaleReport": "repro.core.cohort",
    "ScaleSpec": "repro.core.cohort",
    "run_scale": "repro.core.cohort",
    "DistributedAssignment": "repro.core.orchestration",
    "OrchestrationParams": "repro.core.orchestration",
    "GamingSession": "repro.core.infrastructure",
    "SessionConfig": "repro.core.infrastructure",
    "SystemVariant": "repro.core.infrastructure",
    "simulate_sessions": "repro.core.infrastructure",
    "DeadlineSenderBuffer": "repro.core.scheduling",
    "SchedulingParams": "repro.core.scheduling",
}

__all__ = sorted(_EXPORTS)


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
