"""Deterministic fault injection, failover and chaos tooling.

The package splits the fault story into four independent layers:

* :mod:`repro.faults.plan` — the declarative, seed-deterministic
  **FaultPlan DSL**: what goes wrong and when, as an immutable value;
* :mod:`repro.faults.injector` — **compilation** of a plan onto the
  :mod:`repro.sim.engine` event kernel (one ``call_later`` callback per
  fault edge, nothing scheduled for an empty plan);
* :mod:`repro.faults.session` — the **execution adapter** binding faults
  to a live :class:`~repro.core.infrastructure.GamingSession` (crash
  servers, degrade routes, suppress stale deliveries);
* :mod:`repro.faults.failover` — the **recovery side**: per-player
  delivery-timeout detection, exponential-backoff retries, migration to
  the next-best supernode and direct-cloud fallback.

Arm a plan by putting it on the session config::

    plan = (PlanBuilder(seed=7)
            .crash(at_s=5.0, recover_after_s=6.0)
            .build())
    cfg = SessionConfig(duration_s=20.0, faults=plan)
    result = simulate_sessions(pop, SystemVariant.CLOUDFOG_A, online, cfg)
    result.fault_stats["recoveries"]

An armed-but-empty plan is byte-identical (trace digest, series,
metrics) to no plan at all — the zero-overhead contract the regression
tests pin down.
"""

from repro.faults.failover import (
    FailoverController,
    FailoverParams,
)
from repro.faults.injector import FaultInjector
from repro.faults.plan import (
    FAULT_KINDS,
    PRESETS,
    BandwidthThrottle,
    FaultPlan,
    LinkLatencySpike,
    PacketLossBurst,
    PlanBuilder,
    RegionalPartition,
    SupernodeCrash,
    preset_plan,
)
from repro.faults.session import SessionChaos

__all__ = [
    "FAULT_KINDS",
    "PRESETS",
    "BandwidthThrottle",
    "FailoverController",
    "FailoverParams",
    "FaultInjector",
    "FaultPlan",
    "LinkLatencySpike",
    "PacketLossBurst",
    "PlanBuilder",
    "RegionalPartition",
    "SessionChaos",
    "SupernodeCrash",
    "preset_plan",
]
