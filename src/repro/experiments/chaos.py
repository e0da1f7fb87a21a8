"""Chaos experiment: QoE under deterministic fault injection.

Runs the packet-level session simulation with a :class:`FaultPlan`
armed and reports playback/latency QoE alongside the failover
controller's recovery statistics. Everything is a pure function of
``(scale, seed, preset, intensity)``, so chaos points slot into the
parallel sweep engine and result cache like any other figure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.infrastructure import (
    SessionConfig,
    SessionResult,
    SystemVariant,
    simulate_sessions,
)
from repro.experiments.scenarios import peersim_scenario
from repro.faults.plan import FaultPlan, preset_plan


@dataclass(frozen=True)
class ChaosConfig:
    """Constants of a chaos run."""

    #: Session horizon. Longer than the QoE figures' default so a
    #: mid-run crash leaves room for detection, backoff and recovery.
    duration_s: float = 12.0
    #: Statistics warm-up (matches the QoE experiments).
    warmup_s: float = 2.0
    #: System variant under test. CloudFog/A is the paper's full
    #: system and the one with supernodes to crash.
    variant: SystemVariant = SystemVariant.CLOUDFOG_A


def run_chaos(
    scale: float,
    seed: int,
    preset: str = "crash-recover",
    intensity: int = 1,
    plan: Optional[FaultPlan] = None,
    config: ChaosConfig | None = None,
) -> dict:
    """Run one chaos point and report QoE + failover statistics.

    ``plan`` overrides the ``preset``/``intensity`` pair when given
    (e.g. a plan loaded from JSON by the CLI).
    """
    cfg = config or ChaosConfig()
    scenario = peersim_scenario(scale, seed=seed)
    pop = scenario.build()
    online = scenario.online_sample(pop)
    if plan is None:
        plan = preset_plan(preset, horizon_s=cfg.duration_s,
                           intensity=intensity, seed=seed)
    session_cfg = SessionConfig(
        duration_s=cfg.duration_s, warmup_s=cfg.warmup_s, faults=plan)
    result: SessionResult = simulate_sessions(
        pop, cfg.variant, online, session_cfg,
        edge_server_host_ids=pop.edge_server_host_ids)
    outcomes = result.outcomes
    return {
        "n_players": len(outcomes),
        "n_faults": len(plan),
        "continuity": float(np.mean([o.continuity for o in outcomes]))
        if outcomes else 0.0,
        "satisfied": float(np.mean([o.satisfied for o in outcomes]))
        if outcomes else 0.0,
        "mean_latency_s": result.mean_latency_s,
        "served_supernode": result.fraction_served_by("supernode"),
        "fault_stats": result.fault_stats,
        "plan": plan.to_dict(),
    }
