"""Orchestration experiment: assignment strategies head to head.

Runs the packet-level session simulation once per (strategy, load-skew,
churn) grid point and reports QoE alongside the load-distribution
indices (DESIGN.md §13), so a single sweep answers *when* the
DRAGON-style distributed negotiation beats the paper's one-shot greedy
placement. Everything is a pure function of ``(scale, seed, strategy,
skew, churn)``, so points slot into the parallel sweep engine and the
result cache like any other figure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.assignment import AssignmentParams, STRATEGY_NAMES
from repro.core.infrastructure import (
    SessionConfig,
    SessionResult,
    SystemVariant,
    simulate_sessions,
)
from repro.experiments.scenarios import peersim_scenario
from repro.faults.plan import preset_plan

#: Load-skew scenarios: the Zipf exponent over metro ranks. ``uniform``
#: is the paper's testbed; ``skewed`` concentrates ~90 % of the
#: population in the top metro (launch-day regional pile-up).
SKEW_EXPONENTS = {"uniform": 1.0, "skewed": 3.5}

#: Churn scenarios: ``none`` runs fault-free; ``churn`` arms the
#: crash-recover preset so both strategies re-place players through
#: ``mark_failed``/failover mid-run.
CHURN_MODES = ("none", "churn")


@dataclass(frozen=True)
class OrchestrationConfig:
    """Constants of an orchestration run."""

    #: Session horizon — long enough for the churn grid points to
    #: detect, back off, and recover (matches the chaos experiment).
    duration_s: float = 12.0
    #: Statistics warm-up (matches the QoE experiments).
    warmup_s: float = 2.0
    #: CloudFog/A is the full system and the one placing supernodes.
    variant: SystemVariant = SystemVariant.CLOUDFOG_A
    #: Fault-preset intensity for the churn grid points.
    intensity: int = 1


def run_orchestration(
    scale: float,
    seed: int,
    strategy: str = "greedy",
    skew: str = "uniform",
    churn: str = "none",
    config: OrchestrationConfig | None = None,
) -> dict:
    """Run one grid point and report QoE + load-distribution indices."""
    if strategy not in STRATEGY_NAMES:
        raise ValueError(f"unknown strategy {strategy!r}; "
                         f"choose from {STRATEGY_NAMES}")
    if skew not in SKEW_EXPONENTS:
        raise ValueError(f"unknown skew {skew!r}; "
                         f"choose from {tuple(SKEW_EXPONENTS)}")
    if churn not in CHURN_MODES:
        raise ValueError(f"unknown churn {churn!r}; "
                         f"choose from {CHURN_MODES}")
    cfg = config or OrchestrationConfig()
    scenario = peersim_scenario(scale, seed=seed).with_(
        zipf_exponent=SKEW_EXPONENTS[skew])
    pop = scenario.build()
    online = scenario.online_sample(pop)
    plan = None
    if churn == "churn":
        plan = preset_plan("crash-recover", horizon_s=cfg.duration_s,
                           intensity=cfg.intensity, seed=seed)
    session_cfg = SessionConfig(
        duration_s=cfg.duration_s, warmup_s=cfg.warmup_s, faults=plan,
        assignment=AssignmentParams(strategy=strategy))
    result: SessionResult = simulate_sessions(
        pop, cfg.variant, online, session_cfg,
        edge_server_host_ids=pop.edge_server_host_ids)
    outcomes = result.outcomes
    return {
        "strategy": strategy,
        "skew": skew,
        "churn": churn,
        "n_players": len(outcomes),
        "continuity": float(np.mean([o.continuity for o in outcomes]))
        if outcomes else 0.0,
        "satisfied": float(np.mean([o.satisfied for o in outcomes]))
        if outcomes else 0.0,
        "mean_latency_s": result.mean_latency_s,
        "served_supernode": result.fraction_served_by("supernode"),
        "load_indices": result.load_indices,
        "fault_stats": result.fault_stats,
    }
