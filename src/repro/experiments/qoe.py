"""QoE experiments — Figures 8 (response latency) and 9 (continuity).

Both run the packet-level session simulation
(:func:`repro.core.infrastructure.simulate_sessions`) over the scenario's
online population:

* Figure 8 reports average response latency per player for each system;
* Figure 9 sweeps the number of concurrent players and reports average
  playback continuity per system.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.infrastructure import (
    SessionConfig,
    SessionResult,
    SystemVariant,
    simulate_sessions,
)
from repro.experiments.scenarios import Scenario
from repro.metrics.series import FigureSeries

ALL_SYSTEMS: tuple[SystemVariant, ...] = (
    SystemVariant.CLOUD,
    SystemVariant.EDGECLOUD,
    SystemVariant.CLOUDFOG_B,
    SystemVariant.CLOUDFOG_A,
)


def run_variant(
    scenario: Scenario,
    variant: SystemVariant,
    n_online: int | None = None,
    config: SessionConfig | None = None,
    seed: int | None = None,
) -> SessionResult:
    """Build the population and run one variant's session simulation."""
    pop = scenario.build(seed=seed)
    online = scenario.online_sample(pop, n=n_online)
    return simulate_sessions(
        pop, variant, online, config,
        edge_server_host_ids=pop.edge_server_host_ids)


def latency_point(
    scenario: Scenario,
    variant: SystemVariant,
    n_online: int | None = None,
    config: SessionConfig | None = None,
) -> float:
    """One Figure 8 sweep point: a variant's mean response latency (ms).

    Task-decomposition entry point: every variant rebuilds its
    population from the scenario seed, so variants are independent
    units for the parallel sweep engine.
    """
    result = run_variant(scenario, variant, n_online, config)
    return result.mean_latency_s * 1000.0


def continuity_point(
    scenario: Scenario,
    n_players: int,
    variant: SystemVariant,
    config: SessionConfig | None = None,
) -> float:
    """One Figure 9 sweep point: mean continuity at one (count, variant)."""
    result = run_variant(scenario, variant, int(n_players), config)
    return result.mean_continuity


def continuity_vs_players(
    scenario: Scenario,
    player_counts: Sequence[int],
    variants: Sequence[SystemVariant] = ALL_SYSTEMS,
    config: SessionConfig | None = None,
) -> list[FigureSeries]:
    """Figure 9: average playback continuity vs concurrent players."""
    series = [
        FigureSeries(label=v.value, x_label="# players",
                     y_label="playback continuity")
        for v in variants
    ]
    for n in player_counts:
        for s, variant in zip(series, variants):
            s.add(n, continuity_point(scenario, int(n), variant, config))
    return series

