"""Supernode-load experiments — Figures 10 and 11.

Both figures stress a single supernode with a growing number of supported
players (5–25) and report the fraction of satisfied players:

* Figure 10: CloudFog-adapt vs CloudFog/B — the encoding rate adaptation
  lowers bitrates under congestion so segments keep meeting deadlines
  ("the increase rate reaches 27 % when the number of supported players
  of a supernode is 25");
* Figure 11: CloudFog-schedule vs CloudFog/B — EDF ordering plus
  tolerance-weighted packet dropping keeps tight-deadline segments on
  time when the uplink saturates.

The microcosm is a :class:`~repro.experiments.neighbourhood.Neighbourhood`
around one supernode with a fixed uplink: ``k`` same-metro players with
the paper's workload mix and the standard segment cadence. The sweeps
over ``k`` and the strategies are the ``fig10``/``fig11`` specs in
:mod:`repro.experiments.specs`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.adaptation import AdaptationParams
from repro.core.scheduling import SchedulingParams
from repro.core.supernode import SupernodeServer
from repro.experiments.neighbourhood import Neighbourhood
from repro.sim.rng import RngRegistry


@dataclass(frozen=True)
class SupernodeLoadConfig:
    """Microcosm parameters for the Figure 10/11 sweeps."""

    #: C_j of the stressed supernode (uplink = slots × 1800 kbps).
    #: The sweep pushes to 25 supported players, which only an
    #: above-average supernode would be assigned; 10 slots (18 Mbps)
    #: puts the FIFO baseline's saturation knee inside the sweep range
    #: while leaving the adaptation floor (25 × 300 kbps) feasible.
    capacity_slots: int = 10
    #: Simulated session length.
    duration_s: float = 30.0
    #: Warmup before QoE accounting starts (convergence transient).
    warmup_s: float = 8.0
    #: l_r — action-to-supernode delay (player→cloud→supernode), mean.
    server_receive_mean_s: float = 0.045
    #: Same-metro downstream one-way latency: median and log-sigma.
    downstream_median_s: float = 0.006
    downstream_sigma: float = 0.5
    #: Render delay at the supernode.
    render_delay_s: float = 0.005
    #: Strategy constants.
    adaptation: AdaptationParams = AdaptationParams()
    scheduling: SchedulingParams = SchedulingParams()


def simulate_supernode_load(
    n_players: int,
    use_adaptation: bool,
    use_scheduling: bool,
    seed: int = 0,
    config: SupernodeLoadConfig | None = None,
) -> dict[str, float]:
    """Stress one supernode with ``n_players`` and measure QoE.

    Returns a dict with ``satisfied`` (fraction), ``continuity`` (mean),
    ``latency_s`` (mean response), and ``dropped_packets``.
    """
    if n_players < 1:
        raise ValueError("need at least one player")
    cfg = config or SupernodeLoadConfig()
    rng = RngRegistry(seed).stream("supernode-load")
    # One stream for the player draws and, after them, the phases.
    hood = Neighbourhood(cfg, rng, phase_rng=lambda _pid: rng)
    server = SupernodeServer(
        hood.env, host_id=0,
        capacity_slots=cfg.capacity_slots,
        render_delay_s=cfg.render_delay_s,
        use_deadline_scheduling=use_scheduling,
        scheduling_params=cfg.scheduling,
        obs=hood.obs,
    )
    for _ in range(n_players):
        hood.join(server, use_adaptation=use_adaptation,
                  adaptation_params=cfg.adaptation)
    hood.run()
    return {
        **hood.qoe(),
        "dropped_packets": float(
            getattr(server.buffer, "packets_dropped", 0)),
    }


#: (label, use_adaptation, use_scheduling) for the paper's comparisons.
FIG10_STRATEGIES = (("CloudFog/B", False, False),
                    ("CloudFog-adapt", True, False))
FIG11_STRATEGIES = (("CloudFog/B", False, False),
                    ("CloudFog-schedule", False, True))

