"""Supernode cooperation (extension: the paper's §V future work).

"In our future work, we will study the cooperation among supernodes in
rendering and transmiting game videos to further reduce response
latency." This experiment implements the natural first design: supernodes
in one neighbourhood monitor their uplink demand, and an overloaded
supernode *offloads* players to an under-loaded neighbour (which also
holds the virtual world via the cloud's update fan-out, so it can render
for any player). Offloaded players pay a small extra downstream latency —
the cooperating supernode is a few km farther — in exchange for escaping
the hot node's queue.

Setup: a skewed initial placement (popular supernodes happen — e.g. the
first one listed by the cloud fills first). Without cooperation the hot
supernode saturates while its neighbours idle; with cooperation the
neighbourhood behaves like one pooled uplink.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.supernode import SupernodeServer
from repro.experiments.neighbourhood import Neighbourhood
from repro.sim.rng import RngRegistry


@dataclass(frozen=True)
class CooperationConfig:
    """Microcosm parameters for the cooperation experiment."""

    n_supernodes: int = 4
    capacity_slots: int = 5
    duration_s: float = 40.0
    warmup_s: float = 8.0
    #: How often supernodes exchange load reports and rebalance.
    rebalance_interval_s: float = 1.0
    #: Offload when demand exceeds this fraction of the uplink...
    high_watermark: float = 0.9
    #: ...and only onto neighbours below this fraction.
    low_watermark: float = 0.7
    #: Extra one-way downstream latency after offloading (the
    #: cooperating supernode is farther from the player).
    offload_extra_latency_s: float = 0.004
    server_receive_mean_s: float = 0.045
    downstream_median_s: float = 0.006
    downstream_sigma: float = 0.5
    render_delay_s: float = 0.005


def simulate_cooperation(
    n_players: int,
    hot_fraction: float,
    use_cooperation: bool,
    seed: int = 0,
    config: CooperationConfig | None = None,
) -> dict[str, float]:
    """Run the cooperation microcosm.

    Parameters
    ----------
    n_players:
        Total players in the neighbourhood.
    hot_fraction:
        Fraction initially assigned to the first ("hot") supernode;
        the rest spread evenly over the neighbours.
    use_cooperation:
        Enable the load-report/offload protocol.
    """
    if not 0.0 <= hot_fraction <= 1.0:
        raise ValueError("hot_fraction must lie in [0, 1]")
    cfg = config or CooperationConfig()
    rng = RngRegistry(seed).stream("cooperation")
    hood = Neighbourhood(
        cfg, rng, phase_rng=lambda pid: np.random.default_rng(pid + 101))
    env = hood.env

    supernodes = [
        SupernodeServer(env, host_id=i, capacity_slots=cfg.capacity_slots,
                        render_delay_s=cfg.render_delay_s, obs=hood.obs)
        for i in range(cfg.n_supernodes)
    ]
    stats = {"offloads": 0}

    n_hot = int(round(hot_fraction * n_players))
    assignment = [0] * n_hot
    others = list(range(1, cfg.n_supernodes)) or [0]
    for k in range(n_players - n_hot):
        assignment.append(others[k % len(others)])
    for pid in range(n_players):
        hood.join(supernodes[assignment[pid]])

    def demand_bps(sn: SupernodeServer) -> float:
        return sum(enc.bitrate_bps for enc in sn.encoders.values())

    def next_rebalance() -> None:
        if env.now < cfg.duration_s:
            env.call_later(cfg.rebalance_interval_s, rebalance)

    def rebalance() -> None:
        for sn in supernodes:
            while demand_bps(sn) > cfg.high_watermark * sn.uplink_rate_bps:
                # Coolest neighbour with headroom takes one player.
                neighbours = sorted(
                    (n for n in supernodes if n is not sn),
                    key=lambda n: demand_bps(n) / n.uplink_rate_bps)
                if not neighbours:
                    break
                target = neighbours[0]
                headroom = (cfg.low_watermark * target.uplink_rate_bps
                            - demand_bps(target))
                movable = [p for p, r in enumerate(hood.players)
                           if r.server is sn
                           and r.encoder.bitrate_bps <= headroom]
                if not movable:
                    break
                pid = movable[0]
                hood.move(pid, target, hood.players[pid].downstream_s
                          + cfg.offload_extra_latency_s)
                stats["offloads"] += 1
        next_rebalance()

    if use_cooperation:
        env.call_later(0.0, next_rebalance)
    hood.run()
    return {**hood.qoe(), "offloads": float(stats["offloads"])}
