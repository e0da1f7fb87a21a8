"""Supernode churn and backup failover (extension experiment).

The paper requires supernodes to be *stable* and to "notify the central
server of game service providers before leaving the system" (§III-A-1),
and has each player record backup supernodes at assignment time
(§III-A-3). This experiment exercises that machinery: supernodes depart
at a configurable rate (with notice), their players fail over — to their
recorded backup supernode when the strategy is on, or all the way back to
the cloud when it is off — and QoE is measured against the churn rate.

The expected result (and the reason the paper records backups): with
backups, a departure costs one switch gap; without, the affected players
inherit the full cloud path for the rest of the session.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.server import StreamingServer
from repro.core.supernode import SupernodeServer
from repro.experiments.neighbourhood import Neighbourhood
from repro.sim.rng import RngRegistry


@dataclass(frozen=True)
class ChurnConfig:
    """Microcosm parameters for the churn experiment."""

    #: Number of supernodes in the neighbourhood (primary + backups).
    n_supernodes: int = 6
    #: Players per supernode at the start.
    players_per_supernode: int = 4
    #: C_j per supernode.
    capacity_slots: int = 8
    #: Simulated session length and warmup.
    duration_s: float = 60.0
    warmup_s: float = 5.0
    #: Notice a departing supernode gives before going dark (§III-A-1).
    notice_s: float = 1.0
    #: Time for a player to switch to its new serving site.
    switch_delay_s: float = 0.3
    #: l_r via the cloud for fog-served players.
    server_receive_mean_s: float = 0.045
    #: Same-metro downstream one-way latency (median, log-sigma).
    downstream_median_s: float = 0.006
    downstream_sigma: float = 0.5
    #: Cloud-path downstream latency and throughput for fallback players.
    cloud_one_way_s: float = 0.045
    cloud_path_rate_bps: float = 4e6
    render_delay_s: float = 0.005


def simulate_churn(
    departures_per_minute: float,
    use_backups: bool = True,
    seed: int = 0,
    config: ChurnConfig | None = None,
) -> dict[str, float]:
    """Run the churn microcosm; returns QoE aggregates.

    Supernodes depart at ``departures_per_minute`` (exponential gaps
    from the ``churn`` stream). Returns a dict with ``continuity``,
    ``satisfied``, ``departures`` (count actually executed) and
    ``failovers_to_cloud``.
    """
    if departures_per_minute < 0:
        raise ValueError("departure rate must be nonnegative")
    cfg = config or ChurnConfig()
    rng = RngRegistry(seed).stream("churn")
    hood = Neighbourhood(
        cfg, rng, phase_rng=lambda pid: np.random.default_rng(pid + 1))
    env = hood.env

    supernodes = [
        SupernodeServer(env, host_id=i, capacity_slots=cfg.capacity_slots,
                        render_delay_s=cfg.render_delay_s, obs=hood.obs)
        for i in range(cfg.n_supernodes)
    ]
    alive = {sn.host_id: sn for sn in supernodes}
    cloud = StreamingServer(
        env, host_id=10_000, uplink_rate_bps=200e6,
        render_delay_s=cfg.render_delay_s, obs=hood.obs)
    stats = {"departures": 0, "failovers_to_cloud": 0}
    for sn in supernodes:
        for _ in range(cfg.players_per_supernode):
            hood.join(sn)

    def relocate(moved: tuple[int, ...]) -> None:
        for player_id in moved:
            # The recorded backup: the first live supernode with a free
            # slot.
            backups = ([sn for sn in alive.values()
                        if sn.n_players < sn.capacity_slots]
                       if use_backups else [])
            if backups:
                hood.move(player_id, backups[0],
                          hood.players[player_id].downstream_s)
            else:
                stats["failovers_to_cloud"] += 1
                hood.move(player_id, cloud, cfg.cloud_one_way_s,
                          cfg.cloud_path_rate_bps)

    def next_departure() -> None:
        if env.now < cfg.duration_s:
            env.call_later(rng.exponential(60.0 / departures_per_minute),
                           depart)

    def depart() -> None:
        if env.now >= cfg.duration_s or len(alive) <= 1:
            next_departure()
            return
        victim = alive.pop(int(rng.choice(sorted(alive))))
        stats["departures"] += 1
        # Notice period: the supernode keeps serving while its players
        # are migrated.
        env.call_later(cfg.notice_s, go_dark, victim)

    def go_dark(victim: SupernodeServer) -> None:
        moved = [p for p, r in enumerate(hood.players)
                 if r.server is victim]
        for p in moved:
            victim.detach_player(p)
        env.call_later(cfg.switch_delay_s, relocate, tuple(moved))
        next_departure()

    if departures_per_minute > 0:
        env.call_later(0.0, next_departure)
    hood.run()
    qoe = hood.qoe()
    return {
        "continuity": qoe["continuity"],
        "satisfied": qoe["satisfied"],
        "departures": float(stats["departures"]),
        "failovers_to_cloud": float(stats["failovers_to_cloud"]),
    }
