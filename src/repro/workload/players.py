"""The player population: ties workload pieces to the topology.

``build_population`` assembles the paper's full §IV setup for the
simulation testbed: a metro-clustered topology with datacenters, 10 000
players of whom 10 % are supernode-capable, 600 promoted to supernodes,
Pareto capacities, the social graph, and daily play times.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.network.latency import LatencyModel, LatencyParams
from repro.network.topology import (
    HostKind,
    Topology,
    build_topology,
    place_edge_servers,
    promote_supernodes,
)
from repro.sim.rng import RngRegistry
from repro.workload.capacities import pareto_capacities
from repro.workload.games import GAMES, Game
from repro.workload.sessions import sample_daily_play_s
from repro.workload.social import SocialGraph, build_social_graph

#: Access latency of a datacenter host (carrier-grade connectivity).
DATACENTER_ACCESS_S = 0.003
#: Median access latency of a promoted supernode (vetted connections).
SUPERNODE_ACCESS_MEDIAN_S = 0.005


@dataclass(slots=True)
class Player:
    """One player: identity, placement, endowments."""

    player_id: int
    host_id: int
    capacity_slots: int
    daily_play_s: float
    supernode_capable: bool
    game: Optional[Game] = None  # set at join time


@dataclass
class Population:
    """The complete §IV experimental population."""

    topology: Topology
    latency: LatencyModel
    players: list[Player]
    social: SocialGraph
    datacenter_ids: np.ndarray
    supernode_host_ids: np.ndarray
    rngs: RngRegistry
    #: EdgeCloud's additional servers (empty unless requested).
    edge_server_host_ids: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=int))

    @property
    def n_players(self) -> int:
        return len(self.players)

    def player_host_ids(self) -> np.ndarray:
        """Host ids of all players, aligned with player ids."""
        return np.array([p.host_id for p in self.players], dtype=int)

    def capable_player_ids(self) -> np.ndarray:
        """Ids of supernode-capable players."""
        return np.array(
            [p.player_id for p in self.players if p.supernode_capable],
            dtype=int)


def build_population(
    rngs: RngRegistry,
    n_players: int = 10_000,
    n_datacenters: int = 5,
    n_supernodes: int = 600,
    capable_fraction: float = 0.10,
    n_metros: int = 50,
    latency_params: Optional[LatencyParams] = None,
    friend_skew: float = 0.5,
    n_edge_servers: int = 0,
    metro_spread_km: float = 40.0,
    zipf_exponent: float = 1.0,
) -> Population:
    """Build the simulation-testbed population (paper §IV defaults).

    Parameters
    ----------
    rngs:
        Named RNG registry; uses streams ``topology``, ``capacity``,
        ``social``, ``sessions``, ``latency``, ``supernodes``.
    n_players:
        Total players, online and offline (paper: 10 000).
    n_datacenters:
        Main datacenters (paper: 5 for simulation).
    n_supernodes:
        Players promoted to supernodes (paper: 600).
    capable_fraction:
        Fraction of players with supernode-capable hardware (paper: 10 %).
    """
    if not 0.0 <= capable_fraction <= 1.0:
        raise ValueError("capable_fraction must be in [0, 1]")
    topo = build_topology(
        rngs.stream("topology"), n_players, n_datacenters, n_metros,
        metro_spread_km=metro_spread_km, zipf_exponent=zipf_exponent)
    dc_ids = topo.indices_of(HostKind.DATACENTER)

    capacity_rng = rngs.stream("capacity")
    capacities = pareto_capacities(capacity_rng, n_players)
    daily_play = sample_daily_play_s(rngs.stream("sessions"), n_players)

    # Capability: the top `capable_fraction` by capacity are eligible —
    # "10% of which have the capacity to be supernodes" (§IV).
    n_capable = int(round(capable_fraction * n_players))
    if n_capable > 0:
        threshold_idx = np.argsort(capacities)[::-1][:n_capable]
        capable_mask = np.zeros(n_players, dtype=bool)
        capable_mask[threshold_idx] = True
    else:
        capable_mask = np.zeros(n_players, dtype=bool)

    player_host_ids = topo.indices_of(HostKind.PLAYER)
    players = [
        Player(
            player_id=i,
            host_id=int(player_host_ids[i]),
            capacity_slots=int(capacities[i]),
            daily_play_s=float(daily_play[i]),
            supernode_capable=bool(capable_mask[i]),
        )
        for i in range(n_players)
    ]

    capable_host_ids = np.array(
        [p.host_id for p in players if p.supernode_capable], dtype=int)
    if n_supernodes > capable_host_ids.size:
        raise ValueError(
            f"n_supernodes={n_supernodes} exceeds capable pool "
            f"({capable_host_ids.size})")
    sn_host_ids = promote_supernodes(
        topo, capable_host_ids, n_supernodes, rngs.stream("supernodes"))

    # EdgeCloud's extra servers must exist before the latency model is
    # built so they get access latencies too.
    edge_ids = (
        place_edge_servers(topo, rngs.stream("edge-servers"), n_edge_servers)
        if n_edge_servers > 0 else np.empty(0, dtype=int))

    latency = LatencyModel(
        topo.positions_km, rngs.stream("latency"), latency_params,
        metro_ids=topo.metro_id_array())
    # Datacenters sit on carrier-grade links; supernodes are vetted for
    # connection quality (§III-A-1 reliability/stability requirements).
    latency.override_access(dc_ids, DATACENTER_ACCESS_S)
    if edge_ids.size:
        latency.override_access(edge_ids, DATACENTER_ACCESS_S)
    sn_rng = rngs.stream("supernode-access")
    latency.override_access(
        sn_host_ids,
        sn_rng.lognormal(np.log(SUPERNODE_ACCESS_MEDIAN_S), 0.5,
                         size=sn_host_ids.size))
    social = build_social_graph(rngs.stream("social"), n_players, friend_skew)

    return Population(
        topology=topo,
        latency=latency,
        players=players,
        social=social,
        datacenter_ids=dc_ids,
        supernode_host_ids=sn_host_ids,
        rngs=rngs,
        edge_server_host_ids=edge_ids,
    )
