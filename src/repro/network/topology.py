"""Host population and metro-clustered placement.

Players, supernodes and datacenters are hosts on the plane. Real user
populations are city-clustered, and that clustering is what makes
supernodes effective in the paper: supernodes are recruited *from the
player population*, so they are near players by construction, while
datacenters sit in a handful of fixed locations.

The topology model:

* ``n_metros`` metro areas with Zipf-like population weights, scattered
  uniformly over the plane;
* each host samples a metro by weight and a Gaussian offset around its
  centre (``metro_spread_km``);
* datacenters are placed at the centres of the most populous metros
  (mirroring where commercial clouds build regions).

The topology is coordinates and metro labels only, with no graph
structure: the latency model works directly on the coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np

from repro.network.geometry import (
    PLANE_HEIGHT_KM,
    PLANE_WIDTH_KM,
    clip_to_plane,
)


class HostKind(Enum):
    """Role of a host in the gaming infrastructure."""

    PLAYER = "player"
    SUPERNODE = "supernode"
    DATACENTER = "datacenter"
    EDGE_SERVER = "edge_server"


@dataclass(frozen=True, slots=True)
class Metro:
    """A metro area: a population cluster on the plane."""

    metro_id: int
    center_km: tuple[float, float]
    weight: float

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ValueError("metro weight must be positive")


@dataclass(slots=True)
class Host:
    """One host: a player machine, supernode, datacenter or edge server."""

    host_id: int
    kind: HostKind
    metro_id: int
    position_km: tuple[float, float]


@dataclass
class Topology:
    """The full placed host population.

    Attributes
    ----------
    metros:
        Metro areas, sorted by descending weight.
    hosts:
        All hosts; ``hosts[i].host_id == i``.
    positions_km:
        ``(n_hosts, 2)`` coordinate array aligned with ``hosts``.
    """

    metros: list[Metro]
    hosts: list[Host] = field(default_factory=list)
    positions_km: np.ndarray = field(
        default_factory=lambda: np.empty((0, 2)))

    def indices_of(self, kind: HostKind) -> np.ndarray:
        """Host ids of all hosts of ``kind``."""
        return np.array(
            [h.host_id for h in self.hosts if h.kind is kind], dtype=int)

    def metro_id_array(self) -> np.ndarray:
        """Metro id of every host, aligned with host ids."""
        return np.array([h.metro_id for h in self.hosts], dtype=int)

    @property
    def n_hosts(self) -> int:
        return len(self.hosts)

    def add_host(
        self,
        kind: HostKind,
        metro_id: int,
        position_km: tuple[float, float],
    ) -> Host:
        """Append a host and keep the coordinate array in sync."""
        host = Host(len(self.hosts), kind, metro_id, position_km)
        self.hosts.append(host)
        self.positions_km = np.vstack(
            [self.positions_km, np.array([position_km])])
        return host


def make_metros(
    rng: np.random.Generator,
    n_metros: int = 50,
    zipf_exponent: float = 1.0,
) -> list[Metro]:
    """Create metros with Zipf-distributed weights at random positions."""
    if n_metros <= 0:
        raise ValueError("need at least one metro")
    ranks = np.arange(1, n_metros + 1, dtype=float)
    weights = ranks ** (-zipf_exponent)
    weights /= weights.sum()
    xs = rng.uniform(0.0, PLANE_WIDTH_KM, size=n_metros)
    ys = rng.uniform(0.0, PLANE_HEIGHT_KM, size=n_metros)
    return [
        Metro(i, (float(xs[i]), float(ys[i])), float(weights[i]))
        for i in range(n_metros)
    ]


def sample_host_positions(
    rng: np.random.Generator,
    metros: list[Metro],
    n_hosts: int,
    metro_spread_km: float = 40.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Sample host coordinates clustered around metros.

    Returns
    -------
    (positions, metro_ids):
        ``(n_hosts, 2)`` coordinates and the metro index of each host.
    """
    if n_hosts < 0:
        raise ValueError("n_hosts must be nonnegative")
    weights = np.array([m.weight for m in metros])
    weights = weights / weights.sum()
    metro_ids = rng.choice(len(metros), size=n_hosts, p=weights)
    centers = np.array([metros[m].center_km for m in metro_ids]) if n_hosts \
        else np.empty((0, 2))
    offsets = rng.normal(0.0, metro_spread_km, size=(n_hosts, 2))
    return clip_to_plane(centers + offsets), metro_ids


#: Datacenters are built where land and power are cheap, typically a few
#: hundred km from the population centres they serve (us-east-1 is in
#: rural Virginia, not New York). The offset is what keeps datacenter
#: coverage below supernode coverage at strict latency requirements.
DC_OFFSET_KM = 350.0


def build_topology(
    rng: np.random.Generator,
    n_players: int,
    n_datacenters: int,
    n_metros: int = 50,
    metro_spread_km: float = 40.0,
    zipf_exponent: float = 1.0,
    dc_offset_km: float = DC_OFFSET_KM,
) -> Topology:
    """Assemble a topology: metros, datacenters near top metros, players.

    Datacenter hosts come first (ids ``0..n_datacenters-1``), players
    after — experiments rely on this ordering when extending a sweep
    (e.g. "add 5 more datacenters" reuses the same player placement).
    """
    metros = make_metros(rng, n_metros, zipf_exponent)
    ordered = sorted(metros, key=lambda m: -m.weight)
    topo = Topology(metros=ordered)

    for k in range(n_datacenters):
        metro = ordered[k % len(ordered)]
        # Offset from the metro centre in a per-site direction; successive
        # rounds through the metro list land at distinct angles so a 26th
        # datacenter near the top metro is a distinct site.
        angle = 2.0 * np.pi * (k * 0.6180339887498949 % 1.0)
        offset = dc_offset_km * np.array([np.cos(angle), np.sin(angle)])
        pos = clip_to_plane(np.array(metro.center_km) + offset)
        # Unique negative metro id: a datacenter shares no regional
        # network with any metro (it is hundreds of km out of town).
        topo.add_host(HostKind.DATACENTER, -(k + 1),
                      (float(pos[0]), float(pos[1])))

    positions, metro_ids = sample_host_positions(
        rng, ordered, n_players, metro_spread_km)
    for i in range(n_players):
        topo.add_host(HostKind.PLAYER, int(metro_ids[i]),
                      (float(positions[i, 0]), float(positions[i, 1])))
    return topo


@dataclass(frozen=True)
class Regions:
    """A region-granular population for scale runs (DESIGN.md §11).

    The full :class:`Topology` materialises one :class:`Host` object per
    player and an ``(n, 2)`` coordinate row appended per host — fine for
    the paper's 10 000 players, hopeless for a million. At scale the
    simulation only ever needs (a) which *region* a player lives in and
    (b) region-to-region propagation, so this builder keeps exactly
    that: O(regions) centroids plus one int32 region id per player.

    Attributes
    ----------
    centers_km:
        ``(n_regions, 2)`` region centroid coordinates.
    weights:
        Normalised population weight of each region (Zipf-like).
    region_of_player:
        ``(n_players,)`` int32 region id of every player.
    """

    centers_km: np.ndarray
    weights: np.ndarray
    region_of_player: np.ndarray

    @property
    def n_regions(self) -> int:
        return self.centers_km.shape[0]

    @property
    def n_players(self) -> int:
        return self.region_of_player.shape[0]

    def player_counts(self) -> np.ndarray:
        """Players per region (int64, aligned with region ids)."""
        return np.bincount(self.region_of_player,
                           minlength=self.n_regions).astype(np.int64)


def build_regions(
    rng: np.random.Generator,
    n_players: int,
    n_regions: int = 8,
) -> Regions:
    """Build a region-granular scale population, fully vectorised.

    Region centroids are uniform on the plane; population weights follow
    the harmonic (Zipf ``s=1``) profile ``1/rank``, computed by exact
    division rather than ``**`` so the weights — and every digest
    downstream of the region assignment — carry no libm ``pow`` ULP
    variance across platforms. Memory and time are O(regions + players);
    no :class:`Host` objects, no per-host coordinate rows.
    """
    if n_regions <= 0:
        raise ValueError("need at least one region")
    if n_players < 0:
        raise ValueError("n_players must be nonnegative")
    weights = 1.0 / np.arange(1, n_regions + 1, dtype=np.float64)
    weights /= weights.sum()
    xs = rng.uniform(0.0, PLANE_WIDTH_KM, size=n_regions)
    ys = rng.uniform(0.0, PLANE_HEIGHT_KM, size=n_regions)
    centers = np.column_stack([xs, ys])
    region_of_player = rng.choice(
        n_regions, size=n_players, p=weights).astype(np.int32)
    return Regions(centers_km=centers, weights=weights,
                   region_of_player=region_of_player)


def place_edge_servers(
    topo: Topology,
    rng: np.random.Generator,
    n_servers: int,
    metro_spread_km: float = 40.0,
) -> np.ndarray:
    """Add EdgeCloud's randomly distributed edge servers to a topology.

    The paper places EdgeCloud's additional servers "randomly distributed";
    we sample them from the metro population distribution (a server in the
    middle of nowhere would be useless in either system). Unlike
    supernodes — which *are* player machines inside residential access
    networks — edge servers sit at infrastructure locations (server rooms,
    IXPs) near a metro but outside its access networks, so they get unique
    metro ids and do not share the same-metro access discount.
    """
    positions, metro_ids = sample_host_positions(
        rng, topo.metros, n_servers, metro_spread_km)
    ids = []
    for i in range(n_servers):
        h = topo.add_host(HostKind.EDGE_SERVER, -(1000 + i),
                          (float(positions[i, 0]), float(positions[i, 1])))
        ids.append(h.host_id)
    return np.array(ids, dtype=int)


def promote_supernodes(
    topo: Topology,
    candidate_player_ids: np.ndarray,
    n_supernodes: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Mark ``n_supernodes`` random capable players as supernodes.

    Mirrors the paper's setup: 10 % of players "have the capacity to be
    supernodes" and 600 of them are randomly selected. The chosen hosts
    keep their position (they *are* player machines) but change kind.
    """
    candidates = np.asarray(candidate_player_ids, dtype=int)
    if n_supernodes > candidates.size:
        raise ValueError(
            f"cannot promote {n_supernodes} of {candidates.size} candidates")
    chosen = rng.choice(candidates, size=n_supernodes, replace=False)
    for host_id in chosen:
        topo.hosts[int(host_id)].kind = HostKind.SUPERNODE
    return np.sort(chosen)
