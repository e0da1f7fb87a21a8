"""Experiment scenarios: the paper's two testbeds, with a scale knob.

The paper evaluates on two setups (§IV):

* **PeerSim simulation** — 10 000 players (10 % supernode-capable, 600
  promoted), 5 main datacenters, EdgeCloud +45 servers, communication
  latencies from a PlanetLab trace;
* **PlanetLab** — 750 nodes nationwide (300 supernode-capable), 2
  datacenter nodes (Princeton + UCLA), EdgeCloud +8 servers. Here the
  two datacenters sit ``DC_OFFSET_KM`` (350 km) off the two largest
  university sites, where ``build_topology`` places every datacenter.

``scale`` shrinks all population counts proportionally so unit tests and
benchmarks run in seconds while preserving every *ratio* that drives the
results (players per supernode, slots per online player, servers per
metro). Full-scale runs use ``scale=1.0``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from repro.network.latency import LatencyParams
from repro.sim.rng import RngRegistry
from repro.workload.players import Population, build_population

#: Steady-state online fraction implied by the paper's play-time mixture:
#: E[daily play] / 24 h = (0.5·1 h + 0.3·3.5 h + 0.2·14.5 h) / 24 ≈ 0.19.
ONLINE_FRACTION = 0.19

#: PlanetLab hosts sit on university networks, whose access latency is
#: far lower than consumer ISPs'; all-pairs-ping medians come out at
#: roughly 50–90 ms RTT.
PLANETLAB_LATENCY_PARAMS = LatencyParams(
    access_median_s=0.004,
    access_sigma=0.9,
    # PlanetLab is notorious for a minority of heavily loaded/badly
    # connected nodes; they form the poor mode here.
    poor_fraction=0.25,
    poor_median_s=0.045,
    poor_sigma=0.6,
    route_inflation=1.7,
    jitter_scale_s=0.003,
)


@dataclass(frozen=True)
class Scenario:
    """A named, fully parameterized experimental setup."""

    name: str
    n_players: int
    n_datacenters: int
    n_supernodes: int
    n_edge_servers: int
    capable_fraction: float
    n_metros: int
    metro_spread_km: float
    zipf_exponent: float
    latency_params: Optional[LatencyParams]
    seed: int = 42

    @property
    def n_online(self) -> int:
        """Typical number of concurrently online players."""
        return max(1, int(round(ONLINE_FRACTION * self.n_players)))

    def with_(self, **changes) -> "Scenario":
        """A modified copy (sweep helper)."""
        return replace(self, **changes)

    def build(self, seed: Optional[int] = None) -> Population:
        """Materialize the population for this scenario."""
        rngs = RngRegistry(self.seed if seed is None else seed)
        return build_population(
            rngs,
            n_players=self.n_players,
            n_datacenters=self.n_datacenters,
            n_supernodes=self.n_supernodes,
            capable_fraction=self.capable_fraction,
            n_metros=self.n_metros,
            latency_params=self.latency_params,
            n_edge_servers=self.n_edge_servers,
            metro_spread_km=self.metro_spread_km,
            zipf_exponent=self.zipf_exponent,
        )

    def online_sample(self, population: Population,
                      n: Optional[int] = None,
                      salt: str = "online") -> np.ndarray:
        """Sample a set of concurrently online player ids."""
        count = min(self.n_online if n is None else n, self.n_players)
        rng = population.rngs.stream(salt)
        return np.sort(rng.choice(
            self.n_players, size=count, replace=False))


def peersim_scenario(scale: float = 1.0, seed: int = 42) -> Scenario:
    """The paper's simulation testbed, optionally scaled down."""
    if not 0.0 < scale <= 1.0:
        raise ValueError("scale must lie in (0, 1]")
    return Scenario(
        name="peersim",
        n_players=max(50, int(round(10_000 * scale))),
        n_datacenters=5,
        n_supernodes=max(3, int(round(600 * scale))),
        n_edge_servers=max(2, int(round(45 * scale))),
        capable_fraction=0.10,
        n_metros=50,
        metro_spread_km=40.0,
        zipf_exponent=1.0,
        latency_params=None,  # consumer-population defaults
        seed=seed,
    )


def planetlab_scenario(scale: float = 1.0, seed: int = 42) -> Scenario:
    """The paper's PlanetLab testbed, optionally scaled down.

    Hosts sit at university sites: tight clusters (5 km spread),
    near-uniform site populations, low access latencies.
    """
    if not 0.0 < scale <= 1.0:
        raise ValueError("scale must lie in (0, 1]")
    return Scenario(
        name="planetlab",
        n_players=max(40, int(round(750 * scale))),
        n_datacenters=2,
        n_supernodes=max(2, int(round(300 * scale))),
        n_edge_servers=max(1, int(round(8 * scale))),
        capable_fraction=0.40,  # 300 of 750 nodes are capable
        n_metros=60,
        metro_spread_km=5.0,
        zipf_exponent=0.2,  # near-uniform site sizes
        latency_params=PLANETLAB_LATENCY_PARAMS,
        seed=seed,
    )
