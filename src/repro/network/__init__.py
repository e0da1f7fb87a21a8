"""Network substrate: geometry, latency, packets, topology.

CloudFog's evaluation runs on PeerSim with communication latencies taken
from a PlanetLab trace, and on PlanetLab itself. This package replaces both
with a synthetic but calibrated model:

* hosts live on a continental-US-scale plane, clustered into metro areas
  with power-law populations (:mod:`repro.network.topology`);
* one-way latency between two hosts is *access latency* (per-host
  lognormal last-mile delay) + *propagation* (distance over fibre speed,
  times a route-inflation factor) + pairwise jitter
  (:mod:`repro.network.latency`);
* video segments travel as packets (:mod:`repro.network.packet`); the
  uplink that serializes them is the streaming server's callback-driven
  uplink (:mod:`repro.core.server`);
* the paper's 750-host PlanetLab testbed is
  :func:`repro.experiments.scenarios.planetlab_scenario`: the usual
  ``build_population`` with university-site placement and
  ``PLANETLAB_LATENCY_PARAMS``.

The latency constants are calibrated so that the *datacenter coverage*
curves match the measurements the paper builds on (Choy et al.: 13 EC2
datacenters give ≤80 ms median latency to fewer than 70 % of US users).
"""

from repro.network.geometry import Point, distance_km, pairwise_distances_km
from repro.network.latency import LatencyModel, LatencyParams
from repro.network.packet import Packet, VideoSegment
from repro.network.topology import Host, Metro, Topology, build_topology

__all__ = [
    "Host",
    "LatencyModel",
    "LatencyParams",
    "Metro",
    "Packet",
    "Point",
    "Topology",
    "VideoSegment",
    "build_topology",
    "distance_km",
    "pairwise_distances_km",
]
