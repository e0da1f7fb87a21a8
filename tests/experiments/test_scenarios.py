"""Unit tests for experiment scenarios."""

import numpy as np
import pytest

from repro.experiments.scenarios import (
    ONLINE_FRACTION,
    peersim_scenario,
    planetlab_scenario,
)


class TestPeersimScenario:
    def test_full_scale_matches_paper(self):
        scen = peersim_scenario(scale=1.0)
        assert scen.n_players == 10_000
        assert scen.n_datacenters == 5
        assert scen.n_supernodes == 600
        assert scen.n_edge_servers == 45
        assert scen.capable_fraction == 0.10

    def test_scaling_preserves_ratios(self):
        scen = peersim_scenario(scale=0.1)
        assert scen.n_players == 1000
        assert scen.n_supernodes == 60
        # supernodes per player preserved
        assert scen.n_supernodes / scen.n_players == pytest.approx(
            0.06, abs=0.01)

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            peersim_scenario(scale=0.0)
        with pytest.raises(ValueError):
            peersim_scenario(scale=1.5)

    def test_online_fraction(self):
        scen = peersim_scenario(scale=1.0)
        assert scen.n_online == round(ONLINE_FRACTION * 10_000)

    def test_with_override(self):
        scen = peersim_scenario(scale=0.1).with_(n_datacenters=25)
        assert scen.n_datacenters == 25
        assert scen.n_players == 1000

    def test_build(self, small_scenario, small_population):
        assert small_population.n_players == small_scenario.n_players
        assert (small_population.supernode_host_ids.size
                == small_scenario.n_supernodes)
        assert (small_population.edge_server_host_ids.size
                == small_scenario.n_edge_servers)

    def test_online_sample_size_and_range(self, small_scenario,
                                          small_population):
        online = small_scenario.online_sample(small_population)
        assert online.size == small_scenario.n_online
        assert online.min() >= 0
        assert online.max() < small_scenario.n_players
        assert np.unique(online).size == online.size


class TestPlanetlabScenario:
    def test_full_scale_matches_paper(self):
        scen = planetlab_scenario(scale=1.0)
        assert scen.n_players == 750
        assert scen.n_datacenters == 2
        assert scen.n_supernodes == 300
        assert scen.n_edge_servers == 8
        assert scen.capable_fraction == 0.40

    def test_university_network_latency_params(self):
        scen = planetlab_scenario()
        assert scen.latency_params is not None
        assert scen.latency_params.access_median_s < 0.01

    def test_build_small(self, small_planetlab):
        assert small_planetlab.datacenter_ids.size == 2
        assert small_planetlab.n_players == 75

    def test_median_pairwise_rtt_matches_planetlab(self, small_planetlab):
        """All-pairs-ping medians on PlanetLab sit around 50-90 ms; the
        consumer latency defaults would put this sample near 100 ms."""
        rng = np.random.default_rng(1)
        hosts = rng.choice(small_planetlab.player_host_ids(), size=50,
                           replace=False)
        mat = small_planetlab.latency.rtt_matrix_s(hosts, hosts)
        median = float(np.median(mat[~np.eye(50, dtype=bool)]))
        assert 0.05 < median < 0.09

    def test_same_site_latency_small(self, small_planetlab):
        topo = small_planetlab.topology
        by_site = {}
        for h in small_planetlab.player_host_ids():
            by_site.setdefault(topo.hosts[int(h)].metro_id, []).append(int(h))
        pairs = [(m[0], m[1]) for m in by_site.values() if len(m) >= 2]
        assert pairs, "expected sites with multiple hosts"
        rtts = [small_planetlab.latency.rtt_s(a, b) for a, b in pairs]
        assert float(np.median(rtts)) < 0.03
