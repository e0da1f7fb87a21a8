"""Unit tests for metros, host placement and topology building."""

import numpy as np
import pytest

from repro.network.topology import (
    Host,
    HostKind,
    Metro,
    Topology,
    build_topology,
    make_metros,
    place_edge_servers,
    promote_supernodes,
    sample_host_positions,
)


class TestMetro:
    def test_weight_positive(self):
        with pytest.raises(ValueError):
            Metro(0, (0.0, 0.0), 0.0)

    def test_make_metros_weights_normalized(self, rng):
        metros = make_metros(rng, n_metros=30)
        total = sum(m.weight for m in metros)
        assert total == pytest.approx(1.0)

    def test_make_metros_zipf_skew(self, rng):
        metros = make_metros(rng, n_metros=50, zipf_exponent=1.0)
        weights = sorted((m.weight for m in metros), reverse=True)
        assert weights[0] > 5 * weights[-1]

    def test_zero_metros_rejected(self, rng):
        with pytest.raises(ValueError):
            make_metros(rng, n_metros=0)


class TestHostPlacement:
    def test_positions_inside_plane(self, rng):
        metros = make_metros(rng, 20)
        pos, _ = sample_host_positions(rng, metros, 500)
        assert np.all(pos[:, 0] >= 0) and np.all(pos[:, 1] >= 0)

    def test_metro_ids_valid(self, rng):
        metros = make_metros(rng, 20)
        _, ids = sample_host_positions(rng, metros, 100)
        assert ids.min() >= 0 and ids.max() < 20

    def test_clustering(self, rng):
        metros = make_metros(rng, 10)
        pos, ids = sample_host_positions(rng, metros, 300,
                                         metro_spread_km=10.0)
        for i in range(300):
            center = np.array(metros[ids[i]].center_km)
            d = np.hypot(*(pos[i] - center))
            assert d < 100.0  # 10 sigma, minus clipping

    def test_negative_count_rejected(self, rng):
        metros = make_metros(rng, 5)
        with pytest.raises(ValueError):
            sample_host_positions(rng, metros, -1)


class TestBuildTopology:
    def test_counts(self, rng):
        topo = build_topology(rng, n_players=200, n_datacenters=5)
        assert topo.indices_of(HostKind.DATACENTER).size == 5
        assert topo.indices_of(HostKind.PLAYER).size == 200
        assert topo.n_hosts == 205

    def test_datacenters_first(self, rng):
        topo = build_topology(rng, n_players=10, n_datacenters=3)
        assert [h.kind for h in topo.hosts[:3]] == [HostKind.DATACENTER] * 3

    def test_positions_aligned(self, rng):
        topo = build_topology(rng, n_players=50, n_datacenters=2)
        for h in topo.hosts:
            assert np.allclose(topo.positions_km[h.host_id], h.position_km)

    def test_datacenters_have_unique_negative_metros(self, rng):
        topo = build_topology(rng, n_players=10, n_datacenters=4)
        dc_metros = [h.metro_id for h in topo.hosts
                     if h.kind is HostKind.DATACENTER]
        assert all(m < 0 for m in dc_metros)
        assert len(set(dc_metros)) == 4

    def test_datacenters_offset_from_metros(self, rng):
        topo = build_topology(rng, n_players=10, n_datacenters=3,
                              dc_offset_km=300.0)
        for k in range(3):
            dc = topo.hosts[k]
            metro = topo.metros[k % len(topo.metros)]
            d = np.hypot(dc.position_km[0] - metro.center_km[0],
                         dc.position_km[1] - metro.center_km[1])
            # Offset unless clipped at the plane border.
            assert d > 100.0 or _near_border(dc.position_km)

    def test_metro_id_array(self, rng):
        topo = build_topology(rng, n_players=20, n_datacenters=2)
        arr = topo.metro_id_array()
        assert arr.shape == (22,)
        assert arr[0] < 0  # datacenter


def _near_border(pos):
    from repro.network.geometry import PLANE_HEIGHT_KM, PLANE_WIDTH_KM
    x, y = pos
    return (x < 1 or y < 1 or x > PLANE_WIDTH_KM - 1
            or y > PLANE_HEIGHT_KM - 1)


class TestPromoteSupernodes:
    def test_changes_kind(self, rng):
        topo = build_topology(rng, n_players=100, n_datacenters=2)
        candidates = topo.indices_of(HostKind.PLAYER)[:30]
        chosen = promote_supernodes(topo, candidates, 10, rng)
        assert chosen.size == 10
        for h in chosen:
            assert topo.hosts[int(h)].kind is HostKind.SUPERNODE

    def test_too_many_rejected(self, rng):
        topo = build_topology(rng, n_players=10, n_datacenters=1)
        candidates = topo.indices_of(HostKind.PLAYER)[:3]
        with pytest.raises(ValueError):
            promote_supernodes(topo, candidates, 5, rng)

    def test_positions_kept(self, rng):
        topo = build_topology(rng, n_players=50, n_datacenters=1)
        candidates = topo.indices_of(HostKind.PLAYER)
        before = topo.positions_km.copy()
        promote_supernodes(topo, candidates, 5, rng)
        assert np.array_equal(topo.positions_km, before)


class TestEdgeServers:
    def test_added_with_unique_metros(self, rng):
        topo = build_topology(rng, n_players=50, n_datacenters=2)
        ids = place_edge_servers(topo, rng, 5)
        assert ids.size == 5
        metros = [topo.hosts[int(i)].metro_id for i in ids]
        assert all(m < -100 for m in metros)
        assert len(set(metros)) == 5

    def test_kind(self, rng):
        topo = build_topology(rng, n_players=10, n_datacenters=1)
        ids = place_edge_servers(topo, rng, 3)
        for i in ids:
            assert topo.hosts[int(i)].kind is HostKind.EDGE_SERVER
