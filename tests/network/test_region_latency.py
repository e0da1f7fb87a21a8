"""Tests for the region-granular lazy latency model and scale population.

At a million players the old all-pairs host machinery is off the table;
the scale path keeps one regions² propagation table, its rows computed
one at a time on first use. These tests pin the laziness (rows appear
only when touched), the memory bound, ``gather_s`` against the scalar
row lookup and its rejection of out-of-range regions, and the
determinism of the region builder and the access-latency sampler.
"""

import numpy as np
import pytest

from repro.network.latency import (
    FIBRE_KM_PER_S,
    LatencyParams,
    RegionalLatency,
    sample_access_latency_s,
)
from repro.network.topology import Regions, build_regions
from repro.sim.rng import RngRegistry, counter_u01, counter_u01_one


def make_model(n_regions=6, seed=0):
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0.0, 4000.0, size=(n_regions, 2))
    return RegionalLatency(centers)


class TestLaziness:
    def test_no_rows_until_touched(self):
        model = make_model()
        assert model.cached_rows == 0

    def test_rows_appear_per_region(self):
        model = make_model()
        model.propagation_row_s(2)
        assert model.cached_rows == 1
        model.propagation_row_s(2)
        assert model.cached_rows == 1  # cached, not recomputed
        model.propagation_row_s(0)
        assert model.cached_rows == 2

    def test_gather_touches_only_source_rows(self):
        model = make_model(n_regions=8)
        src = np.array([3, 3, 5, 3, 5], dtype=np.int64)
        dst = np.array([0, 1, 2, 7, 6], dtype=np.int64)
        model.gather_s(src, dst)
        assert model.cached_rows == 2  # rows 3 and 5 only

    def test_memory_is_regions_squared_not_players(self):
        # A million players over 8 regions: the model's entire state is
        # at most 8 rows of 8 floats, no matter the population.
        model = make_model(n_regions=8)
        players = np.random.default_rng(1).integers(
            0, 8, size=100_000).astype(np.int64)
        model.gather_s(players, np.roll(players, 1))
        assert model.cached_rows <= 8
        assert model._table.size == 8 * 8

    def test_rows_are_immutable(self):
        model = make_model()
        row = model.propagation_row_s(0)
        with pytest.raises(ValueError):
            row[0] = 1.0


class TestCorrectness:
    def test_row_values(self):
        centers = np.array([[0.0, 0.0], [3000.0, 4000.0]])
        p = LatencyParams()
        model = RegionalLatency(centers, p)
        row = model.propagation_row_s(0)
        assert row[0] == 0.0
        assert row[1] == pytest.approx(
            p.route_inflation * 5000.0 / FIBRE_KM_PER_S)
        assert model.propagation_s(0, 1) == model.propagation_s(1, 0)

    def test_gather_fast_path_matches_batch_path(self):
        # The oracle is a separate model's scalar row lookup, so the
        # batch table is never compared with itself: once gathering
        # from an empty cache, once into a full one.
        rng = np.random.default_rng(4)
        src = rng.integers(0, 7, size=200).astype(np.int64)
        dst = rng.integers(0, 7, size=200).astype(np.int64)
        oracle = make_model(n_regions=7, seed=3)
        singles = np.array([
            oracle.propagation_row_s(int(s))[int(d)]
            for s, d in zip(src, dst)
        ])
        for warm in (False, True):
            model = make_model(n_regions=7, seed=3)
            if warm:
                model.full_matrix_s()
                assert model.cached_rows == 7
            batch = model.gather_s(src, dst)
            assert batch.dtype == np.float64
            # bitwise, not approx
            assert batch.tobytes() == singles.tobytes(), warm

    def test_gather_into_out_matches_returned_array(self):
        rng = np.random.default_rng(5)
        src = rng.integers(0, 7, size=20_000).astype(np.int64)
        dst = rng.integers(0, 7, size=20_000).astype(np.int64)
        expected = make_model(n_regions=7).gather_s(src, dst)
        out = np.full(src.size, np.nan)
        got = make_model(n_regions=7).gather_s(src, dst, out=out)
        assert got is out
        assert out.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("use_out", [False, True])
    @pytest.mark.parametrize("warm", [False, True])
    @pytest.mark.parametrize("src,dst,error", [
        ([0, -1], [0, 1], ValueError),
        ([0, 4], [0, 1], IndexError),
        ([0, 1], [0, 4], IndexError),
        ([0, 1], [0, -1], IndexError),
        ([4], [0], IndexError),
        ([0], [9], IndexError),
    ])
    def test_gather_rejects_out_of_range_regions(self, warm, src, dst,
                                                 error, use_out):
        model = make_model(n_regions=4)
        if warm:
            model.full_matrix_s()
        out = np.zeros(len(src)) if use_out else None
        with pytest.raises(error):
            model.gather_s(np.array(src, dtype=np.int64),
                           np.array(dst, dtype=np.int64), out=out)

    def test_full_matrix_matches_rows(self):
        model = make_model(n_regions=5)
        full = model.full_matrix_s()
        for r in range(5):
            assert np.array_equal(full[r], model.propagation_row_s(r))

    def test_bad_region_raises(self):
        model = make_model(n_regions=3)
        with pytest.raises(IndexError):
            model.propagation_row_s(3)

    def test_bad_centers_shape(self):
        with pytest.raises(ValueError):
            RegionalLatency(np.zeros((4, 3)))


class TestRegionsBuilder:
    def test_deterministic(self):
        a = build_regions(RngRegistry(5).stream("regions"), 1000, 6)
        b = build_regions(RngRegistry(5).stream("regions"), 1000, 6)
        assert np.array_equal(a.region_of_player, b.region_of_player)
        assert np.array_equal(a.centers_km, b.centers_km)

    def test_shapes_and_counts(self):
        regions = build_regions(RngRegistry(0).stream("r"), 5000, 8)
        assert isinstance(regions, Regions)
        assert regions.n_regions == 8
        assert regions.n_players == 5000
        counts = regions.player_counts()
        assert counts.sum() == 5000
        assert counts.shape == (8,)

    def test_zipf_weights_skew(self):
        # Harmonic weights: the top region serves the largest share.
        regions = build_regions(RngRegistry(1).stream("r"), 20_000, 6)
        counts = regions.player_counts()
        assert counts[0] == counts.max()
        assert counts[0] > 2 * counts[-1]


class TestAccessLatencySampler:
    def test_deterministic_and_bounded(self):
        p = LatencyParams()
        a = sample_access_latency_s(RngRegistry(2).stream("a"), 10_000, p)
        b = sample_access_latency_s(RngRegistry(2).stream("a"), 10_000, p)
        assert np.array_equal(a, b)
        assert a.min() > 0.0
        assert a.max() <= p.poor_median_s * 0.85 * 4.45

    def test_bimodal_tail(self):
        p = LatencyParams()
        lat = sample_access_latency_s(RngRegistry(3).stream("a"), 50_000, p)
        poor = (lat > p.access_median_s * 0.85 * 4.45).mean()
        assert 0.0 < poor < 2 * p.poor_fraction


class TestCounterRng:
    def test_scalar_matches_vector_bitwise(self):
        ids = np.arange(0, 5000, dtype=np.int64)
        for step, salt in [(0, 1), (17, 2), (123456, 987654321)]:
            vec = counter_u01(ids, step, salt)
            for i in (0, 1, 499, 4999):
                assert counter_u01_one(int(ids[i]), step, salt) == vec[i]

    def test_out_matches_vector_and_scalar_bitwise(self):
        # Longer than one mixing chunk, with a ragged last chunk.
        ids = np.arange(20_000, dtype=np.int64) * 7919 - 3
        for step, salt in [(0, 1), (17, 2), (123456, 987654321)]:
            vec = counter_u01(ids, step, salt)
            out = np.full(ids.size, np.nan)
            assert counter_u01(ids, step, salt, out=out) is out
            assert out.tobytes() == vec.tobytes()
            for i in (0, 1, 8191, 8192, 19_999):
                assert counter_u01_one(int(ids[i]), step, salt) == out[i]

    def test_out_must_fit(self):
        ids = np.arange(10, dtype=np.int64)
        for bad in (np.zeros(9), np.zeros(10, dtype=np.float32),
                    np.zeros(20)[::2]):
            with pytest.raises(ValueError):
                counter_u01(ids, 1, 2, out=bad)

    def test_range_and_spread(self):
        u = counter_u01(np.arange(100_000, dtype=np.int64), 7, 3)
        assert u.min() >= 0.0
        assert u.max() < 1.0
        assert abs(u.mean() - 0.5) < 0.01

    def test_keys_decorrelate(self):
        ids = np.arange(1000, dtype=np.int64)
        assert not np.array_equal(counter_u01(ids, 1, 3),
                                  counter_u01(ids, 2, 3))
        assert not np.array_equal(counter_u01(ids, 1, 3),
                                  counter_u01(ids, 1, 4))
