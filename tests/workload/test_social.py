"""Unit tests for the social graph and game choice."""

import hashlib

import numpy as np
import pytest

from repro.workload.games import GAMES
from repro.workload.social import (
    SocialGraph,
    build_social_graph,
    powerlaw_degree_sequence,
)


class TestDegreeSequence:
    def test_even_sum(self, rng):
        degrees = powerlaw_degree_sequence(rng, 999)
        assert degrees.sum() % 2 == 0

    def test_minimum_degree_one(self, rng):
        degrees = powerlaw_degree_sequence(rng, 500)
        assert degrees.min() >= 1

    def test_power_law_shape(self, rng):
        degrees = powerlaw_degree_sequence(rng, 20_000, skew=0.5)
        # Most players have few friends; a tail has many.
        assert np.median(degrees) <= 3
        assert degrees.max() >= 10

    def test_higher_skew_thinner_tail(self, rng):
        lo = powerlaw_degree_sequence(rng, 20_000, skew=0.2)
        hi = powerlaw_degree_sequence(rng, 20_000, skew=2.0)
        assert lo.mean() > hi.mean()

    def test_empty(self, rng):
        assert powerlaw_degree_sequence(rng, 0).size == 0

    def test_bad_skew(self, rng):
        with pytest.raises(ValueError):
            powerlaw_degree_sequence(rng, 10, skew=0.0)


class TestSocialGraph:
    def test_friends_listed(self, rng):
        graph = build_social_graph(rng, 200)
        friends = graph.friends_of(0)
        for f in friends:
            assert 0 in graph.friends_of(f)

    def test_no_self_loops(self, rng):
        graph = build_social_graph(rng, 300)
        for node in range(300):
            assert node not in graph.friends_of(node)

    def test_degree_matches_friends(self, rng):
        graph = build_social_graph(rng, 100)
        for node in range(100):
            assert graph.degree(node) == len(graph.friends_of(node))

    def test_unknown_player_no_friends(self, rng):
        graph = build_social_graph(rng, 10)
        assert graph.friends_of(99999) == []

    def test_reproducible(self):
        g1 = build_social_graph(np.random.default_rng(3), 100)
        g2 = build_social_graph(np.random.default_rng(3), 100)
        for node in range(100):
            assert sorted(g1.friends_of(node)) == sorted(g2.friends_of(node))

    def test_unknown_player_degree_zero(self, rng):
        graph = build_social_graph(rng, 10)
        assert graph.degree(10) == 0
        assert graph.degree(-1) == 0
        assert graph.friends_of(-1) == []

    # Edge lists of the configuration model as networkx 3.6.1 builds it
    # (``nx.configuration_model(degrees, seed)``, multi-edges collapsed,
    # self-loops removed), from the same degree sequence and seed.
    @pytest.mark.parametrize("seed,n,n_edges,sha256", [
        (3, 100, 116,
         "4a7efbcad7179e4be0421b643a665242b935139179bac5053c8a25c6454620ca"),
        (11, 2_000, 4_764,
         "256cdb4d103bdbd4878277bd605d00e228923dd7efc128ea98a338217f18404f"),
        (42, 20_000, 91_066,
         "98a6d55a030e74206849744a7933a23ad3d56457ee829ad6471993508e4b8732"),
    ])
    def test_edges_match_networkx_configuration_model(self, seed, n,
                                                      n_edges, sha256):
        graph = build_social_graph(np.random.default_rng(seed), n)
        edges = sorted((u, v) for u in range(n)
                       for v in graph.friends_of(u) if u < v)
        assert len(edges) == n_edges
        assert hashlib.sha256(repr(edges).encode()).hexdigest() == sha256


class TestGameChoice:
    def test_no_friends_online_random_game(self, rng):
        graph = build_social_graph(rng, 50)
        game = graph.choose_game(0, playing={}, rng=rng)
        assert game in GAMES

    def test_majority_friend_game_wins(self, rng):
        graph = build_social_graph(rng, 50)
        player = max(range(50), key=graph.degree)
        friends = graph.friends_of(player)
        assert len(friends) >= 2
        playing = {f: 3 for f in friends}
        playing[friends[0]] = 5
        game = graph.choose_game(player, playing, rng)
        assert game.game_id == 3

    def test_tie_breaks_deterministically(self, rng):
        graph = build_social_graph(rng, 50)
        player = max(range(50), key=graph.degree)
        friends = graph.friends_of(player)[:2]
        assert len(friends) == 2
        playing = {friends[0]: 4, friends[1]: 2}
        game = graph.choose_game(player, playing, rng)
        assert game.game_id == 2  # lowest id among tied

    def test_offline_friends_ignored(self, rng):
        graph = build_social_graph(rng, 50)
        player = max(range(50), key=graph.degree)
        # Nobody in `playing` -> random fallback, must still be a Game.
        game = graph.choose_game(player, {}, rng)
        assert game in GAMES

    def test_random_fallback_covers_all_games(self, rng):
        graph = build_social_graph(rng, 10)
        seen = {graph.choose_game(0, {}, rng).game_id for _ in range(200)}
        assert seen == {1, 2, 3, 4, 5}
