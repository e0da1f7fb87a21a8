"""Social graph: power-law friend counts and social game choice.

"The number of friends for each player follows power-law distribution with
skew factor of 0.5" (§IV, citing the Facebook measurement study). We draw a
power-law degree sequence with exponent derived from the skew factor and
realize it with a configuration-model graph, self-loops and multi-edges
removed. :func:`build_social_graph` pairs the stubs exactly as
``networkx.configuration_model`` does for an integer seed, so the graph
is the one networkx would build, without importing it.

The social graph drives game selection: "when a player joins the system,
if none of its friends is playing, it randomly chooses a game to play;
otherwise, it chooses the game that has the largest number of its friends
playing."
"""

from __future__ import annotations

import random
from collections import Counter
from typing import Optional, Sequence

import numpy as np

from repro.workload.games import GAMES, Game


class SocialGraph:
    """Friendship structure over player ids ``0..n-1``.

    ``friends[i]`` is the set of player ``i``'s friends; the relation is
    symmetric and irreflexive.
    """

    def __init__(self, friends: list[set[int]]):
        self._friends = friends
        self.n_players = len(friends)

    def friends_of(self, player_id: int) -> list[int]:
        """Friend ids of ``player_id`` (empty for isolated or unknown
        players)."""
        if not 0 <= player_id < self.n_players:
            return []
        return list(self._friends[player_id])

    def degree(self, player_id: int) -> int:
        """Number of friends of ``player_id`` (0 for unknown players)."""
        if not 0 <= player_id < self.n_players:
            return 0
        return len(self._friends[player_id])

    def choose_game(
        self,
        player_id: int,
        playing: dict[int, int],
        rng: np.random.Generator,
        games: Sequence[Game] = GAMES,
    ) -> Game:
        """Pick the joining player's game (paper §IV rule).

        Parameters
        ----------
        player_id:
            The joining player.
        playing:
            Map of currently-online player id -> game id.
        rng:
            Randomness for the no-friends-online fallback.
        """
        votes = Counter()
        for friend in self.friends_of(player_id):
            game_id = playing.get(friend)
            if game_id is not None:
                votes[game_id] += 1
        if not votes:
            return games[int(rng.integers(len(games)))]
        top = max(votes.values())
        # Deterministic tie-break on game id keeps runs reproducible.
        best_game_id = min(g for g, v in votes.items() if v == top)
        return games[best_game_id - 1]


def powerlaw_degree_sequence(
    rng: np.random.Generator,
    n: int,
    skew: float = 0.5,
    max_degree: Optional[int] = None,
) -> np.ndarray:
    """Draw a power-law degree sequence with the paper's skew factor.

    Skew 0.5 means P(degree = k) ∝ k^-(1 + skew); degrees start at 1.
    The sequence sum is forced even so a configuration model exists.
    """
    if n <= 0:
        return np.zeros(0, dtype=int)
    if skew <= 0:
        raise ValueError("skew must be positive")
    exponent = 1.0 + skew
    if max_degree is None:
        max_degree = max(2, int(np.sqrt(n)))
    ks = np.arange(1, max_degree + 1, dtype=float)
    probs = ks ** (-exponent)
    probs /= probs.sum()
    degrees = rng.choice(np.arange(1, max_degree + 1), size=n, p=probs)
    if degrees.sum() % 2 == 1:
        degrees[int(rng.integers(n))] += 1
    return degrees.astype(int)


def build_social_graph(
    rng: np.random.Generator,
    n_players: int,
    skew: float = 0.5,
) -> SocialGraph:
    """Realize the power-law friendship graph for ``n_players`` players.

    A configuration model: every player contributes one stub per unit of
    degree, in player order; ``random.Random(seed)`` shuffles the stubs
    and the first half of the list is paired with the second.
    Self-loops are dropped and repeated pairs collapse into one
    friendship. These are ``networkx.configuration_model``'s steps for
    an integer seed, so the friend sets equal networkx's (pinned by the
    workload tests).
    """
    degrees = powerlaw_degree_sequence(rng, n_players, skew)
    seed = int(rng.integers(2**31 - 1))
    stubs = np.repeat(np.arange(n_players), degrees).tolist()
    random.Random(seed).shuffle(stubs)
    half = len(stubs) // 2
    friends: list[set[int]] = [set() for _ in range(n_players)]
    for u, v in zip(stubs[:half], stubs[half:]):
        if u != v:
            friends[u].add(v)
            friends[v].add(u)
    return SocialGraph(friends)
