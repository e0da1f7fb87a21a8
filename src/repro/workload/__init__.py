"""Workload generation: players, games, sessions, social structure.

Reproduces the paper's §IV workload verbatim:

* 10 000 players (online and offline), 10 % supernode-capable;
* Poisson arrivals at 5 players/second (the rate constant; the join
  process itself runs in :mod:`repro.experiments.dynamic` and
  :mod:`repro.dynamics`);
* node capacities Pareto-distributed with mean 5 and shape α = 1
  (truncated — see :mod:`repro.workload.capacities`);
* number of friends per player power-law with skew 0.5;
* daily play time: 50 % of players in (0, 2] h, 30 % in (2, 5] h,
  20 % in (5, 24] h;
* five games whose latency requirements and tolerance degrees are the
  five rows of Figure 2; a joining player picks the game most of its
  online friends play, or uniformly at random when none are online.
"""

from repro.workload.games import GAMES, Game, game_for_level
from repro.workload.capacities import pareto_capacities
from repro.workload.social import SocialGraph, build_social_graph
from repro.workload.sessions import sample_daily_play_s
from repro.workload.players import Player, Population, build_population

__all__ = [
    "GAMES",
    "Game",
    "Player",
    "Population",
    "SocialGraph",
    "build_population",
    "build_social_graph",
    "game_for_level",
    "pareto_capacities",
    "sample_daily_play_s",
]
