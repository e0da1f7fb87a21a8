"""The neighbourhood microcosm shared by Figs. 10/11, churn and cooperation.

These experiments stream a few same-metro players from servers built
directly from core classes rather than through ``GamingSession``:
Figs. 10/11 overload one supernode on a fixed uplink, churn moves
players off departing supernodes, cooperation offloads players between
neighbours. What they share lives here once: the per-player draw (game,
lognormal downstream, normal ``l_r``) from the experiment's stream in
join order, the encoder/endpoint wiring, one segment loop per player,
:meth:`Neighbourhood.move` and the QoE summary.

Servers and endpoints take the run's :mod:`repro.obs` context, and each
run opens with a ``session.start`` event as in ``GamingSession``, so
these figures trace and check invariants like the session figures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

import repro.obs as obs_mod
from repro.core.adaptation import AdaptationParams
from repro.core.player import PlayerEndpoint
from repro.core.server import StreamingServer
from repro.sim.engine import Environment
from repro.streaming.encoder import SegmentEncoder
from repro.streaming.video import SEGMENT_DURATION_S
from repro.workload.games import GAMES


@dataclass
class Resident:
    """One player of the neighbourhood and the server holding it."""

    endpoint: PlayerEndpoint
    encoder: SegmentEncoder
    server: StreamingServer
    downstream_s: float
    l_r: float


class Neighbourhood:
    """Players, their segment cadence and QoE over one simulated run.

    ``config`` supplies ``duration_s``, ``warmup_s``,
    ``server_receive_mean_s``, ``downstream_median_s`` and
    ``downstream_sigma``; ``rng`` is the experiment's stream for the
    per-player draws; ``phase_rng(pid)`` is the generator whose first
    uniform draw phase-shifts that player's segment cadence.
    """

    def __init__(self, config, rng: np.random.Generator,
                 phase_rng: Callable[[int], np.random.Generator]):
        self.cfg = config
        self.rng = rng
        self.phase_rng = phase_rng
        self.env = Environment()
        self.obs = obs_mod.current()
        self.players: list[Resident] = []
        if self.obs is not None:
            # Fence the trace: per-run checker state resets here.
            self.obs.emit(0.0, "session", "session.start")

    def join(self, server: StreamingServer, use_adaptation: bool = False,
             adaptation_params: AdaptationParams | None = None) -> int:
        """Draw the next player, attach it to ``server`` and start its
        segment loop; returns the player id."""
        cfg, rng, pid = self.cfg, self.rng, len(self.players)
        game = GAMES[int(rng.integers(len(GAMES)))]
        downstream = float(rng.lognormal(
            np.log(cfg.downstream_median_s), cfg.downstream_sigma))
        l_r = float(max(0.005, rng.normal(
            cfg.server_receive_mean_s, cfg.server_receive_mean_s * 0.2)))
        encoder = SegmentEncoder(pid, game.latency_req_s, game.loss_tolerance)
        endpoint = PlayerEndpoint(
            self.env, pid, game, server, feedback_delay_s=downstream,
            use_adaptation=use_adaptation,
            adaptation_params=adaptation_params,
            stats_after_s=cfg.warmup_s, obs=self.obs)
        # Same-metro paths are short: throughput effectively unbounded.
        server.attach_player(pid, encoder, endpoint.deliver, downstream)
        self.players.append(Resident(endpoint, encoder, server, downstream,
                                     l_r))
        self.env.call_later(0.0, self._start_segments, pid)
        return pid

    def move(self, pid: int, server: StreamingServer, downstream_s: float,
             path_rate_bps: float = float("inf")) -> None:
        """Detach ``pid`` from its server and attach it to ``server``."""
        p = self.players[pid]
        p.server.detach_player(pid)
        p.server = server
        p.downstream_s = downstream_s
        p.endpoint.server = server
        server.attach_player(pid, p.encoder, p.endpoint.deliver,
                             downstream_s, path_rate_bps)

    def run(self) -> None:
        """Run past the last segment so in-flight video lands."""
        self.env.run(until=self.cfg.duration_s + 2.0)

    def qoe(self) -> dict[str, float]:
        """Mean continuity, satisfied fraction and mean response latency
        (over players that received a segment; 0.0 when none did)."""
        endpoints = [p.endpoint for p in self.players]
        latencies = [e.stats.mean_latency_s for e in endpoints
                     if e.stats.latency_count > 0]
        return {
            "continuity": float(np.mean(
                [e.stats.continuity for e in endpoints])),
            "satisfied": float(np.mean(
                [e.is_satisfied() for e in endpoints])),
            "latency_s": float(np.mean(latencies)) if latencies else 0.0,
        }

    def _start_segments(self, pid: int) -> None:
        """Phase-shift the player's segment cadence. Runs once every
        player has joined, so the phases follow all join draws."""
        self.env.call_later(float(
            self.phase_rng(pid).uniform(0, SEGMENT_DURATION_S)),
            self._segment_tick, self.players[pid])

    def _segment_tick(self, p: Resident) -> None:
        """One segment per cadence tick, toward whatever server holds
        the player when its action reaches the serving site."""
        env = self.env
        if env.now >= self.cfg.duration_s:
            return
        env.call_later(p.l_r, self._start_render, p, env.now)
        env.call_later(SEGMENT_DURATION_S, self._segment_tick, p)

    def _start_render(self, p: Resident, action_time_s: float) -> None:
        pid = p.endpoint.player_id
        if pid in p.server.encoders:
            p.server.render_and_send(pid, action_time_s)
            return
        # Between servers: nobody can render this action's video.
        now = self.env.now
        seg = p.encoder.encode_segment(action_time_s, now, state_ready_s=now)
        seg.drop_all()
        p.endpoint.deliver(seg, now)
