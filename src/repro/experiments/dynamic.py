"""Dynamic population simulation — the paper's §IV churn model.

The paper's experiments run for days with "players join[ing] the system
following the Poisson distribution with an average rate of 5 players per
second" and leaving when their session ends. The per-figure drivers use
a static online snapshot for speed; this module runs the *dynamic*
version end-to-end:

* joins arrive from the simulation's own Poisson process
  (``DynamicSimulation._arrive``), thinned by the plan's diurnal
  envelope when it has one;
* each joining player picks a game socially, runs the §III-A-3
  assignment, streams for its session duration, then leaves and releases
  its supernode slot;
* a sampler records the time series of online count, fog-served
  fraction, and supernode slot utilization.

The arrival rate scales with the population (the paper's 5/s belongs to
its 10 000-player population).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

import repro.obs as obs_mod
from repro.core.assignment import SupernodeAssignment
from repro.core.cloud import CloudCoordinator
from repro.core.infrastructure import (
    SessionConfig,
    SystemVariant,
    place_player,
    site_server,
)
from repro.core.player import PlayerEndpoint
from repro.core.server import StreamingServer
from repro.dynamics.plan import DynamicsPlan
from repro.metrics.series import FigureSeries
from repro.sim.engine import Environment
from repro.streaming.encoder import SegmentEncoder
from repro.workload.games import GAMES
from repro.workload.players import Population
from repro.workload.sessions import DEFAULT_ARRIVAL_RATE_PER_S

#: The paper's arrival rate belongs to a 10 000-player population.
PAPER_POPULATION = 10_000


@dataclass
class DynamicResult:
    """Results of one dynamic run."""

    horizon_s: float
    #: time series, sampled every ``sample_interval_s``.
    times_s: list[float] = field(default_factory=list)
    online: list[int] = field(default_factory=list)
    fog_fraction: list[float] = field(default_factory=list)
    slot_utilization: list[float] = field(default_factory=list)
    #: per-completed-session QoE.
    continuities: list[float] = field(default_factory=list)
    satisfied: list[bool] = field(default_factory=list)
    joins: int = 0
    leaves: int = 0

    @property
    def mean_online(self) -> float:
        return float(np.mean(self.online)) if self.online else 0.0

    @property
    def mean_continuity(self) -> float:
        return float(np.mean(self.continuities)) if self.continuities \
            else 1.0

    @property
    def satisfied_fraction(self) -> float:
        return float(np.mean(self.satisfied)) if self.satisfied else 1.0

    def series(self) -> list[FigureSeries]:
        out = []
        for label, ys in (("online players", self.online),
                          ("fog-served fraction", self.fog_fraction),
                          ("slot utilization", self.slot_utilization)):
            s = FigureSeries(label=label, x_label="time (s)", y_label=label)
            for t, y in zip(self.times_s, ys):
                s.add(t, float(y))
            out.append(s)
        return out


class DynamicSimulation:
    """Join/leave-driven CloudFog simulation."""

    def __init__(
        self,
        population: Population,
        variant: SystemVariant,
        horizon_s: float = 120.0,
        config: SessionConfig | None = None,
        sample_interval_s: float = 5.0,
        min_session_s: float = 20.0,
        max_session_s: float = 90.0,
        plan: DynamicsPlan | None = None,
    ):
        if not variant.uses_fog and variant is not SystemVariant.CLOUD:
            raise ValueError(
                "dynamic simulation supports Cloud and fog variants")
        self.population = population
        self.variant = variant
        self.horizon_s = horizon_s
        self.config = config or SessionConfig()
        self.sample_interval_s = sample_interval_s
        self.min_session_s = min_session_s
        self.max_session_s = max_session_s
        #: Arrival modulation comes from a dynamics plan
        #: (:mod:`repro.dynamics.plan`); ``None`` = flat arrivals.
        self.plan = plan if plan is not None else DynamicsPlan()
        self.env = Environment()
        #: Telemetry context of the run (``repro.obs.use``), as in
        #: ``GamingSession``; the fence resets per-run checker state.
        self.obs = obs_mod.current()
        if self.obs is not None:
            self.obs.emit(0.0, "session", "session.start",
                          variant=variant.value)
        #: Arrival rate (the paper's 5/s scaled to the population); a
        #: diurnal plan thins a stream at its envelope's peak rate.
        peak_mult = self.plan.peak_rate_multiplier()
        self._rate = (DEFAULT_ARRIVAL_RATE_PER_S
                      * population.n_players / PAPER_POPULATION)
        self._peak_rate = self._rate * peak_mult
        self._thinned = peak_mult > 1.0
        self.result = DynamicResult(horizon_s=horizon_s)
        self.cloud = CloudCoordinator(self.env, population.datacenter_ids)
        self._rng = np.random.default_rng(
            population.rngs.master_seed * 0x51ED270B % (2**63))
        self._servers: dict[int, StreamingServer] = {}
        self._online: dict[int, PlayerEndpoint] = {}
        self._served_by: dict[int, str] = {}  # player -> placement kind
        self._playing: dict[int, int] = {}  # player -> game id
        self._sn_service: SupernodeAssignment | None = None
        if variant.uses_fog:
            n_dc = population.datacenter_ids.size
            caps = np.array([
                population.players[int(h) - n_dc].capacity_slots
                for h in population.supernode_host_ids], dtype=int)
            self._sn_service = SupernodeAssignment(
                population.latency, population.supernode_host_ids, caps,
                population.datacenter_ids, self.config.assignment)

    # -- event loops ----------------------------------------------------------
    def _next_arrival(self) -> None:
        """Queue the next candidate join of the (thinned) Poisson
        stream."""
        self.env.call_later(float(self._rng.exponential(1.0 / max(
            self._peak_rate, 1e-9))), self._arrive)

    def _arrive(self) -> None:
        if self.env.now >= self.horizon_s:
            return
        rng = self._rng
        if self._thinned:
            # Thinning against the plan's diurnal envelope. A flat
            # plan (peak 1.0) skips the draw entirely, keeping the
            # RNG sequence identical to the pre-plan code path.
            accept = (self._rate * self.plan.rate_multiplier(self.env.now)
                      / self._peak_rate)
            if rng.uniform() >= accept:
                self._next_arrival()
                return
        pid = int(rng.integers(self.population.n_players))
        if pid not in self._online:
            duration = float(rng.uniform(self.min_session_s,
                                         self.max_session_s))
            # The session joins in its own entry, after the next gap
            # is drawn.
            self.env.call_later(0.0, self._join, pid, duration)
        self._next_arrival()

    def _join(self, pid: int, duration_s: float) -> None:
        pop = self.population
        lat = pop.latency
        game = pop.social.choose_game(pid, self._playing, self._rng, GAMES)
        host = pop.players[pid].host_id
        placement = place_player(pop, self.cloud, host, game.latency_req_s,
                                 self._sn_service)
        site = placement.site_host
        server = site_server(self._servers, self.env, pop, self.variant,
                             self.config, self.obs, site,
                             placement.served_by)
        downstream = lat.one_way_s(site, host)
        path_rate = lat.path_throughput_bps(site, host)
        encoder = SegmentEncoder(pid, game.latency_req_s,
                                 game.loss_tolerance)
        endpoint = PlayerEndpoint(
            self.env, pid, game, server, feedback_delay_s=downstream,
            use_adaptation=self.variant.uses_adaptation,
            adaptation_params=self.config.adaptation, obs=self.obs)
        server.attach_player(pid, encoder, endpoint.deliver,
                             downstream, path_rate)
        self._online[pid] = endpoint
        self._served_by[pid] = placement.served_by
        self._playing[pid] = game.game_id
        self.result.joins += 1
        end = min(self.env.now + duration_s, self.horizon_s)
        self._session_tick(pid, server, placement.l_r, end)

    def _session_tick(self, pid: int, server: StreamingServer, l_r: float,
                      end_s: float) -> None:
        """Stream one segment per interval until ``end_s``, then leave."""
        env = self.env
        now = env.now
        if now < end_s:
            server.render_and_send(pid, now, now + l_r)
            env.call_later(self.config.segment_interval_s,
                           self._session_tick, pid, server, l_r, end_s)
            return
        # Leave: free everything.
        server.detach_player(pid)
        if self._sn_service is not None:
            self._sn_service.release(self.population.players[pid].host_id)
        endpoint = self._online.pop(pid)
        del self._served_by[pid]
        self._playing.pop(pid, None)
        self.result.leaves += 1
        self.result.continuities.append(endpoint.stats.continuity)
        self.result.satisfied.append(endpoint.is_satisfied())

    def _next_sample(self) -> None:
        if self.env.now < self.horizon_s:
            self.env.call_later(self.sample_interval_s, self._sample)

    def _sample(self) -> None:
        n_online = len(self._online)
        fog = (np.mean([s == "supernode" for s in self._served_by.values()])
               if self._served_by else 0.0)
        if self._sn_service is not None:
            caps = self._sn_service.capacities.sum()
            util = (self._sn_service.load.sum() / caps
                    if caps else 0.0)
        else:
            util = 0.0
        self.result.times_s.append(self.env.now)
        self.result.online.append(n_online)
        self.result.fog_fraction.append(float(fog))
        self.result.slot_utilization.append(float(util))
        self._next_sample()

    def run(self) -> DynamicResult:
        """Run the dynamic simulation to the horizon and report."""
        self.env.call_later(0.0, self._next_arrival)
        self.env.call_later(0.0, self._next_sample)
        self.env.run(until=self.horizon_s + 2.0)
        return self.result


def run_dynamic(
    population: Population,
    variant: SystemVariant = SystemVariant.CLOUDFOG_A,
    horizon_s: float = 120.0,
    config: SessionConfig | None = None,
    plan: DynamicsPlan | None = None,
) -> DynamicResult:
    """Convenience wrapper: build, run, return."""
    sim = DynamicSimulation(population, variant, horizon_s, config,
                            plan=plan)
    return sim.run()
