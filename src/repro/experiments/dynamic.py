"""Dynamic population simulation — the paper's §IV churn model.

The paper's experiments run for days with "players join[ing] the system
following the Poisson distribution with an average rate of 5 players per
second" and leaving when their session ends. The per-figure drivers use
a static online snapshot for speed; this module runs the *dynamic*
version end-to-end:

* joins arrive from the simulation's own Poisson process
  (``DynamicSimulation._arrival_proc``), thinned by the plan's diurnal
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
from repro.core.infrastructure import SessionConfig, SystemVariant
from repro.core.player import PlayerEndpoint
from repro.core.server import StreamingServer
from repro.core.supernode import SupernodeServer
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
        self.result = DynamicResult(horizon_s=horizon_s)
        self.cloud = CloudCoordinator(self.env, population.datacenter_ids)
        self._rng = np.random.default_rng(
            population.rngs.master_seed * 0x51ED270B % (2**63))
        self._servers: dict[int, StreamingServer] = {}
        self._online: dict[int, PlayerEndpoint] = {}
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

    # -- server factory -----------------------------------------------------
    def _server_for(self, host_id: int, is_supernode: bool
                    ) -> StreamingServer:
        server = self._servers.get(host_id)
        if server is not None:
            return server
        if is_supernode:
            n_dc = self.population.datacenter_ids.size
            slots = self.population.players[host_id - n_dc].capacity_slots
            server = SupernodeServer(
                self.env, host_id, capacity_slots=slots,
                render_delay_s=self.config.render_delay_s,
                use_deadline_scheduling=self.variant.uses_scheduling,
                scheduling_params=self.config.scheduling, obs=self.obs)
        else:
            server = StreamingServer(
                self.env, host_id,
                uplink_rate_bps=self.config.dc_egress_bps,
                render_delay_s=self.config.render_delay_s,
                use_deadline_scheduling=self.variant.uses_scheduling,
                scheduling_params=self.config.scheduling, obs=self.obs)
        self._servers[host_id] = server
        return server

    # -- processes ------------------------------------------------------------
    def _arrival_proc(self):
        pop = self.population
        plan = self.plan
        rate = (DEFAULT_ARRIVAL_RATE_PER_S
                * pop.n_players / PAPER_POPULATION)
        peak_mult = plan.peak_rate_multiplier()
        peak = rate * peak_mult
        rng = self._rng
        while True:
            yield self.env.timeout(float(rng.exponential(1.0 / max(
                peak, 1e-9))))
            if self.env.now >= self.horizon_s:
                return
            if peak_mult > 1.0:
                # Thinning against the plan's diurnal envelope. A flat
                # plan (peak 1.0) skips the draw entirely, keeping the
                # RNG sequence identical to the pre-plan code path.
                accept = (rate * plan.rate_multiplier(self.env.now)
                          / peak)
                if rng.uniform() >= accept:
                    continue
            pid = int(rng.integers(pop.n_players))
            if pid in self._online:
                continue
            duration = float(rng.uniform(self.min_session_s,
                                         self.max_session_s))
            self.env.process(self._session_proc(pid, duration))

    def _session_proc(self, pid: int, duration_s: float):
        pop = self.population
        lat = pop.latency
        player = pop.players[pid]
        game = pop.social.choose_game(pid, self._playing, self._rng, GAMES)
        host = player.host_id

        served_by = "cloud"
        if self._sn_service is not None:
            res = self._sn_service.assign(host, game.latency_req_s)
            if res.uses_supernode:
                served_by = "supernode"
                site = res.supernode_host_id
            else:
                site = res.datacenter_host_id
        else:
            dc_lat = lat.one_way_matrix_s(
                np.array([host]), pop.datacenter_ids)[0]
            site = int(pop.datacenter_ids[int(np.argmin(dc_lat))])

        server = self._server_for(site, served_by == "supernode")
        downstream = lat.one_way_s(site, host)
        path_rate = lat.path_throughput_bps(site, host)
        encoder = SegmentEncoder(pid, game.latency_req_s,
                                 game.loss_tolerance)
        endpoint = PlayerEndpoint(
            self.env, pid, game, server, feedback_delay_s=downstream,
            use_adaptation=self.variant.uses_adaptation,
            adaptation_params=self.config.adaptation, obs=self.obs)
        endpoint.served_by = served_by  # type: ignore[attr-defined]
        server.attach_player(pid, encoder, endpoint.deliver,
                             downstream, path_rate)
        self._online[pid] = endpoint
        self._playing[pid] = game.game_id
        self.result.joins += 1

        if served_by == "supernode":
            # The action goes up to the player's nearest datacenter,
            # which pushes the state update to the supernode.
            dc = res.datacenter_host_id
            l_r = self.cloud.action_to_update_delay_s(
                lat.one_way_s(host, dc), lat.one_way_s(dc, site))
        else:
            l_r = (lat.one_way_s(host, site) + self.cloud.compute_delay_s)

        end = min(self.env.now + duration_s, self.horizon_s)
        interval = self.config.segment_interval_s
        while self.env.now < end:
            self.env.call_later(l_r, server.render_and_send, pid,
                                self.env.now)
            yield self.env.timeout(interval)

        # Leave: free everything.
        server.detach_player(pid)
        if self._sn_service is not None:
            self._sn_service.release(host)
        self._online.pop(pid, None)
        self._playing.pop(pid, None)
        self.result.leaves += 1
        self.result.continuities.append(endpoint.stats.continuity)
        self.result.satisfied.append(endpoint.is_satisfied())

    def _sampler_proc(self):
        while self.env.now < self.horizon_s:
            yield self.env.timeout(self.sample_interval_s)
            n_online = len(self._online)
            fog = (np.mean([
                getattr(e, "served_by", "cloud") == "supernode"
                for e in self._online.values()])
                if self._online else 0.0)
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

    def run(self) -> DynamicResult:
        """Run the dynamic simulation to the horizon and report."""
        self.env.process(self._arrival_proc())
        self.env.process(self._sampler_proc())
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
