"""System variants and the packet-level gaming session simulation.

This module wires the substrates together into the six systems the paper
compares (§IV):

=================  ====  ============  ==========  ============
variant            fog   edge servers  adaptation  scheduling
=================  ====  ============  ==========  ============
Cloud              no    no            no          no
EdgeCloud          no    yes           no          no
CloudFog/B         yes   no            no          no
CloudFog-adapt     yes   no            yes         no
CloudFog-schedule  yes   no            no          yes
CloudFog/A         yes   no            yes         yes
=================  ====  ============  ==========  ============

``simulate_sessions`` runs a segment-level discrete-event simulation of a
set of concurrently online players and reports the per-player QoE numbers
behind Figures 8 and 9 and the cloud egress behind Figure 7.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional

import numpy as np

import repro.obs as obs_mod
from repro.core.adaptation import AdaptationParams
from repro.core.assignment import (
    AssignmentParams,
    AssignmentStrategy,
    SupernodeAssignment,
    make_assignment,
)
from repro.core.cloud import (
    DEFAULT_COMPUTE_DELAY_S,
    UPDATE_MESSAGE_BYTES,
    CloudCoordinator,
)
from repro.core.player import PlayerEndpoint
from repro.core.scheduling import SchedulingParams
from repro.core.server import StreamingServer
from repro.core.supernode import SupernodeServer
from repro.faults.failover import FailoverController, FailoverParams
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.faults.session import SessionChaos
from repro.sim.engine import Environment
from repro.streaming.encoder import SegmentEncoder
from repro.streaming.video import SEGMENT_DURATION_S
from repro.workload.games import GAMES, Game
from repro.workload.players import Population


class SystemVariant(Enum):
    """The systems compared in the paper's evaluation."""

    CLOUD = "Cloud"
    EDGECLOUD = "EdgeCloud"
    CLOUDFOG_B = "CloudFog/B"
    CLOUDFOG_ADAPT = "CloudFog-adapt"
    CLOUDFOG_SCHEDULE = "CloudFog-schedule"
    CLOUDFOG_A = "CloudFog/A"

    @property
    def uses_fog(self) -> bool:
        return self in (SystemVariant.CLOUDFOG_B, SystemVariant.CLOUDFOG_ADAPT,
                        SystemVariant.CLOUDFOG_SCHEDULE, SystemVariant.CLOUDFOG_A)

    @property
    def uses_edge_servers(self) -> bool:
        return self is SystemVariant.EDGECLOUD

    @property
    def uses_adaptation(self) -> bool:
        return self in (SystemVariant.CLOUDFOG_ADAPT, SystemVariant.CLOUDFOG_A)

    @property
    def uses_scheduling(self) -> bool:
        return self in (SystemVariant.CLOUDFOG_SCHEDULE, SystemVariant.CLOUDFOG_A)


@dataclass(frozen=True)
class SessionConfig:
    """Knobs of the session simulation."""

    #: Simulated wall time.
    duration_s: float = 30.0
    #: Warmup before QoE accounting starts (convergence transient).
    warmup_s: float = 5.0
    #: Video segment cadence (and cloud update tick).
    segment_interval_s: float = SEGMENT_DURATION_S
    #: Cloud game-state computation time per action.
    compute_delay_s: float = DEFAULT_COMPUTE_DELAY_S
    #: Rendering time per segment (cloud, edge or supernode).
    render_delay_s: float = 0.005
    #: Per-datacenter egress rate for *streaming* (baselines and
    #: cloud-fallback players).
    dc_egress_bps: float = 200e6
    #: EdgeCloud edge server capacity (players) and derived uplink.
    edge_capacity_slots: int = 50
    #: Λ — cloud-to-supernode update message size.
    update_message_bytes: int = UPDATE_MESSAGE_BYTES
    #: Strategy constants.
    adaptation: AdaptationParams = field(default_factory=AdaptationParams)
    scheduling: SchedulingParams = field(default_factory=SchedulingParams)
    assignment: AssignmentParams = field(default_factory=AssignmentParams)
    #: Deterministic fault plan. ``None`` disarms every piece of chaos
    #: machinery; an armed-but-empty plan is byte-identical to ``None``
    #: (trace digest, series, metrics) — the zero-overhead contract.
    faults: Optional[FaultPlan] = None
    #: Failover timing constants (consulted only when a plan is armed).
    failover: FailoverParams = field(default_factory=FailoverParams)


@dataclass
class PlayerOutcome:
    """Per-player results of a session simulation."""

    player_id: int
    game_id: int
    served_by: str  # "supernode" | "edge" | "cloud"
    continuity: float
    mean_latency_s: float
    satisfied: bool
    segments_received: int
    final_quality_level: int


@dataclass
class SessionResult:
    """Aggregate results of one ``simulate_sessions`` run."""

    variant: SystemVariant
    duration_s: float
    outcomes: list[PlayerOutcome]
    cloud_update_bytes: float
    cloud_stream_bytes: float
    supernode_bytes: float
    edge_bytes: float
    #: Failover/injection tallies when a fault plan was armed, else None.
    fault_stats: Optional[dict] = None
    #: Load-distribution indices over the supernode placement (Gini,
    #: Herfindahl, coefficient of variation for users- and
    #: utilisation-per-node, plus negotiation tallies for the
    #: distributed strategy) when the variant deploys fog, else None.
    load_indices: Optional[dict] = None

    @property
    def n_players(self) -> int:
        return len(self.outcomes)

    @property
    def mean_continuity(self) -> float:
        if not self.outcomes:
            return 1.0
        return float(np.mean([o.continuity for o in self.outcomes]))

    @property
    def mean_latency_s(self) -> float:
        vals = [o.mean_latency_s for o in self.outcomes
                if o.segments_received > 0]
        return float(np.mean(vals)) if vals else 0.0

    @property
    def satisfied_fraction(self) -> float:
        if not self.outcomes:
            return 1.0
        return float(np.mean([o.satisfied for o in self.outcomes]))

    @property
    def cloud_egress_bytes(self) -> float:
        """Cloud egress: update fan-out plus directly streamed video."""
        return self.cloud_update_bytes + self.cloud_stream_bytes

    @property
    def cloud_egress_bps(self) -> float:
        if self.duration_s <= 0:
            return 0.0
        return 8.0 * self.cloud_egress_bytes / self.duration_s

    def fraction_served_by(self, kind: str) -> float:
        if not self.outcomes:
            return 0.0
        return float(np.mean([o.served_by == kind for o in self.outcomes]))


@dataclass(frozen=True)
class Placement:
    """Where one player is served, and how long its actions take to
    reach the game state there."""

    #: ``"supernode"``, ``"edge"`` or ``"cloud"`` (a datacenter).
    served_by: str
    #: Host that renders and streams the player's video.
    site_host: int
    #: l_r: from a player action to the serving site holding the
    #: resulting game state.
    l_r: float


def place_player(
    population: Population,
    cloud: CloudCoordinator,
    host: int,
    latency_req_s: float,
    sn_service: Optional[AssignmentStrategy] = None,
    edge_service: Optional[SupernodeAssignment] = None,
) -> Placement:
    """Choose a player's serving site and its l_r.

    With ``sn_service`` the player runs the §III-A-3 assignment: a
    supernode if one qualifies, whose state update the cloud pushes
    from the datacenter the protocol paired with the player, else that
    datacenter. With ``edge_service`` (EdgeCloud) it connects to the
    nearer of its edge server and that datacenter. With neither, the
    nearest datacenter serves. Datacenters and edge servers compute the
    game state themselves.
    """
    lat = population.latency
    if sn_service is not None:
        result = sn_service.assign(host, latency_req_s)
        site = result.datacenter_host_id
        if result.uses_supernode:
            supernode = result.supernode_host_id
            return Placement("supernode", supernode,
                             cloud.action_to_update_delay_s(
                                 lat.one_way_s(host, site),
                                 lat.one_way_s(site, supernode)))
    elif edge_service is not None:
        result = edge_service.assign(host, latency_req_s)
        site = result.datacenter_host_id
        if result.uses_supernode:
            edge = result.supernode_host_id
            if lat.one_way_s(host, edge) <= lat.one_way_s(host, site):
                return Placement("edge", edge, lat.one_way_s(host, edge)
                                 + cloud.compute_delay_s)
            edge_service.release(host)
    else:
        dc_lat = lat.one_way_matrix_s(
            np.array([host]), population.datacenter_ids)[0]
        site = int(population.datacenter_ids[int(np.argmin(dc_lat))])
    return Placement("cloud", site,
                     lat.one_way_s(host, site) + cloud.compute_delay_s)


def site_server(
    servers: dict[int, StreamingServer],
    env: Environment,
    population: Population,
    variant: SystemVariant,
    config: SessionConfig,
    obs: "obs_mod.Observability | None",
    host_id: int,
    served_by: str,
) -> StreamingServer:
    """The server at ``host_id``, built on first use and kept in
    ``servers``.

    ``served_by`` is the placement's kind: a supernode's uplink comes
    from its capacity slots, an edge server's from
    ``config.edge_capacity_slots``, a datacenter's is
    ``config.dc_egress_bps``.
    """
    server = servers.get(host_id)
    if server is not None:
        return server
    common = dict(
        render_delay_s=config.render_delay_s,
        use_deadline_scheduling=variant.uses_scheduling,
        scheduling_params=config.scheduling,
        obs=obs,
    )
    if served_by == "supernode":
        # Player hosts were appended after datacenters in build order.
        player = population.players[
            int(host_id) - population.datacenter_ids.size]
        server = SupernodeServer(
            env, host_id, capacity_slots=player.capacity_slots, **common)
    elif served_by == "edge":
        from repro.workload.capacities import SLOT_BANDWIDTH_BPS
        server = StreamingServer(
            env, host_id,
            uplink_rate_bps=config.edge_capacity_slots * SLOT_BANDWIDTH_BPS,
            **common)
    else:
        server = StreamingServer(
            env, host_id, uplink_rate_bps=config.dc_egress_bps, **common)
    servers[host_id] = server
    return server


class GamingSession:
    """One assembled simulation: servers, endpoints, segment loops."""

    def __init__(
        self,
        population: Population,
        variant: SystemVariant,
        online_player_ids: np.ndarray,
        config: SessionConfig | None = None,
        edge_server_host_ids: Optional[np.ndarray] = None,
        obs: "obs_mod.Observability | None" = None,
    ):
        self.population = population
        self.variant = variant
        self.config = config or SessionConfig()
        self.online_ids = np.asarray(online_player_ids, dtype=int)
        #: Telemetry context: the explicit argument wins, else whatever
        #: the experiment driver installed via ``repro.obs.use(...)``.
        self.obs = obs if obs is not None else obs_mod.current()
        self.env = Environment()
        self._sim_counters = None
        if self.obs is not None:
            # Registered first so they lead the metrics snapshot; filled
            # from the kernel's run-end counts in run().
            self._sim_counters = (
                self.obs.metrics.counter("sim.events_scheduled"),
                self.obs.metrics.counter("sim.events_processed"))
            # Reset per-run invariant state (checkers may span several
            # back-to-back sessions in one recorder) and fence the trace.
            self.obs.emit(self.env.now, "session", "session.start",
                          variant=variant.value,
                          n_players=int(self.online_ids.size))
        self.cloud = CloudCoordinator(
            self.env,
            population.datacenter_ids,
            compute_delay_s=self.config.compute_delay_s,
            update_message_bytes=self.config.update_message_bytes,
        )
        self._edge_host_ids = (
            np.asarray(edge_server_host_ids, dtype=int)
            if edge_server_host_ids is not None else np.empty(0, dtype=int))
        self._servers: dict[int, StreamingServer] = {}
        self._endpoints: dict[int, PlayerEndpoint] = {}
        self._games: dict[int, Game] = {}
        # Per-player session state, indirected so failover can redirect
        # a player to a new server mid-run (the tick loop re-reads these
        # every segment interval).
        self._encoders: dict[int, SegmentEncoder] = {}
        self._serving: dict[int, StreamingServer] = {}
        self._placements: dict[int, Placement] = {}
        self._player_hosts: dict[int, int] = {}
        self._sn_service: Optional[AssignmentStrategy] = None
        #: Chaos machinery — constructed only when ``config.faults`` is
        #: armed; unarmed sessions carry three ``None``s and pay nothing.
        self.chaos: Optional[SessionChaos] = None
        self.failover: Optional[FailoverController] = None
        self.injector: Optional[FaultInjector] = None
        # A fresh, deterministic generator per session: two variants run
        # over the same population MUST see the identical workload (game
        # choices, tick phases), or A/B comparisons are meaningless.
        self._rng = np.random.default_rng(
            population.rngs.master_seed * 0x9E3779B9 % (2**63))
        self._assign_games()
        self._build()

    # -- construction ----------------------------------------------------------
    def _assign_games(self) -> None:
        """Pick each online player's game with the social rule (§IV)."""
        rng = self._rng
        playing: dict[int, int] = {}
        for pid in self.online_ids:
            game = self.population.social.choose_game(
                int(pid), playing, rng, GAMES)
            self._games[int(pid)] = game
            playing[int(pid)] = game.game_id

    def _build(self) -> None:
        pop = self.population
        cfg = self.config
        lat = pop.latency

        sn_service: Optional[AssignmentStrategy] = None
        if self.variant.uses_fog:
            n_dc = pop.datacenter_ids.size
            sn_caps = np.array([
                pop.players[int(h) - n_dc].capacity_slots
                for h in pop.supernode_host_ids
            ], dtype=int)
            sn_service = make_assignment(
                lat, pop.supernode_host_ids, sn_caps,
                pop.datacenter_ids, cfg.assignment)
        self._sn_service = sn_service
        if cfg.faults is not None:
            self.failover = FailoverController(
                self.env, cfg.failover,
                is_up=self._server_is_up,
                reattach=self._reattach_player,
                migrate=self._migrate_player,
                obs=self.obs)
            self.chaos = SessionChaos(self, cfg.faults, self.failover)
            self.injector = FaultInjector(
                self.env, cfg.faults, self.chaos, obs=self.obs)
        edge_service: Optional[SupernodeAssignment] = None
        if self.variant.uses_edge_servers and self._edge_host_ids.size:
            from dataclasses import replace
            edge_caps = np.full(
                self._edge_host_ids.size, cfg.edge_capacity_slots, dtype=int)
            edge_service = SupernodeAssignment(
                lat, self._edge_host_ids, edge_caps, pop.datacenter_ids,
                replace(cfg.assignment, filter_by_lmax=False))

        for pid in self.online_ids:
            pid = int(pid)
            game = self._games[pid]
            host = pop.players[pid].host_id
            placement = place_player(pop, self.cloud, host,
                                     game.latency_req_s, sn_service,
                                     edge_service)
            site_host = placement.site_host
            server = site_server(self._servers, self.env, pop, self.variant,
                                 cfg, self.obs, site_host,
                                 placement.served_by)
            downstream_s = lat.one_way_s(site_host, host)
            path_rate = lat.path_throughput_bps(site_host, host)
            encoder = SegmentEncoder(
                pid, game.latency_req_s, game.loss_tolerance)
            endpoint = PlayerEndpoint(
                self.env, pid, game, server,
                feedback_delay_s=downstream_s,
                use_adaptation=self.variant.uses_adaptation,
                adaptation_params=cfg.adaptation,
                stats_after_s=cfg.warmup_s,
                obs=self.obs,
            )
            deliver = (endpoint.deliver if self.chaos is None
                       else self.chaos.make_deliver(pid, endpoint, site_host))
            server.attach_player(pid, encoder, deliver,
                                 downstream_s, path_rate)
            self._endpoints[pid] = endpoint
            self._placements[pid] = placement
            self._encoders[pid] = encoder
            self._serving[pid] = server
            self._player_hosts[pid] = host
            self.env.call_later(0.0, self._start_player, pid)

        if self.variant.uses_fog:
            self.env.call_later(0.0, self._cloud_update)
        if self.injector is not None:
            self.injector.arm()

    # -- failover callables -------------------------------------------------------
    def _server_is_up(self, host_id: int) -> bool:
        """Probe whether a host is currently able to serve."""
        server = self._servers.get(host_id)
        return server is not None and not server.crashed

    def _attach_to(self, player_id: int, server: StreamingServer,
                   site_host: int) -> None:
        """(Re)connect a player to ``server`` with a fresh delivery epoch.

        Bumping the epoch first makes every wrapper from the previous
        attachment a silent sink, so segments still in flight from the
        old server can never reach a migrated player.
        """
        lat = self.population.latency
        host = self._player_hosts[player_id]
        endpoint = self._endpoints[player_id]
        downstream_s = lat.one_way_s(site_host, host)
        path_rate = lat.path_throughput_bps(site_host, host)
        self.chaos.bump_epoch(player_id)
        deliver = self.chaos.make_deliver(player_id, endpoint, site_host)
        server.attach_player(player_id, self._encoders[player_id], deliver,
                             downstream_s, path_rate)
        endpoint.server = server
        endpoint.feedback_delay_s = downstream_s
        self._serving[player_id] = server

    def _reattach_player(self, player_id: int, host_id: int) -> bool:
        """Reconnect a player to its recovered server (same placement)."""
        server = self._servers.get(host_id)
        if server is None or server.crashed:
            return False
        self._attach_to(player_id, server, host_id)
        return True

    def _migrate_player(self, player_id: int) -> str:
        """Move a player to the next-best supernode, or direct cloud.

        Re-runs the §III-A-3 assignment protocol; crashed supernodes
        are excluded from the candidate table via ``mark_failed``, so
        the player lands on the best *live* option or falls back to its
        nearest datacenter.
        """
        host = self._player_hosts[player_id]
        if self._sn_service is not None:
            self._sn_service.release(host)
        placement = place_player(
            self.population, self.cloud, host,
            self._games[player_id].latency_req_s, self._sn_service)
        server = site_server(self._servers, self.env, self.population,
                             self.variant, self.config, self.obs,
                             placement.site_host, placement.served_by)
        self._attach_to(player_id, server, placement.site_host)
        self._placements[player_id] = placement
        return placement.served_by

    # -- segment loops ----------------------------------------------------------
    def _start_player(self, player_id: int) -> None:
        """Phase-shift the player's cadence so ticks interleave instead
        of bursting."""
        self.env.call_later(
            float(self._rng.uniform(0, self.config.segment_interval_s)),
            self._player_tick, player_id)

    def _player_tick(self, player_id: int) -> None:
        """Send one segment's action, then queue the next tick.

        The serving server and l_r are re-read from the per-player
        tables every tick, so a failover migration redirects the very
        next segment.
        """
        env = self.env
        now = env.now
        if now >= self.config.duration_s:
            return
        # The action's state reaches the server l_r from now.
        self._serving[player_id].render_and_send(
            player_id, now, now + self._placements[player_id].l_r)
        env.call_later(self.config.segment_interval_s, self._player_tick,
                       player_id)

    def _cloud_update(self) -> None:
        """Charge cloud egress for supernode update fan-out (Λ×m per
        tick), then queue the next tick."""
        cfg = self.config
        if self.env.now >= cfg.duration_s:
            return
        active = sum(
            1 for s in self._servers.values()
            if isinstance(s, SupernodeServer) and s.n_players > 0)
        if active:
            self.cloud.account_update(active)
        self.env.call_later(cfg.segment_interval_s, self._cloud_update)

    # -- run ------------------------------------------------------------------------
    def run(self) -> SessionResult:
        """Run to the configured horizon (plus drain time) and report."""
        cfg = self.config
        # Extra drain time so in-flight segments arrive and count.
        self.env.run(until=cfg.duration_s + 2.0)
        if self._sim_counters is not None:
            scheduled, processed = self._sim_counters
            scheduled.inc(self.env._seq)
            processed.inc(self.env._seq - self.env.pending)

        outcomes = []
        for pid, endpoint in self._endpoints.items():
            stats = endpoint.stats
            encoder = self._encoders.get(pid)
            outcomes.append(PlayerOutcome(
                player_id=pid,
                game_id=endpoint.game.game_id,
                served_by=self._placements[pid].served_by,
                continuity=stats.continuity,
                mean_latency_s=stats.mean_latency_s,
                satisfied=endpoint.is_satisfied(),
                segments_received=stats.segments_received,
                final_quality_level=encoder.level if encoder else 0,
            ))

        dc_stream = sum(
            s.bytes_sent for h, s in self._servers.items()
            if h in set(int(x) for x in self.population.datacenter_ids))
        sn_bytes = sum(
            s.bytes_sent for s in self._servers.values()
            if isinstance(s, SupernodeServer))
        edge_set = set(int(x) for x in self._edge_host_ids)
        edge_bytes = sum(
            s.bytes_sent for h, s in self._servers.items() if h in edge_set)
        self.cloud.account_stream(dc_stream)

        fault_stats: Optional[dict] = None
        if self.chaos is not None:
            fault_stats = {
                **self.failover.stats(),
                "injected": self.injector.injected,
                "cleared": self.injector.cleared,
                "skipped": self.injector.skipped,
                "stale_suppressed": self.chaos.stale_suppressed,
                "segments_lost_to_faults": self.chaos.segments_lost_to_faults,
            }

        load_indices: Optional[dict] = None
        if self._sn_service is not None:
            from repro.metrics.load_indices import LoadDistribution

            dist = LoadDistribution.from_strategy(self._sn_service)
            load_indices = dist.to_dict()
            load_indices["strategy"] = self.config.assignment.strategy
            negotiation = getattr(self._sn_service, "stats", None)
            if callable(negotiation):
                load_indices["negotiation"] = negotiation()
            if self.obs is not None:
                # Registry gauges only — never trace events, which would
                # break the greedy strategy's seed digest equivalence.
                dist.emit(self.obs.metrics, prefix="assignment")

        return SessionResult(
            variant=self.variant,
            duration_s=cfg.duration_s,
            outcomes=outcomes,
            cloud_update_bytes=self.cloud.update_bytes_sent,
            cloud_stream_bytes=dc_stream,
            supernode_bytes=sn_bytes,
            edge_bytes=edge_bytes,
            fault_stats=fault_stats,
            load_indices=load_indices,
        )


def simulate_sessions(
    population: Population,
    variant: SystemVariant,
    online_player_ids: np.ndarray,
    config: SessionConfig | None = None,
    edge_server_host_ids: Optional[np.ndarray] = None,
    obs: "obs_mod.Observability | None" = None,
) -> SessionResult:
    """Build and run one session simulation (Figures 7–9 driver)."""
    session = GamingSession(
        population, variant, online_player_ids, config, edge_server_host_ids,
        obs=obs)
    return session.run()
