"""Player endpoint: playback, QoE accounting, adaptation feedback.

A :class:`PlayerEndpoint` owns the receive side of one gaming session: the
playback buffer (continuity and satisfaction accounting), the
receiver-driven rate adaptation controller, and the feedback channel back
to the serving server's encoder.

For population-scale runs the per-object endpoint is replaced by
:class:`PlayerCohort` — a structure-of-arrays batch holding the *same*
per-player state (playback position, buffer level, quality tier) for
every player at once. In cohort mode the tick driver advances every
active player in one vectorised :meth:`PlayerCohort.advance` call per
tick, crashes, tier switches and failovers included. The per-player
reference mode instead wraps each player in a
:class:`MaterialisedPlayer` driven by its own simulation events, which
reads and writes the very same arrays through the scalar mirror
:meth:`PlayerCohort._advance_one` — which is what makes cohort and
per-player execution byte-identical (DESIGN.md §11).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.core.adaptation import (
    AdaptationParams,
    Adjustment,
    RateAdaptationController,
)
from repro.core.server import StreamingServer
from repro.network.latency import RegionalLatency
from repro.network.packet import VideoSegment
from repro.sim.engine import Environment
from repro.sim.rng import counter_u01, counter_u01_one
from repro.streaming.playback import PlaybackBuffer
from repro.streaming.video import SEGMENT_DURATION_S
from repro.workload.games import Game

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs import Observability


class PlayerEndpoint:
    """The receive side of one player's session.

    Parameters
    ----------
    env:
        Simulation environment.
    player_id:
        Player identity (also the encoder key at the server).
    game:
        The game being played (latency requirement, tolerances).
    server:
        The serving :class:`StreamingServer`.
    feedback_delay_s:
        One-way latency of the player-to-server feedback path.
    use_adaptation:
        Enable the §III-B receiver-driven rate adaptation.
    adaptation_params:
        Constants for the adaptation controller.
    """

    def __init__(
        self,
        env: Environment,
        player_id: int,
        game: Game,
        server: StreamingServer,
        feedback_delay_s: float,
        use_adaptation: bool = False,
        adaptation_params: AdaptationParams | None = None,
        stats_after_s: float = 0.0,
        obs: "Observability | None" = None,
    ):
        self.env = env
        self.player_id = player_id
        self.game = game
        self.server = server
        self.feedback_delay_s = feedback_delay_s
        #: Warmup horizon: segments for actions before this time drive
        #: adaptation but are excluded from the QoE counters, so the
        #: reported steady state is not polluted by the convergence
        #: transient (the paper's sessions run for hours).
        self.stats_after_s = stats_after_s
        self._emit = obs.emit if obs is not None and obs.listening else None
        self.component = f"player:{player_id}"
        self.playback = PlaybackBuffer(
            segment_duration_s=SEGMENT_DURATION_S,
            obs=obs, component=self.component)
        self.controller: Optional[RateAdaptationController] = None
        if use_adaptation:
            self.controller = RateAdaptationController(
                game.latency_tolerance, adaptation_params,
                obs=obs, component=self.component)
        #: Pending feedback in flight (debounces duplicate requests).
        self._feedback_pending = False

    # -- delivery path ---------------------------------------------------------
    def deliver(self, segment: VideoSegment, now_s: float) -> None:
        """Receive one segment from the server (the server's callback)."""
        in_window = segment.action_time_s >= self.stats_after_s
        if segment.remaining_packets == 0:
            if in_window:
                self.playback.on_segment_lost(segment, now_s)
            return
        if in_window:
            self.playback.on_segment_arrival(segment, now_s)
        if self.controller is not None:
            r = self.playback.buffered_segments(now_s)
            missed = now_s > segment.deadline_s + 1e-12
            decision = self.controller.observe(
                r, deadline_missed=missed, now_s=now_s)
            if decision is not Adjustment.NONE:
                self._send_feedback(decision)

    def _send_feedback(self, decision: Adjustment) -> None:
        """Ship an encoder adjustment request upstream (one-way delay)."""
        if self._feedback_pending:
            return
        self._feedback_pending = True
        self.env.call_later(self.feedback_delay_s, self._apply_feedback,
                            decision)

    def _apply_feedback(self, decision: Adjustment) -> None:
        """The request reached the server: adjust the encoder."""
        self._feedback_pending = False
        encoder = self.server.encoders.get(self.player_id)
        if encoder is None:
            return
        if decision is Adjustment.UP:
            encoder.adjust_up()
        else:
            encoder.adjust_down()
        if self._emit is not None:
            self._emit(
                self.env.now, self.component, "encoder.level",
                level=encoder.level, direction=(
                    "up" if decision is Adjustment.UP else "down"))
        if self.controller is not None:
            self.controller.reset()

    # -- reporting ---------------------------------------------------------------
    @property
    def stats(self):
        """The playback QoE counters."""
        return self.playback.stats

    def is_satisfied(self) -> bool:
        """Paper §IV: within loss tolerance and ≥95 % of received
        packets inside the latency requirement."""
        return self.playback.stats.is_satisfied(
            loss_tolerance=self.game.loss_tolerance)


# ---------------------------------------------------------------------------
# Cohort execution (population scale)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CohortParams:
    """Constants of the cohort tick dynamics (DESIGN.md §11).

    Every per-tick computation built on these sticks to IEEE-exact
    elementwise operations (``+ - * / min max`` and comparisons): no
    transcendentals, no reductions inside the advance kernel, so a
    vectorised batch advance and a one-player advance produce
    bit-identical state.
    """

    #: Simulation tick — one representative frame group per tick.
    tick_s: float = 0.5
    #: Delivered video per on-time tick, as a multiple of ``tick_s``
    #: (>1 so buffers can recover after a loss).
    fill_rate: float = 1.25
    #: Initial playback buffer level.
    init_buffer_s: float = 2.0
    #: Playback buffer cap.
    max_buffer_s: float = 8.0
    #: Buffer level above which an on-time player upgrades its tier.
    up_buffer_s: float = 6.0
    #: Quality tiers ``0 .. n_tiers-1``; everyone starts at the top.
    n_tiers: int = 5
    #: Minimum ticks between two tier switches of one player.
    switch_cooldown_ticks: int = 16
    #: Frame deadline at the top tier.
    frame_deadline_s: float = 0.1
    #: Deadline slack added per tier below the top (lower bitrate is
    #: easier to deliver — the §III-B adaptation escape valve). At the
    #: bottom tier the deadline exceeds the worst access latency the
    #: scale sampler produces, so every player can stabilise.
    tier_deadline_step_s: float = 0.05
    #: Extra headroom an upgrade must clear below the next tier's
    #: deadline. At the full jitter amplitude (2 × jitter scale) a
    #: player whose base latency rides a deadline boundary can never
    #: up-switch into a tier it will occasionally miss, so nobody
    #: oscillates between tiers on jitter noise.
    up_margin_s: float = 0.004
    #: Per-player crash probability per tick.
    crash_rate_per_tick: float = 2e-5
    #: Scale of the per-(player, tick) uniform jitter; the draw is
    #: ``2·scale·u`` so its mean matches an exponential of this scale.
    jitter_scale_s: float = 0.002
    #: Added latency per unit of overload at the serving region.
    congestion_gain_s: float = 0.02
    #: Serving capacity per region, relative to its home population.
    capacity_factor: float = 1.25
    #: Latency histogram bin width and bin count (the last bin absorbs
    #: the tail). 512 × 1 ms covers every sane frame latency.
    latency_bin_s: float = 0.001
    n_latency_bins: int = 512
    #: Loss tolerance for the §IV satisfaction criterion.
    loss_tolerance: float = 0.2

    def __post_init__(self) -> None:
        if self.tick_s <= 0 or self.fill_rate <= 0:
            raise ValueError("tick_s and fill_rate must be positive")
        if self.n_tiers < 1 or self.n_latency_bins < 2:
            raise ValueError("need at least 1 tier and 2 latency bins")
        if not 0.0 <= self.crash_rate_per_tick <= 1.0:
            raise ValueError("crash_rate_per_tick must be a probability")


class PlayerCohort:
    """All players' state as a structure of arrays, advanced in ticks.

    The arrays are the single source of truth for every player.
    :meth:`advance` is the state-transition kernel the cohort driver
    calls once per tick with every active index; :meth:`_advance_one`
    is its scalar mirror, which a per-player reference run's
    :class:`MaterialisedPlayer` calls for its own index. Because both
    run the same IEEE-exact elementwise operations over the same
    arrays, who drives a player never changes its trajectory — the
    equivalence the digest tests pin down.

    Cross-player aggregates (`tick_load`, the latency histogram) are
    int64 accumulators fed by ``bincount``, so contributions commute
    exactly regardless of event order within a tick.
    """

    def __init__(
        self,
        region_of_player: np.ndarray,
        access_s: np.ndarray,
        latency: RegionalLatency,
        params: CohortParams,
        seed: int,
    ):
        region = np.asarray(region_of_player)
        n = region.shape[0]
        if np.asarray(access_s).shape[0] != n:
            raise ValueError("access_s must align with region_of_player")
        self.params = params
        self.latency = latency
        n_regions = latency.n_regions
        self.n_regions = n_regions
        self.n_players = n
        self._salt_jitter = 2 * seed + 1
        self._salt_crash = 2 * seed + 2
        # Derived constants, precomputed once so advance stays lean.
        self._fill_s = params.fill_rate * params.tick_s
        self._inv_bin = 1.0 / params.latency_bin_s
        self._top_tier = params.n_tiers - 1
        # Per-tier deadline and upgrade limit, each entry the same IEEE
        # expression :meth:`_advance_one` evaluates inline for its tier.
        tiers = np.arange(params.n_tiers, dtype=np.int64)
        self._deadline_s = (params.frame_deadline_s
                            + params.tier_deadline_step_s
                            * (self._top_tier - tiers).astype(np.float64))
        self._up_limit_s = (self._deadline_s - params.tier_deadline_step_s
                            - params.up_margin_s)

        # -- per-player state (player id is the array index) ----------------
        self.player_id = np.arange(n, dtype=np.int64)
        self.region = region.astype(np.int64)
        self.access_s = np.asarray(access_s, dtype=np.float64).copy()
        self.served_by = self.region.copy()
        self.buffer_s = np.full(n, params.init_buffer_s, dtype=np.float64)
        self.position_s = np.zeros(n, dtype=np.float64)
        self.tier = np.full(n, self._top_tier, dtype=np.int64)
        self.last_switch = np.full(
            n, -params.switch_cooldown_ticks, dtype=np.int64)
        #: Players with a live per-player event chain (per-player mode
        #: only; all-false in cohort mode).
        self.materialised = np.zeros(n, dtype=bool)
        #: Population-dynamics membership: inactive players are parked in
        #: the join pool and excluded from the batch. All-true outside
        #: ``repro.dynamics`` (the base kernel never edits it).
        self.active = np.ones(n, dtype=bool)
        self.rebuffer_ticks = np.zeros(n, dtype=np.int64)
        self.crashes = np.zeros(n, dtype=np.int64)
        self.switches = np.zeros(n, dtype=np.int64)
        self.reconnects = np.zeros(n, dtype=np.int64)
        self.migrations = np.zeros(n, dtype=np.int64)
        self.on_time_frames = np.zeros(n, dtype=np.int64)
        self.frames = np.zeros(n, dtype=np.int64)

        # -- tick-level shared inputs (written by the driver, before any
        # advance at that tick, identically in both modes) -------------------
        self.region_offline = np.zeros(n_regions, dtype=bool)
        self.failover_to = np.arange(n_regions, dtype=np.int64)
        self.congestion_s = np.zeros(n_regions, dtype=np.float64)

        # -- integer aggregates (order-free accumulators) --------------------
        self.tick_load = np.zeros(n_regions, dtype=np.int64)
        self.lat_hist = np.zeros(
            n_regions * params.n_latency_bins, dtype=np.int64)

        # -- per-tick scratch: advance writes every intermediate into
        # these arrays, so a tick allocates nothing the size of the
        # batch. Two float and four int arrays hold the batch's copies of
        # state arrays, touched only when some player is pooled.
        self._scratch = (
            [np.empty(n, dtype=np.float64) for _ in range(4)]
            + [np.empty(n, dtype=np.int64) for _ in range(6)]
            + [np.empty(n, dtype=bool) for _ in range(6)])

    # -- the one state-transition kernel ------------------------------------
    def advance(self, idx: np.ndarray, tick: int) -> None:
        """Advance the players in ``idx`` (distinct indices) through
        tick ``tick``.

        Restricted to IEEE-exact elementwise operations — see
        :class:`CohortParams` — so the result for each index is
        bit-identical to what :meth:`_advance_one` writes for it. Every
        intermediate lands in the cohort's scratch rows through a
        ufunc ``out=``, so a tick allocates nothing proportional to the
        population; two rewrites keep each element's operations exact:
        ``a + b == b + a``, and ``where(ok, c, 0.0) == ok * c`` for a
        finite ``c >= 0``.
        """
        p = self.params
        k = idx.size
        # Every player active (every static run, every dynamics tick
        # with nobody pooled): ``load`` hands out the state array itself,
        # which the steps below then update in place, and ``store`` has
        # nothing to do. Otherwise ``load`` copies the batch's entries
        # into a scratch array and ``store`` writes them back.
        full = k == self.n_players
        (lat, tmp, buf_s, pos_s,
         work, flat, region_s, served_s, tier_s, last_s,
         flag, on_time, playing, can, down, up) = (
            self._scratch if full else [a[:k] for a in self._scratch])

        # ``idx`` holds valid indices: "clip" takes straight into
        # ``out``, where "raise" would copy through a temporary.
        def load(state, scratch):
            if full:
                return state
            return state.take(idx, out=scratch, mode="clip")

        def store(state, values):
            if not full:
                state[idx] = values

        region = load(self.region, region_s)
        served = load(self.served_by, served_s)
        pid = self.player_id if full else idx  # the player id is the index

        # 1) This tick's frame latency: access + propagation + congestion
        #    + uniform jitter from the counter generator, summed in that
        #    order (IEEE addition commutes, so propagation + access is
        #    access + propagation).
        self.latency.gather_s(served, region, out=lat)
        lat += load(self.access_s, tmp)
        lat += self.congestion_s.take(served, out=tmp, mode="clip")
        jitter = counter_u01(pid, tick, self._salt_jitter, out=tmp)
        jitter *= 2.0 * p.jitter_scale_s
        lat += jitter

        # 2) Crash draw (independent counter stream), kept as the
        #    positions that crashed. A draw in [0, 1) is never below a
        #    zero rate, so a crash-free run skips the stream.
        if p.crash_rate_per_tick > 0.0:
            hit = np.flatnonzero(np.less(
                counter_u01(pid, tick, self._salt_crash, out=tmp),
                p.crash_rate_per_tick, out=flag))
        else:
            hit = np.empty(0, dtype=np.int64)

        # 3) Delivery against the tier-dependent deadline.
        tier = load(self.tier, tier_s)
        np.less_equal(lat, self._deadline_s.take(tier, out=tmp, mode="clip"),
                      out=on_time)
        ok = on_time
        if hit.size:
            ok = flag
            np.copyto(ok, on_time)
            ok[hit] = False

        # 4) Playback buffer: fill on delivery, drain by playing.
        buf = load(self.buffer_s, buf_s)
        buf += np.multiply(ok, self._fill_s, out=tmp)
        np.greater_equal(buf, p.tick_s, out=playing)
        consumed = np.multiply(playing, p.tick_s, out=tmp)
        position = load(self.position_s, pos_s)
        position += consumed
        store(self.position_s, position)
        buf -= consumed
        np.minimum(buf, p.max_buffer_s, out=buf)

        # 5) Adaptation: down on a missed deadline, up on a full buffer —
        #    both rate-limited by the cooldown. An upgrade additionally
        #    requires this tick's latency to fit the *next* tier's
        #    tighter deadline, otherwise a player whose latency sits
        #    between two tier deadlines would oscillate up and down
        #    forever.
        last = load(self.last_switch, last_s)
        np.greater_equal(np.subtract(tick, last, out=work),
                         p.switch_cooldown_ticks, out=can)
        np.greater(tier, 0, out=down)
        down &= can
        down &= np.logical_not(on_time, out=flag)
        np.less_equal(lat, self._up_limit_s.take(tier, out=tmp, mode="clip"),
                      out=up)
        up &= can
        up &= np.greater(buf, p.up_buffer_s, out=flag)
        up &= np.less(tier, self._top_tier, out=flag)
        # new tier = tier + up - down, which differs from tier exactly
        # when one of the two holds.
        switched = np.not_equal(up, down, out=can)
        tier += up
        tier -= down

        # 6) Write back the crash-free outcome.
        store(self.buffer_s, buf)
        store(self.tier, tier)
        np.copyto(last, tick, where=switched)
        store(self.last_switch, last)
        for state, inc in ((self.rebuffer_ticks,
                            np.logical_not(playing, out=flag)),
                           (self.switches, switched),
                           (self.on_time_frames, on_time),
                           (self.frames, 1)):
            count = load(state, work)
            count += inc
            store(state, count)

        # 7) Order-free integer aggregates: integer addition commutes
        #    exactly, so these counters match the scalar mirror's
        #    one-at-a-time increments in any order. They read ``served``
        #    (``served_by`` itself on the full path) before any
        #    reconnect below overwrites it.
        # bins: the truncating float -> int64 cast ``astype`` makes.
        np.copyto(work, np.multiply(lat, self._inv_bin, out=tmp),
                  casting="unsafe")
        np.minimum(work, p.n_latency_bins - 1, out=work)
        np.multiply(region, p.n_latency_bins, out=flat)
        flat += work
        self.tick_load += np.bincount(served, minlength=self.n_regions)
        self.lat_hist += np.bincount(flat, minlength=self.lat_hist.shape[0])

        # 8) Crash effects, at the crashed players only: buffer wiped,
        #    restart at the bottom tier, reconnect home (or to the
        #    failover target if home is down). A reconnect is counted
        #    against the old server, before ``served_by`` is written.
        if hit.size:
            at = pid[hit]
            home = region[hit]
            reconnect_to = np.where(self.region_offline[home],
                                    self.failover_to[home], home)
            self.reconnects[at] += reconnect_to != served[hit]
            self.buffer_s[at] = 0.0
            self.tier[at] = 0
            self.last_switch[at] = tick
            self.served_by[at] = reconnect_to
            self.crashes[at] += 1

    def _advance_one(self, i: int, tick: int) -> None:
        """Scalar mirror of :meth:`advance` for one player.

        Every arithmetic step repeats the vector path's operation in the
        vector path's order on Python doubles (IEEE binary64, like
        numpy's float64), so the state written here is bit-identical to
        what the batch would have written for index ``i``. Any edit to
        :meth:`advance` must be mirrored here — the cohort-equivalence
        digest suite fails loudly if the two drift.
        """
        p = self.params
        region = int(self.region[i])
        served = int(self.served_by[i])

        # 1) Frame latency.
        u_jit = counter_u01_one(i, tick, self._salt_jitter)
        lat = (float(self.access_s[i])
               + float(self.latency.propagation_row_s(served)[region])
               + float(self.congestion_s[served])
               + (2.0 * p.jitter_scale_s) * u_jit)

        # 2) Crash draw.
        crashed = counter_u01_one(i, tick, self._salt_crash) \
            < p.crash_rate_per_tick

        # 3) Delivery.
        tier = int(self.tier[i])
        deadline = (p.frame_deadline_s
                    + p.tier_deadline_step_s * float(self._top_tier - tier))
        on_time = lat <= deadline
        ok = on_time and not crashed

        # 4) Buffer.
        buf = float(self.buffer_s[i]) + (self._fill_s if ok else 0.0)
        playing = buf >= p.tick_s
        consumed = p.tick_s if playing else 0.0
        self.position_s[i] = float(self.position_s[i]) + consumed
        buf = min(buf - consumed, p.max_buffer_s)

        # 5) Adaptation.
        can = tick - int(self.last_switch[i]) >= p.switch_cooldown_ticks
        down = can and not on_time and tier > 0
        up = (can
              and lat <= deadline - p.tier_deadline_step_s - p.up_margin_s
              and buf > p.up_buffer_s and tier < self._top_tier)
        new_tier = tier + (1 if up else 0) - (1 if down else 0)
        switched = new_tier != tier

        # 6) Crash effects.
        if crashed:
            reconnect_to = (int(self.failover_to[region])
                            if self.region_offline[region] else region)
            buf = 0.0
            new_tier = 0

        # 7) Write back.
        self.buffer_s[i] = buf
        self.tier[i] = new_tier
        if switched or crashed:
            self.last_switch[i] = tick
        if not playing:
            self.rebuffer_ticks[i] += 1
        if crashed:
            self.served_by[i] = reconnect_to
            self.crashes[i] += 1
            if reconnect_to != served:
                self.reconnects[i] += 1
        if switched:
            self.switches[i] += 1
        if on_time:
            self.on_time_frames[i] += 1
        self.frames[i] += 1

        # 8) Aggregates.
        self.tick_load[served] += 1
        b = int(lat * self._inv_bin)
        if b > p.n_latency_bins - 1:
            b = p.n_latency_bins - 1
        self.lat_hist[region * p.n_latency_bins + b] += 1

    # -- per-player reference mode --------------------------------------------
    def materialise(self, player_id: int) -> "MaterialisedPlayer":
        """Give one player its own event-driven view (per-player mode)."""
        if self.materialised[player_id]:
            raise ValueError(f"player {player_id} is already materialised")
        self.materialised[player_id] = True
        return MaterialisedPlayer(self, player_id)

    def release(self, player_id: int) -> None:
        """End a player's view when its event chain stops."""
        self.materialised[player_id] = False

    def batch_indices(self) -> np.ndarray:
        """Indices the cohort driver advances: every active player."""
        return np.flatnonzero(self.active)


class MaterialisedPlayer:
    """An individually-driven view of one cohort player.

    The per-player reference mode drives one of these per player. It
    holds no state of its own beyond the index: every read and write
    goes through the cohort arrays, and :meth:`advance` runs the scalar
    mirror of the batch kernel.
    """

    __slots__ = ("cohort", "player_id")

    def __init__(self, cohort: PlayerCohort, player_id: int):
        self.cohort = cohort
        self.player_id = int(player_id)

    def advance(self, tick: int) -> None:
        """Advance this player one tick."""
        self.cohort._advance_one(self.player_id, tick)

    @property
    def buffer_s(self) -> float:
        return float(self.cohort.buffer_s[self.player_id])

    @property
    def tier(self) -> int:
        return int(self.cohort.tier[self.player_id])

    @property
    def served_by(self) -> int:
        return int(self.cohort.served_by[self.player_id])

    def __repr__(self) -> str:
        return (f"<MaterialisedPlayer id={self.player_id} "
                f"tier={self.tier} buffer={self.buffer_s:.2f}s>")
