"""Population dynamics on the cohort tick kernel (DESIGN.md §14).

:class:`DynamicsKernel` extends :class:`~repro.core.cohort.CohortKernel`
with membership: a compiled :class:`~repro.dynamics.plan.DynamicsPlan`
turns into per-tick joins (pool pops), leaves (counter-hash draws
against the compiled hazard), inter-region mobility (live migrations
that land once the tick's advances are done) and an overload-graceful
degradation ladder sharing :class:`~repro.core.overload.OverloadParams`
with the supernode session layer.

All of it runs in the base driver's hooks, as array edits that add no
events: membership, overload and the choice of movers in the per-tick
hook (:meth:`DynamicsKernel._tick_inputs`), before any advance of that
tick; the moves themselves in :meth:`DynamicsKernel._finish_tick`,
after every advance of that tick and before the next tick's digest
fold and fault transitions. In cohort mode the one batch advance picks
up whoever is active. Per-player mode is the reference that cohort
mode must match.

Determinism contract (same as the base kernel, extended):

* every membership edit happens in the **driver** event, before any
  advance of that tick, identically in both execution modes;
* who leaves, who is shed and who moves are **counter-hash** draws —
  pure functions of ``(player_id, tick, salt)`` — never functions of
  the execution mode;
* join counts and mobility batch sizes are **compile-time Poisson
  realisations** from the plan's own seeded stream;
* the per-player side effects of a migration are disjoint per player
  and land after every advance of that tick, in both modes.

Hence cohort ≡ per-player under any plan, and the empty plan (with
``initial_fraction=1.0``) is byte-identical to the static baseline:
no pools are touched, no draws are made.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass, field

import numpy as np

from repro.core.cohort import (
    CohortKernel,
    ScaleReport,
    ScaleSpec,
    run_scale,
)
from repro.core.overload import OVERLOAD_BUCKETS, OverloadParams
from repro.dynamics.plan import CompiledDynamics, DynamicsPlan, compile_plan
from repro.faults.failover import RECOVERY_BUCKETS
from repro.network.latency import LatencyParams
from repro.sim.rng import counter_u01

#: Pluggable overload strategies: graceful degradation vs legacy
#: fall-over (admit everything, shed nothing — congestion does the
#: punishing).
DYNAMICS_STRATEGIES = ("graceful", "none")

#: How long a live migration takes, in ticks: the failover path's
#: detection timeout (0.22 tick) plus its switch delay (0.14 tick).
MIGRATION_TICKS = 0.36


@dataclass(frozen=True)
class DynamicsSpec:
    """Configuration of one population-dynamics run."""

    base: ScaleSpec = field(default_factory=ScaleSpec)
    plan: DynamicsPlan = field(default_factory=DynamicsPlan)
    #: Fraction of the population online at tick 0 (counter-hash
    #: selected). 1.0 starts everyone, exactly like the static kernel.
    initial_fraction: float = 1.0
    strategy: str = "graceful"
    overload: OverloadParams = field(default_factory=OverloadParams)

    def __post_init__(self) -> None:
        if not 0.0 < self.initial_fraction <= 1.0:
            raise ValueError("initial fraction must lie in (0, 1]")
        if self.strategy not in DYNAMICS_STRATEGIES:
            raise ValueError(
                f"unknown strategy {self.strategy!r}; "
                f"expected one of {DYNAMICS_STRATEGIES}")


@dataclass
class DynamicsReport:
    """A :class:`ScaleReport` plus the membership/overload story."""

    scale: ScaleReport
    plan_sources: int
    strategy: str
    initial_active: int
    final_active: int
    joins: int
    leaves: int
    refused: int
    shed: int
    evicted: int
    pool_exhausted: int
    moves: int
    migration_mean_s: float | None
    migration_max_s: float | None
    overload_episodes: int
    overload_mean_recovery_s: float | None
    satisfied_active_fraction: float
    invariants: list[str]

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["scale"] = self.scale.to_dict()
        return d

    def format_text(self) -> str:
        lines = [self.scale.format_text()]
        lines.append(
            f"  dynamics  [{self.plan_sources} sources · "
            f"strategy={self.strategy}]  "
            f"{self.initial_active:,} -> {self.final_active:,} active")
        lines.append(
            f"  membership: {self.joins:,} joins · {self.leaves:,} leaves "
            f"· {self.refused:,} refused · {self.shed:,} shed · "
            f"{self.evicted:,} evicted · {self.pool_exhausted:,} "
            f"unfilled (pools dry)")
        mig = ("-" if self.migration_mean_s is None
               else f"mean {1e3 * self.migration_mean_s:.1f} ms / "
                    f"max {1e3 * self.migration_max_s:.1f} ms")
        lines.append(f"  mobility:   {self.moves:,} migrations ({mig})")
        rec = ("-" if self.overload_mean_recovery_s is None
               else f"mean recovery {self.overload_mean_recovery_s:.2f} s")
        lines.append(
            f"  overload:   {self.overload_episodes} episodes ({rec}) · "
            f"satisfied (participants) "
            f"{100.0 * self.satisfied_active_fraction:.1f}%")
        lines.append("  invariants:  "
                     + ("passed" if not self.invariants
                        else "; ".join(self.invariants)))
        return "\n".join(lines)


def home_join_pops(sizes: list[int], want: int,
                   blocked: list[bool] | None
                   ) -> tuple[list[int], int, int]:
    """Replay ``want`` home joins over pools of ``sizes`` players.

    Each join pops the deepest pool, the lowest region on a tie. A join
    whose pool is ``blocked`` (over the admit watermark) is refused;
    the sizes did not change, so every later join is refused too. Once
    every pool is empty the rest run dry. The pops go level by level
    (a water-fill): the pools at the top depth are popped once each in
    ascending region order, round after round, until they reach the
    next depth down and its pools join the round.

    Returns the per-region pop counts, the refused count and the dry
    count.
    """
    sizes = list(sizes)
    pops = [0] * len(sizes)
    left = want
    while left:
        top = max(sizes)
        if top == 0:
            return pops, 0, left
        level = [r for r, s in enumerate(sizes) if s == top]
        if blocked is not None:
            stop = next((j for j, r in enumerate(level) if blocked[r]),
                        None)
            if stop is not None:
                # The first round reaches the blocked pool.
                for r in level[:min(stop, left)]:
                    pops[r] += 1
                return pops, max(left - stop, 0), 0
        rounds = top - max((s for s in sizes if s < top), default=0)
        if left < rounds * len(level):
            # The joins run out within this level.
            full, extra = divmod(left, len(level))
            for j, r in enumerate(level):
                pops[r] += full + (j < extra)
            return pops, 0, 0
        for r in level:
            pops[r] += rounds
            sizes[r] -= rounds
        left -= rounds * len(level)
    return pops, 0, 0


class DynamicsKernel(CohortKernel):
    """Cohort kernel with seed-deterministic population dynamics."""

    def __init__(self, dspec: DynamicsSpec,
                 latency_params: LatencyParams | None = None,
                 obs=None):
        super().__init__(dspec.base, latency_params)
        self.dspec = dspec
        self._obs = obs
        base = dspec.base
        self.compiled: CompiledDynamics = compile_plan(
            dspec.plan, base.n_ticks, self.params.tick_s, base.n_regions)
        # Salt numbering continues the base kernel's 2s+1..2s+3.
        seed = base.seed
        self._salt_member = 2 * seed + 4
        self._salt_leave = 2 * seed + 5
        self._salt_shed = 2 * seed + 6
        self._salt_evict = 2 * seed + 7
        self._salt_move = 2 * seed + 8

        c = self.cohort
        # counter_u01 lands in [0, 1), so fraction 1.0 keeps everyone —
        # exactly, not probabilistically.
        c.active[:] = counter_u01(
            c.player_id, 0, self._salt_member) < dspec.initial_fraction
        self.initial_active = int(np.count_nonzero(c.active))
        #: Per-region FIFO pools of offline players (ascending ids).
        self._pools: list[list[int]] = [
            np.flatnonzero(~c.active & (c.region == r)).tolist()
            for r in range(base.n_regions)]

        # Tallies (python ints/lists: never hashed, mode-independent).
        self.joins = 0
        self.leaves = 0
        self.refused = 0
        self.shed = 0
        self.evicted = 0
        self.pool_exhausted = 0
        self.moves_done = 0
        self.shed_events: list[tuple[int, int]] = []
        self.overload_episode_s: list[float] = []
        self._over_prev = np.zeros(base.n_regions, dtype=bool)
        self._episode_start = np.zeros(base.n_regions, dtype=np.int64)
        self._inst: dict | None = None
        #: Moves chosen this tick, ``(players, target region)`` per
        #: mobility batch, landed by :meth:`_finish_tick`.
        self._pending_moves: list[tuple[np.ndarray, int]] = []
        self.migration_times_s: list[float] = []
        self._migration_hist = None

    # -- lazy overload instruments ------------------------------------------
    def _instruments(self) -> dict | None:
        if self._obs is None:
            return None
        if self._inst is None:
            m = self._obs.metrics
            self._inst = {
                "refused": m.counter("overload.refused"),
                "shed": m.counter("overload.shed"),
                "evicted": m.counter("overload.evicted"),
                "recovery_time": m.histogram(
                    "overload.recovery_time_s", bounds=OVERLOAD_BUCKETS),
            }
        return self._inst

    def _count(self, key: str, n: int = 1) -> None:
        if n <= 0:
            return
        inst = self._instruments()
        if inst is not None:
            inst[key].inc(n)

    # -- driver --------------------------------------------------------------
    def _tick_inputs(self, tick: int) -> None:
        # Previous tick's utilisation, captured before the congestion
        # update zeroes the load counters.
        util = self.cohort.tick_load / self._capacity
        self._update_congestion()
        self._apply_overload(tick, util)
        self._apply_membership(tick, util)
        self._apply_mobility(tick)

    def _player_fire(self, mp, tick: int) -> None:
        # A chain whose player has left ends silently: no advance, no
        # reschedule. Rejoining starts a new chain.
        if not self.cohort.active[mp.player_id]:
            self.cohort.release(mp.player_id)
            return
        super()._player_fire(mp, tick)

    # -- overload ladder -----------------------------------------------------
    def _apply_overload(self, tick: int, util: np.ndarray) -> None:
        ov = self.dspec.overload
        # Episode tracking is observability, not strategy: both
        # strategies report how long regions stayed over the watermark.
        over = util > ov.admit_watermark
        started = over & ~self._over_prev
        ended = ~over & self._over_prev
        self._episode_start[started] = tick
        for r in np.flatnonzero(ended):
            dur = float(tick - self._episode_start[r]) * self.params.tick_s
            self.overload_episode_s.append(dur)
            inst = self._instruments()
            if inst is not None:
                inst["recovery_time"].observe(dur)
        self._over_prev = over
        if self.dspec.strategy != "graceful":
            return
        c = self.cohort
        shed_regions = np.flatnonzero(util > ov.shed_watermark)
        if shed_regions.size:
            u = counter_u01(c.player_id, tick, self._salt_shed)
            for r in shed_regions:
                m = (c.active & (c.served_by == r) & (c.tier > 0)
                     & (u < ov.shed_fraction))
                ids = np.flatnonzero(m)
                if ids.size:
                    c.tier[ids] -= 1
                    c.last_switch[ids] = tick
                    c.switches[ids] += 1
                    self.shed += int(ids.size)
                    self._count("shed", int(ids.size))
                    self.shed_events.extend(
                        (tick, int(p)) for p in ids)
        evict_regions = np.flatnonzero(util > ov.evict_watermark)
        if evict_regions.size:
            u = counter_u01(c.player_id, tick, self._salt_evict)
            for r in evict_regions:
                m = (c.active & (c.served_by == r) & (c.tier == 0)
                     & (u < ov.shed_fraction))
                ids = np.flatnonzero(m)
                self._deactivate(ids)
                self.evicted += int(ids.size)
                self._count("evicted", int(ids.size))

    # -- membership ----------------------------------------------------------
    def _deactivate(self, ids: np.ndarray) -> None:
        """Park ``ids`` (ascending) in their home regions' pools: each
        pool gets its players in one ascending ``extend``, the FIFO
        order parking them one by one would give."""
        c = self.cohort
        c.active[ids] = False
        home = c.region[ids]
        parked = ids[np.argsort(home, kind="stable")].tolist()
        counts = np.bincount(home, minlength=len(self._pools)).tolist()
        start = 0
        for pool, n in zip(self._pools, counts):
            pool.extend(parked[start:start + n])
            start += n

    def _pop(self, region: int, n: int) -> list[int]:
        """Pop up to ``n`` players off the front of ``region``'s pool."""
        pool = self._pools[region]
        got = pool[:n]
        del pool[:n]
        return got

    def _admit(self, ids: np.ndarray, tick: int) -> None:
        """Bring popped players online at their (possibly re-homed)
        region's serving site, buffer and tier reset."""
        c = self.cohort
        p = self.params
        c.active[ids] = True
        c.served_by[ids] = c.failover_to[c.region[ids]]
        c.buffer_s[ids] = p.init_buffer_s
        c.tier[ids] = p.n_tiers - 1
        c.last_switch[ids] = tick
        self.joins += int(ids.size)
        # A player evicted earlier in this hook still has its tick-t
        # chain event pending; that event advances the re-admitted
        # player, as the batch does, so no second chain starts.
        if not self._cohort_mode:
            for pid in ids[~c.materialised[ids]].tolist():
                mp = c.materialise(pid)
                self.materialisations += 1
                self._schedule_player(mp, tick, 0.0)

    def _apply_membership(self, tick: int, util: np.ndarray) -> None:
        comp = self.compiled
        if comp.is_empty:
            return
        c = self.cohort
        pools = self._pools
        blocked = ((util > self.dspec.overload.admit_watermark).tolist()
                   if self.dspec.strategy == "graceful" else None)
        # Joins first (pools as of the previous tick), so a same-tick
        # leave can never be popped straight back in.
        popped: list[int] = []
        for r in np.flatnonzero(comp.region_joins[tick]).tolist():
            want = int(comp.region_joins[tick, r])
            if blocked is not None and blocked[r]:
                # Refused to direct-cloud fallback: these sessions are
                # served outside the fog and never enter the cohort.
                self.refused += want
                self._count("refused", want)
                continue
            # The target pool first, then the others in ascending
            # order; a player from another region's pool is re-homed.
            for q in (r, *range(len(pools))):
                if not want:
                    break
                got = self._pop(q, want)
                if got:
                    if q != r:
                        c.region[got] = r
                    popped += got
                    want -= len(got)
            self.pool_exhausted += want
        pops, refused, dry = home_join_pops(
            [len(p) for p in pools], int(comp.home_joins[tick]), blocked)
        for r, n in enumerate(pops):
            if n:
                popped += self._pop(r, n)
        self.refused += refused
        self._count("refused", refused)
        self.pool_exhausted += dry
        if popped:
            self._admit(np.array(popped, dtype=np.int64), tick)
        # Then leaves: counter-hash draw against the compiled hazard,
        # over the active players only (values are keyed by id).
        lp = comp.leave_prob[tick]
        if lp.any():
            act = np.flatnonzero(c.active)
            u = counter_u01(act, tick, self._salt_leave)
            ids = act[u < lp[c.region[act]]]
            self._deactivate(ids)
            self.leaves += int(ids.size)

    # -- mobility ------------------------------------------------------------
    def _apply_mobility(self, tick: int) -> None:
        batch = self.compiled.moves.get(tick)
        if not batch:
            return
        c = self.cohort
        for from_r, to_r, count in batch:
            cand = np.flatnonzero(c.active & (c.region == from_r))
            if self._pending_moves:
                # Exclude players an earlier batch of this tick picked.
                cand = cand[~np.isin(cand, self._pending_ids())]
            if cand.size == 0:
                continue
            u = counter_u01(c.player_id[cand], tick, self._salt_move)
            take = cand[np.argsort(u, kind="stable")[:count]]
            self._pending_moves.append((take, int(to_r)))

    def _pending_ids(self) -> np.ndarray:
        return np.concatenate([ids for ids, _ in self._pending_moves])

    def _finish_tick(self) -> None:
        """Land the moves chosen in the previous tick's hook, in one
        edit over the (distinct) movers."""
        if not self._pending_moves:
            return
        c = self.cohort
        ids = self._pending_ids()
        to = np.repeat([to_r for _, to_r in self._pending_moves],
                       [m.size for m, _ in self._pending_moves])
        c.region[ids] = to
        c.served_by[ids] = c.failover_to[to]
        c.migrations[ids] += 1
        n = int(ids.size)
        self.moves_done += n
        duration = MIGRATION_TICKS * self.params.tick_s
        self.migration_times_s.extend([duration] * n)
        if self._obs is not None:
            if self._migration_hist is None:
                self._migration_hist = self._obs.metrics.histogram(
                    "failover.recovery_time_s", bounds=RECOVERY_BUCKETS)
            for _ in range(n):
                self._migration_hist.observe(duration)
        self._pending_moves.clear()

    # -- run -----------------------------------------------------------------
    def _initial_player_ids(self):
        return (int(p) for p in np.flatnonzero(self.cohort.active))

    def check_invariants(self) -> list[str]:
        """Membership-conservation and state-sanity checks (run after
        :meth:`run`); an empty list means every invariant held."""
        c = self.cohort
        out = []
        active_now = int(np.count_nonzero(c.active))
        expected = self.initial_active + self.joins - self.leaves \
            - self.evicted
        if active_now != expected:
            out.append(
                f"membership not conserved: {active_now} active, expected "
                f"{self.initial_active} + {self.joins} - {self.leaves} - "
                f"{self.evicted} = {expected}")
        sizes = [len(p) for p in self._pools]
        pooled = sum(sizes)
        if pooled + active_now != self.spec.n_players:
            out.append(
                f"population leak: {pooled} pooled + {active_now} active "
                f"!= {self.spec.n_players}")
        parked = np.fromiter(itertools.chain.from_iterable(self._pools),
                             dtype=np.int64, count=pooled)
        twice = np.count_nonzero(
            np.bincount(parked, minlength=self.spec.n_players) > 1)
        if twice:
            out.append(f"{twice} players parked twice")
        live = np.count_nonzero(c.active[parked])
        if live:
            out.append(f"{live} pooled players active")
        stray = np.count_nonzero(
            c.region[parked] != np.repeat(np.arange(len(sizes)), sizes))
        if stray:
            out.append(f"{stray} pooled players outside their region's pool")
        if np.any(c.materialised & ~c.active):
            out.append("inactive player still materialised")
        if np.any((c.served_by < 0) | (c.served_by >= self.spec.n_regions)):
            out.append("served_by out of range")
        if np.any((c.tier < 0) | (c.tier >= self.params.n_tiers)):
            out.append("tier out of range")
        if self._pending_moves:
            out.append(f"{self._pending_ids().size} migrations never landed")
        return out

    def run_dynamics(self) -> DynamicsReport:
        scale = self.run()
        # Close overload episodes still open at the horizon.
        for r in np.flatnonzero(self._over_prev):
            dur = float(self.spec.n_ticks
                        - self._episode_start[r]) * self.params.tick_s
            self.overload_episode_s.append(dur)
            inst = self._instruments()
            if inst is not None:
                inst["recovery_time"].observe(dur)
        self._over_prev[:] = False
        c = self.cohort
        rec = self.migration_times_s

        def _mean(vals):
            return float(sum(vals) / len(vals)) if vals else None

        return DynamicsReport(
            scale=scale,
            plan_sources=len(self.dspec.plan),
            strategy=self.dspec.strategy,
            initial_active=self.initial_active,
            final_active=int(np.count_nonzero(c.active)),
            joins=self.joins, leaves=self.leaves, refused=self.refused,
            shed=self.shed, evicted=self.evicted,
            pool_exhausted=self.pool_exhausted,
            moves=self.moves_done,
            migration_mean_s=_mean(rec),
            migration_max_s=(max(rec) if rec else None),
            overload_episodes=len(self.overload_episode_s),
            overload_mean_recovery_s=_mean(self.overload_episode_s),
            satisfied_active_fraction=scale.satisfied_fraction,
            invariants=self.check_invariants())


def run_dynamics(dspec: DynamicsSpec,
                 latency_params: LatencyParams | None = None,
                 obs=None) -> DynamicsReport:
    """Build and run one population-dynamics simulation."""
    return DynamicsKernel(dspec, latency_params, obs).run_dynamics()


__all__ = [
    "DYNAMICS_STRATEGIES",
    "DynamicsKernel",
    "DynamicsReport",
    "DynamicsSpec",
    "run_dynamics",
    "run_scale",
]
