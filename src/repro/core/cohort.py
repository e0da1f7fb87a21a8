"""Population-scale cohort simulation kernel (DESIGN.md §11).

Orchestrates a :class:`~repro.core.player.PlayerCohort` over a
calendar-queue :class:`~repro.sim.engine.Environment`. A **driver**
event fires once per tick: it finishes the previous tick
(:meth:`CohortKernel._finish_tick`; nothing in the base kernel, landed
migrations under population dynamics), folds the previous tick's
aggregates into the run digest, applies region fault transitions, runs
the per-tick hook (:meth:`CohortKernel._tick_inputs`; here: congestion
from the integer load counters), and reschedules itself.

Execution modes
---------------
``"cohort"``
    The scale mode: the driver then advances every active player in
    one vectorised :meth:`~repro.core.player.PlayerCohort.advance`
    call. Crashes, tier switches and failovers are just array values
    inside that call, so the run schedules one event per tick.
``"per-player"``
    The reference execution: every player is materialised from tick 0
    and driven by its own event chain through the scalar mirror
    :meth:`~repro.core.player.PlayerCohort._advance_one`. Cohort mode
    must match it byte-for-byte (same digest); it is also the
    event-population stress test for the calendar queue.

Determinism
-----------
The driver is always the first event processed at each tick time: it
is scheduled before any player chain at construction, and it
reschedules itself before any player event of the current tick runs,
so its sequence number stays the lowest by induction. Tick-level inputs
it writes (outage flags, failover targets, congestion) are therefore
visible to every advance of that tick in both modes. All cross-player
accumulation is integer (``bincount``), so per-tick event order cannot
perturb state, and the digest covers player state and aggregates only.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.player import CohortParams, MaterialisedPlayer, PlayerCohort
from repro.network.latency import (
    LatencyParams,
    RegionalLatency,
    sample_access_latency_s,
)
from repro.network.topology import Regions, build_regions
from repro.sim.engine import Environment
from repro.sim.rng import RngRegistry, counter_u01

#: Fault presets: (outage windows as tick fractions, crash rate).
#: Windows are resolved against ``n_ticks`` at kernel construction.
FAULT_PRESETS = ("none", "outage", "crashes", "mixed")

#: Crash probability per tick used by the crash-bearing presets — high
#: enough that a 1k-player, ~100-tick equivalence run sends a handful of
#: players through the crash path.
PRESET_CRASH_RATE = 1e-3


@dataclass(frozen=True)
class OutageWindow:
    """One region outage: offline in ``[start_tick, end_tick)``."""

    region: int
    start_tick: int
    end_tick: int

    def __post_init__(self) -> None:
        if not 0 <= self.start_tick < self.end_tick:
            raise ValueError("need 0 <= start_tick < end_tick")


@dataclass(frozen=True)
class ScaleSpec:
    """Configuration of one scale run.

    ``mode`` selects the execution strategy; everything else shapes the
    population and workload. Two specs differing only in ``mode`` must
    produce the same digest.
    """

    n_players: int = 100_000
    n_regions: int = 8
    n_ticks: int = 240
    seed: int = 0
    mode: str = "cohort"  # or "per-player"
    faults: str = "outage"  # one of FAULT_PRESETS
    #: Overrides the preset's crash rate when not None.
    crash_rate_per_tick: float | None = None
    params: CohortParams = field(default_factory=CohortParams)

    def __post_init__(self) -> None:
        if self.mode not in ("cohort", "per-player"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.faults not in FAULT_PRESETS:
            raise ValueError(
                f"unknown fault preset {self.faults!r}; "
                f"expected one of {FAULT_PRESETS}")
        if self.n_players <= 0 or self.n_regions <= 0 or self.n_ticks <= 0:
            raise ValueError("population, regions and ticks must be positive")


@dataclass
class RegionPercentiles:
    """Per-region latency distribution summary."""

    region: int
    n_players: int
    frames: int
    p50_ms: float
    p95_ms: float
    p99_ms: float


@dataclass
class ScaleReport:
    """Everything a scale run reports (CLI + experiment payload)."""

    n_players: int
    n_regions: int
    n_ticks: int
    seed: int
    mode: str
    faults: str
    digest: str
    events_scheduled: int
    #: Per-player chains started and still live at the end: 0 in
    #: cohort mode. ``reabsorptions`` is always 0 and stays only as
    #: part of the JSON schema.
    materialisations: int
    reabsorptions: int
    final_materialised: int
    satisfied_fraction: float
    crashes: int
    switches: int
    reconnects: int
    migrations: int
    rebuffer_ticks: int
    p50_ms: float
    p95_ms: float
    p99_ms: float
    regions: list[RegionPercentiles]

    def to_dict(self) -> dict:
        """Stable JSON schema (CLI ``--json`` and external tooling)."""
        return dataclasses.asdict(self)

    @property
    def player_ticks(self) -> int:
        """Player advances the run made: the work behind its wall time."""
        return sum(r.frames for r in self.regions)

    def format_text(self) -> str:
        """Human-readable summary for the ``cloudfog scale`` CLI."""
        head = (
            f"scale run: {self.n_players:,} players / {self.n_regions} "
            f"regions / {self.n_ticks} ticks  "
            f"[mode={self.mode} faults={self.faults} "
            f"seed={self.seed}]\n"
            f"  {self.events_scheduled:,} events "
            f"· {self.materialisations:,} materialised\n"
            f"  faults: {self.crashes:,} crashes · {self.switches:,} tier "
            f"switches · {self.reconnects:,} reconnects · "
            f"{self.migrations:,} migrations · "
            f"{self.rebuffer_ticks:,} rebuffer ticks\n"
            f"  satisfied: {100.0 * self.satisfied_fraction:.1f}%\n"
            f"  latency   P50 {self.p50_ms:7.1f} ms   "
            f"P95 {self.p95_ms:7.1f} ms   P99 {self.p99_ms:7.1f} ms\n"
            f"  digest    {self.digest}")
        rows = [
            f"  region {r.region:>3}  {r.n_players:>9,} players   "
            f"P50 {r.p50_ms:7.1f}   P95 {r.p95_ms:7.1f}   "
            f"P99 {r.p99_ms:7.1f} ms"
            for r in self.regions
        ]
        return "\n".join([head, *rows])


def percentiles_from_hist(hist: np.ndarray, bin_s: float,
                          qs=(0.50, 0.95, 0.99)) -> list[float]:
    """Quantiles of an integer latency histogram (bin-centre estimate)."""
    total = int(hist.sum())
    if total == 0:
        return [0.0 for _ in qs]
    cum = np.cumsum(hist)
    out = []
    for q in qs:
        rank = min(total, max(1, int(np.ceil(q * total))))
        b = int(np.searchsorted(cum, rank))
        out.append((b + 0.5) * bin_s)
    return out


def resolve_faults(spec: ScaleSpec) -> tuple[tuple[OutageWindow, ...], float]:
    """Turn a fault preset into concrete outage windows and a crash rate.

    The outage presets take region 0 — the most populous under the Zipf
    weights — offline for the middle third of the run, which is the
    worst case for the failover target's congestion. A one-tick run has
    no middle third, so it gets no outage.
    """
    third = max(1, spec.n_ticks // 3)
    end = min(2 * third, spec.n_ticks)
    windows: tuple[OutageWindow, ...] = ()
    if (spec.faults in ("outage", "mixed") and spec.n_regions > 1
            and third < end):
        windows = (OutageWindow(region=0, start_tick=third, end_tick=end),)
    crash = PRESET_CRASH_RATE if spec.faults in ("crashes", "mixed") else 0.0
    if spec.crash_rate_per_tick is not None:
        crash = spec.crash_rate_per_tick
    return windows, crash


class CohortKernel:
    """One scale run: population build, tick driver, report."""

    def __init__(self, spec: ScaleSpec,
                 latency_params: LatencyParams | None = None):
        self.spec = spec
        self.outages, crash_rate = resolve_faults(spec)
        self.params = replace(spec.params, crash_rate_per_tick=crash_rate)

        rngs = RngRegistry(spec.seed)
        self.regions: Regions = build_regions(
            rngs.stream("regions"), spec.n_players, spec.n_regions)
        lp = latency_params or LatencyParams()
        access = sample_access_latency_s(
            rngs.stream("access"), spec.n_players, lp)
        self.latency = RegionalLatency(self.regions.centers_km, lp)
        self.cohort = PlayerCohort(
            self.regions.region_of_player, access, self.latency,
            self.params, spec.seed)
        self._capacity = (self.params.capacity_factor
                          * np.maximum(self.regions.player_counts(), 1)
                          .astype(np.float64))
        self.env = Environment(queue="calendar")
        self._digest = hashlib.sha256()
        #: Per-player event chains started (per-player mode only).
        self.materialisations = 0
        self._cohort_mode = spec.mode == "cohort"
        self._salt_failover = 2 * spec.seed + 3

    # -- event machinery -----------------------------------------------------
    def _schedule_player(self, mp: MaterialisedPlayer, tick: int,
                         delay: float) -> None:
        self.env.call_later(delay, self._player_fire, mp, tick)

    def _player_fire(self, mp: MaterialisedPlayer, tick: int) -> None:
        """One tick of a per-player chain (per-player mode only)."""
        mp.advance(tick)
        if tick + 1 < self.spec.n_ticks:
            self._schedule_player(mp, tick + 1, self.params.tick_s)

    def _driver_fire(self, tick: int) -> None:
        self._finish_tick()
        self._hash_tick(tick)
        self._apply_fault_transitions(tick)
        self._tick_inputs(tick)
        # Reschedule before any player event of this tick runs, so the
        # driver's sequence number stays the lowest at tick + 1.
        if tick + 1 < self.spec.n_ticks:
            self.env.call_later(self.params.tick_s, self._driver_fire,
                                tick + 1)
        if self._cohort_mode:
            idx = self.cohort.batch_indices()
            if idx.size:
                self.cohort.advance(idx, tick)

    def _finish_tick(self) -> None:
        """Driver hook run after every advance of the previous tick and
        before its state is folded into the digest: at the head of each
        driver event, and once more after the last tick. The base kernel
        has nothing to finish."""

    def _tick_inputs(self, tick: int) -> None:
        """Per-tick driver hook, run after the fault transitions and
        before any advance of ``tick``. Subclasses extend it; the base
        kernel only updates congestion."""
        self._update_congestion()

    # -- tick-level inputs ---------------------------------------------------
    def _failover_target(self, region: int) -> int:
        """Nearest online region by propagation (stable argmin)."""
        row = self.latency.propagation_row_s(region)
        blocked = self.cohort.region_offline.copy()
        blocked[region] = True
        candidates = np.where(blocked, np.inf, row)
        if not np.isfinite(candidates).any():  # pragma: no cover - degenerate
            return region
        return int(np.argmin(candidates))

    def _apply_fault_transitions(self, tick: int) -> None:
        """Region-wide outage start/end — rule-homogeneous, driver-applied.

        One rule moves every affected player, so the driver rewrites
        ``served_by`` for the whole block in both modes, before any
        advance of this tick. The rule spreads the displaced load
        across online regions in proportion to capacity — dumping a top
        region's population onto its single nearest neighbour would
        melt that neighbour — using the per-player counter hash, so the
        assignment is deterministic and mode-independent. Individual
        crash *reconnects* still go to the single nearest online region
        (``failover_to``).
        """
        c = self.cohort
        for w in self.outages:
            if tick == w.start_tick:
                c.region_offline[w.region] = True
                c.failover_to[w.region] = self._failover_target(w.region)
                moving = np.flatnonzero(c.served_by == w.region)
                caps = np.where(c.region_offline, 0.0, self._capacity)
                cum = np.cumsum(caps)
                u = counter_u01(c.player_id[moving],
                                w.start_tick, self._salt_failover)
                c.served_by[moving] = np.searchsorted(
                    cum, u * cum[-1], side="right")
                c.migrations[moving] += 1
            if tick == w.end_tick:
                c.region_offline[w.region] = False
                c.failover_to[w.region] = w.region
                home = c.region == w.region
                c.migrations[home & (c.served_by != w.region)] += 1
                c.served_by[home] = w.region

    def _update_congestion(self) -> None:
        """Congestion from the previous tick's integer load counters."""
        c = self.cohort
        util = c.tick_load / self._capacity
        c.congestion_s = self.params.congestion_gain_s * np.maximum(
            0.0, util - 1.0)
        c.tick_load[:] = 0

    # -- digest --------------------------------------------------------------
    def _hash_tick(self, tick: int) -> None:
        """Fold the state after ticks ``< tick`` into the run digest.

        Integer aggregates only: exact sums of int64 arrays plus the
        previous tick's load counters. Array layouts are little-endian
        int64 on every supported platform.
        """
        c = self.cohort
        h = self._digest
        h.update(np.int64(tick).tobytes())
        h.update(np.bincount(
            c.tier, minlength=self.params.n_tiers).tobytes())
        h.update(c.tick_load.tobytes())
        totals = np.array(
            [c.crashes.sum(), c.switches.sum(), c.reconnects.sum(),
             c.migrations.sum(), c.rebuffer_ticks.sum(),
             c.on_time_frames.sum()], dtype=np.int64)
        h.update(totals.tobytes())

    def _hash_final(self) -> str:
        """Full-state hash: every per-player array, bit for bit."""
        c = self.cohort
        h = self._digest
        for arr in (c.buffer_s, c.position_s, c.tier, c.served_by,
                    c.last_switch, c.crashes, c.switches, c.reconnects,
                    c.migrations, c.rebuffer_ticks, c.on_time_frames,
                    c.frames, c.lat_hist):
            h.update(np.ascontiguousarray(arr).tobytes())
        return h.hexdigest()

    # -- run -----------------------------------------------------------------
    def _initial_player_ids(self):
        """Players materialised up-front in per-player mode. Subclasses
        with dynamic membership start chains for the active set only."""
        return range(self.spec.n_players)

    def run(self) -> ScaleReport:
        spec, p = self.spec, self.params
        # The driver's tick-0 event is created first: lowest sequence
        # number, so it precedes every player event at every tick.
        self.env.call_later(0.0, self._driver_fire, 0)
        if not self._cohort_mode:
            for pid in self._initial_player_ids():
                mp = self.cohort.materialise(pid)
                self.materialisations += 1
                self._schedule_player(mp, 0, 0.0)
        self.env.run()
        self._finish_tick()
        self._hash_tick(spec.n_ticks)
        digest = self._hash_final()

        c = self.cohort
        # §IV satisfaction over participants: a player who never joined
        # (possible under population dynamics) played no frames.
        participants = c.frames > 0
        n_part = int(np.count_nonzero(participants))
        satisfied = np.count_nonzero(participants & (
            c.on_time_frames >= (1.0 - p.loss_tolerance) * c.frames))
        hist = c.lat_hist.reshape(spec.n_regions, p.n_latency_bins)
        p50, p95, p99 = percentiles_from_hist(hist.sum(axis=0),
                                              p.latency_bin_s)
        counts = self.regions.player_counts()
        regions = [
            RegionPercentiles(
                region=r, n_players=int(counts[r]),
                frames=int(hist[r].sum()),
                p50_ms=1e3 * rp[0], p95_ms=1e3 * rp[1], p99_ms=1e3 * rp[2])
            for r in range(spec.n_regions)
            for rp in [percentiles_from_hist(hist[r], p.latency_bin_s)]
        ]
        return ScaleReport(
            n_players=spec.n_players, n_regions=spec.n_regions,
            n_ticks=spec.n_ticks, seed=spec.seed, mode=spec.mode,
            faults=spec.faults, digest=digest,
            events_scheduled=self.env._seq,
            materialisations=self.materialisations,
            reabsorptions=0,
            final_materialised=int(np.count_nonzero(c.materialised)),
            satisfied_fraction=(
                float(satisfied / n_part) if n_part else 0.0),
            crashes=int(c.crashes.sum()), switches=int(c.switches.sum()),
            reconnects=int(c.reconnects.sum()),
            migrations=int(c.migrations.sum()),
            rebuffer_ticks=int(c.rebuffer_ticks.sum()),
            p50_ms=1e3 * p50, p95_ms=1e3 * p95, p99_ms=1e3 * p99,
            regions=regions)


def run_scale(spec: ScaleSpec,
              latency_params: LatencyParams | None = None) -> ScaleReport:
    """Build and run one scale simulation."""
    return CohortKernel(spec, latency_params).run()
