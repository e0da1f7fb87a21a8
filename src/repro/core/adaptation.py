"""Receiver-driven encoding rate adaptation (paper §III-B).

The player watches its own buffer and tells the supernode when to move the
encoding bitrate up or down the quality ladder:

* buffered video size:  ``s(t_k) = s(t_{k-1}) + (t_k − t_{k-1})(d − b_p)``
  (Eq. 7) — maintained by :class:`~repro.streaming.playback.PlaybackBuffer`;
* buffered segments:    ``r = s(t_k)/τ``                        (Eq. 8);
* adjust **up** when    ``r > (1 + β)/ρ``                (Eqs. 9–10 + ρ);
* adjust **down** when  ``r < θ/ρ``                       (Eq. 11 + ρ);
* β = max relative bitrate step between adjacent ladder levels (Eq. 10),
  which guarantees the buffered video still covers playback after the
  bitrate increase;
* ρ ∈ [0, 1] is the game's latency tolerance degree: latency-sensitive
  games (low ρ) get *higher* thresholds, i.e. they keep more slack
  buffered before daring a bitrate change;
* hysteresis: "the video bitrate is adjusted only when all results satisfy
  Formula (9) or Formula (11)" over a number of consecutive estimations.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

from repro.obs.metrics import MetricsRegistry
from repro.streaming.video import max_adjust_up_factor

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs import Observability


class Adjustment(Enum):
    """Decision of one rate-adaptation evaluation."""

    NONE = 0
    UP = 1
    DOWN = -1


@dataclass(frozen=True, slots=True)
class AdaptationParams:
    """Tuning constants of the adaptation strategy."""

    #: θ — adjust-down threshold (paper default 0.5).
    theta: float = 0.5
    #: Number of consecutive agreeing estimations before adjusting down.
    hysteresis: int = 3
    #: Consecutive agreeing estimations before adjusting *up*. Raising
    #: quality re-saturates a congested path, so the up direction is
    #: deliberately slower (additive-increase flavour) to avoid level
    #: oscillation under sustained overload.
    up_hysteresis: int = 10
    #: After a deadline miss, suppress adjust-up for this many
    #: estimations: raising quality right after escaping congestion
    #: re-enters it, and the resulting level oscillation costs far more
    #: continuity than the briefly lower quality.
    miss_up_cooldown: int = 30
    #: An adjust-up is a *probe*: if deadlines start missing within this
    #: many estimations of the probe, the probe failed.
    probe_window: int = 20
    #: Up-suppression after a failed probe. Long: the congestion that
    #: rejected the probe is structural (too many players on the
    #: supernode), not a transient.
    failed_probe_penalty: int = 300
    #: Ablation switch: apply the per-game ρ scaling to the thresholds
    #: (paper §III-B). With False, every game uses the ρ = 1 thresholds.
    rho_scaling: bool = True
    #: β override; None computes Eq. 10 from the quality ladder.
    beta: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.theta <= 1.0:
            raise ValueError("theta must lie in (0, 1] (Eq. 11: θ ≤ 1)")
        if self.hysteresis < 1 or self.up_hysteresis < 1:
            raise ValueError("hysteresis must be at least 1")
        if self.miss_up_cooldown < 0:
            raise ValueError("cooldown must be nonnegative")
        if self.beta is not None and self.beta <= 0:
            raise ValueError("beta must be positive")


class RateAdaptationController:
    """Per-player adaptation state machine.

    Parameters
    ----------
    latency_tolerance:
        ρ of the player's game.
    params:
        Strategy constants.

    Usage: call :meth:`observe` with the current buffered-segment count
    ``r`` at every estimation instant (the reproduction estimates at
    segment arrivals); it returns the adjustment to request from the
    sender, already debounced by the hysteresis rule.
    """

    def __init__(
        self,
        latency_tolerance: float,
        params: AdaptationParams | None = None,
        obs: "Observability | None" = None,
        component: str = "adapt",
    ):
        if not 0.0 < latency_tolerance <= 1.0:
            raise ValueError("latency tolerance ρ must lie in (0, 1]")
        self.params = params or AdaptationParams()
        self.rho = latency_tolerance if self.params.rho_scaling else 1.0
        beta = self.params.beta
        self.beta = max_adjust_up_factor() if beta is None else beta
        self._up_streak = 0
        self._down_streak = 0
        self._miss_streak = 0
        self._up_cooldown = 0
        self._estimates = 0
        self._probe_deadline = -1
        self._emit = obs.emit if obs is not None and obs.listening else None
        self.component = component
        registry = obs.metrics if obs is not None else MetricsRegistry()
        self._c_up = registry.counter("adapt.adjustments_up")
        self._c_down = registry.counter("adapt.adjustments_down")

    @property
    def adjustments_up(self) -> int:
        """Adjust-up decisions fired (metrics-registry backed)."""
        return self._c_up.value

    @property
    def adjustments_down(self) -> int:
        """Adjust-down decisions fired (metrics-registry backed)."""
        return self._c_down.value

    @property
    def up_threshold(self) -> float:
        """r above which an adjust-up is indicated: (1 + β)/ρ."""
        return (1.0 + self.beta) / self.rho

    @property
    def down_threshold(self) -> float:
        """r below which an adjust-down is indicated: θ/ρ."""
        return self.params.theta / self.rho

    def observe(self, r: float, deadline_missed: bool = False,
                now_s: float | None = None) -> Adjustment:
        """Feed one estimation of the buffered-segment count ``r``.

        Parameters
        ----------
        r:
            Buffered-segment count (Eq. 8) at this estimation instant.
        deadline_missed:
            Whether the segment that prompted this estimation arrived
            past its latency requirement. The buffer signal alone cannot
            see deadline misses when throughput keeps up but the path is
            simply too slow; the paper's stated goal — "a game video can
            reduce video quality in order to reach its latency
            requirement" (§III-B) — needs this second trigger.
        now_s:
            Sim time of the estimation, used only to timestamp trace
            events (decisions are not traced when omitted).

        Returns the debounced adjustment decision. Streak counters reset
        after a decision fires (a fresh run of agreeing estimates is
        required for the next adjustment) and whenever the estimate
        leaves the triggering region.
        """
        if r < 0:
            raise ValueError("buffered segment count cannot be negative")
        self._estimates += 1
        if deadline_missed:
            self._miss_streak += 1
            if self._estimates <= self._probe_deadline:
                # The recent adjust-up probe failed: back off for long.
                self._up_cooldown = self.params.failed_probe_penalty
                self._probe_deadline = -1
            else:
                self._up_cooldown = max(
                    self._up_cooldown, self.params.miss_up_cooldown)
        else:
            self._miss_streak = 0
            if self._up_cooldown > 0:
                self._up_cooldown -= 1

        if (r > self.up_threshold and not deadline_missed
                and self._up_cooldown == 0):
            self._up_streak += 1
            self._down_streak = 0
        elif r < self.down_threshold:
            self._down_streak += 1
            self._up_streak = 0
        else:
            self._up_streak = 0
            self._down_streak = 0

        if self._miss_streak >= self.params.hysteresis:
            self._miss_streak = 0
            self._down_streak = 0
            self._c_down.inc()
            self._trace_decision("down", r, now_s)
            return Adjustment.DOWN
        if self._up_streak >= self.params.up_hysteresis:
            self._up_streak = 0
            self._c_up.inc()
            self._probe_deadline = self._estimates + self.params.probe_window
            self._trace_decision("up", r, now_s)
            return Adjustment.UP
        if self._down_streak >= self.params.hysteresis:
            self._down_streak = 0
            self._c_down.inc()
            self._trace_decision("down", r, now_s)
            return Adjustment.DOWN
        return Adjustment.NONE

    def _trace_decision(self, direction: str, r: float,
                        now_s: float | None) -> None:
        if self._emit is not None and now_s is not None:
            self._emit(now_s, self.component, "adapt.decision",
                       direction=direction, r=r)

    def reset(self) -> None:
        """Clear streaks (e.g. after a level change took effect)."""
        self._up_streak = 0
        self._down_streak = 0
        self._miss_streak = 0
