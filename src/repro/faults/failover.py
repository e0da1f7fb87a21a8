"""Failover: delivery-timeout detection, backoff retries, migration.

When a serving supernode dies, each affected player walks a small state
machine (paper §II/§III: the cloud's state updates stop arriving, and an
uncovered player falls back to direct cloud streaming):

::

    SERVED ──crash──▶ DETECTING ──timeout──▶ RETRYING ──server up──▶ RECONNECT
                                              │  ▲
                                              │  └── exponential backoff
                                              └─retries exhausted─▶ SWITCHING
                                                                       │
                                               next-best supernode ◀───┤
                                               direct-cloud fallback ◀─┘

The :class:`FailoverController` owns the per-player state machines and
the recovery instruments; the *mechanics* of probing and re-attaching are
injected as callables (``is_up``, ``reattach``, ``migrate``) so the
controller runs identically under the full
:class:`~repro.core.infrastructure.GamingSession` and under microcosm
unit tests with stub servers.

Determinism: every delay is a fixed function of
:class:`FailoverParams` — no jitter, no RNG — so a seeded run recovers at
exactly the same simulated instants every time. Metric instruments are
created lazily on the first handled failure, which keeps an armed-but-
empty fault plan's metrics snapshot byte-identical to an unarmed run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs import Observability
    from repro.sim.engine import Environment

#: Bucket bounds for recovery/downtime histograms (seconds).
RECOVERY_BUCKETS = (0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0)


@dataclass(frozen=True, slots=True)
class FailoverParams:
    """Constants of the failover state machine."""

    #: Time without state-update delivery before a player declares its
    #: server down (models the update-stream watchdog).
    detection_timeout_s: float = 0.25
    #: First retry backoff after detection.
    base_backoff_s: float = 0.1
    #: Backoff growth factor per failed retry.
    backoff_multiplier: float = 2.0
    #: Reconnection probes before giving up on the crashed server.
    max_retries: int = 3
    #: Control-plane delay of switching servers (assignment round trip).
    switch_delay_s: float = 0.05
    #: Ceiling on any single retry backoff. Exponential growth past the
    #: cap (including float-overflow territory) clamps here instead of
    #: raising, so a long-dead server cannot stall the state machine.
    max_backoff_s: float = 60.0

    def __post_init__(self) -> None:
        if self.detection_timeout_s < 0:
            raise ValueError("detection timeout must be nonnegative")
        if self.base_backoff_s <= 0:
            raise ValueError("base backoff must be positive")
        if self.backoff_multiplier < 1.0:
            raise ValueError("backoff multiplier must be at least 1")
        if self.max_retries < 0:
            raise ValueError("max retries must be nonnegative")
        if self.switch_delay_s < 0:
            raise ValueError("switch delay must be nonnegative")
        if self.max_backoff_s < self.base_backoff_s:
            raise ValueError("max backoff must be at least the base backoff")

    def backoff_s(self, attempt: int) -> float:
        """Backoff before retry ``attempt`` (0-based), capped at
        ``max_backoff_s``."""
        if attempt < 0:
            raise ValueError("attempt must be nonnegative")
        try:
            raw = self.base_backoff_s * self.backoff_multiplier ** attempt
        except OverflowError:
            return self.max_backoff_s
        return min(raw, self.max_backoff_s)


class FailoverController:
    """Per-player crash recovery with retry/backoff and migration.

    Parameters
    ----------
    env:
        Simulation environment (schedules the state-machine timers).
    params:
        Timing constants.
    is_up:
        ``(host_id) -> bool`` — whether a server is currently serving.
    reattach:
        ``(player_id, host_id) -> bool`` — reconnect a player to its
        recovered server; False if the server cannot take it back.
    migrate:
        ``(player_id) -> str | None`` — move the player to the next-best
        supernode or direct cloud; returns ``"supernode"``/``"cloud"``
        (or ``None`` when the player cannot be placed at all).
    """

    def __init__(
        self,
        env: "Environment",
        params: FailoverParams | None = None,
        *,
        is_up: Callable[[int], bool],
        reattach: Callable[[int, int], bool],
        migrate: Callable[[int], Optional[str]],
        obs: "Observability | None" = None,
    ):
        self.env = env
        self.params = params or FailoverParams()
        self._is_up = is_up
        self._reattach = reattach
        self._migrate = migrate
        self._obs = obs
        #: player id -> {"host", "t_crash", "attempt"} while recovering.
        self._pending: dict[int, dict] = {}
        #: player id -> crash time; armed at recovery completion so the
        #: first post-recovery delivery closes the downtime window.
        self._awaiting_delivery: dict[int, float] = {}
        # Public tallies (also mirrored into lazily created instruments).
        self.detections = 0
        self.retries = 0
        self.reconnects = 0
        self.migrations = 0
        self.cloud_fallbacks = 0
        self.recoveries = 0
        self.abandoned = 0
        self.recovery_times_s: list[float] = []
        self.downtimes_s: list[float] = []
        self._inst: dict | None = None

    # -- lazy instruments ---------------------------------------------------
    def _instruments(self) -> dict | None:
        """Create metric instruments on first failure (not before).

        Eager creation would register zero-valued snapshot entries and
        make an armed-but-empty plan's metrics differ from baseline.
        """
        if self._obs is None:
            return None
        if self._inst is None:
            m = self._obs.metrics
            self._inst = {
                "detections": m.counter("failover.detections"),
                "retries": m.counter("failover.retries"),
                "reconnects": m.counter("failover.reconnects"),
                "migrations": m.counter("failover.migrations"),
                "cloud_fallbacks": m.counter("failover.cloud_fallbacks"),
                "recoveries": m.counter("failover.recoveries"),
                "recovery_time": m.histogram(
                    "failover.recovery_time_s", bounds=RECOVERY_BUCKETS),
                "downtime": m.histogram(
                    "failover.downtime_s", bounds=RECOVERY_BUCKETS),
            }
        return self._inst

    def _count(self, key: str) -> None:
        inst = self._instruments()
        if inst is not None:
            inst[key].inc()

    def _emit(self, kind: str, **data) -> None:
        if self._obs is not None:
            self._obs.emit(self.env.now, "failover", kind, **data)

    # -- entry points -------------------------------------------------------
    @property
    def in_progress(self) -> int:
        """Players currently walking the recovery state machine."""
        return len(self._pending)

    def on_server_down(self, player_id: int, host_id: int,
                       now_s: float) -> None:
        """A player's serving host just crashed: start detection."""
        if player_id in self._pending:
            return  # already recovering (server crashed mid-failover)
        self._pending[player_id] = {
            "host": int(host_id), "t_crash": float(now_s), "attempt": 0}
        self.env.call_later(self.params.detection_timeout_s,
                            self._on_detect, player_id)

    def note_delivery(self, player_id: int, now_s: float) -> None:
        """A segment with data reached the player (downtime bookkeeping)."""
        t_crash = self._awaiting_delivery.pop(player_id, None)
        if t_crash is None:
            return
        downtime = now_s - t_crash
        self.downtimes_s.append(downtime)
        inst = self._instruments()
        if inst is not None:
            inst["downtime"].observe(downtime)

    # -- state machine ------------------------------------------------------
    def _on_detect(self, player_id: int) -> None:
        state = self._pending.get(player_id)
        if state is None:  # pragma: no cover - defensive
            return
        self.detections += 1
        self._count("detections")
        self._emit("failover.detect", player=player_id, host=state["host"])
        self._probe(player_id)

    def _probe(self, player_id: int) -> None:
        """One reconnection attempt against the crashed server."""
        state = self._pending[player_id]
        host = state["host"]
        if self._is_up(host) and self._reattach(player_id, host):
            self.reconnects += 1
            self._count("reconnects")
            self._complete(player_id, how="reconnect", where=host)
            return
        attempt = state["attempt"]
        if attempt >= self.params.max_retries:
            self._emit("failover.giveup", player=player_id, host=host,
                       retries=attempt)
            self.env.call_later(self.params.switch_delay_s, self._switch,
                                player_id)
            return
        state["attempt"] = attempt + 1
        self.retries += 1
        self._count("retries")
        self._emit("failover.retry", player=player_id, host=host,
                   attempt=attempt + 1,
                   backoff_s=self.params.backoff_s(attempt))
        self.env.call_later(self.params.backoff_s(attempt), self._probe,
                            player_id)

    def _switch(self, player_id: int) -> None:
        """Retries exhausted: migrate to next-best supernode or cloud."""
        where = self._migrate(player_id)
        if where == "supernode":
            self.migrations += 1
            self._count("migrations")
        elif where == "cloud":
            self.cloud_fallbacks += 1
            self._count("cloud_fallbacks")
        else:
            # Nowhere to go (microcosm stubs); the player stays detached.
            self.abandoned += 1
            self._pending.pop(player_id, None)
            self._emit("failover.abandon", player=player_id)
            return
        self._complete(player_id, how=where, where=None)

    def _complete(self, player_id: int, how: str,
                  where: Optional[int]) -> None:
        state = self._pending.pop(player_id)
        recovery = self.env.now - state["t_crash"]
        self.recoveries += 1
        self.recovery_times_s.append(recovery)
        self._count("recoveries")
        inst = self._instruments()
        if inst is not None:
            inst["recovery_time"].observe(recovery)
        self._awaiting_delivery[player_id] = state["t_crash"]
        self._emit("failover.recover", player=player_id, how=how,
                   recovery_s=recovery)

    # -- reporting ----------------------------------------------------------
    def stats(self) -> dict:
        """JSON-able summary of everything the controller handled."""
        def _mean(vals):
            return float(sum(vals) / len(vals)) if vals else None

        return {
            "detections": self.detections,
            "retries": self.retries,
            "reconnects": self.reconnects,
            "migrations": self.migrations,
            "cloud_fallbacks": self.cloud_fallbacks,
            "recoveries": self.recoveries,
            "abandoned": self.abandoned,
            "in_progress": self.in_progress,
            "mean_recovery_time_s": _mean(self.recovery_times_s),
            "max_recovery_time_s": (max(self.recovery_times_s)
                                    if self.recovery_times_s else None),
            "mean_downtime_s": _mean(self.downtimes_s),
        }
