"""Bind a fault plan to a live gaming session.

:class:`SessionChaos` is the :class:`~repro.faults.injector.FaultHandler`
for the packet-level :class:`~repro.core.infrastructure.GamingSession`.
It owns three pieces of fault state, all empty (and therefore free) when
no fault is active:

* **network conditions** — active latency extras, loss bursts and the
  partitioned-host set, consulted by the guarded delivery wrapper;
* **delivery epochs** — a per-player counter bumped at every
  reattach/migration; a wrapper created for an older epoch silently
  suppresses its deliveries, so a migrated player can never receive a
  stale segment from its previous server (in-flight segments at crash
  time still arrive, matching a real network);
* a **seeded RNG** for loss draws, consumed *only* while a loss burst is
  active — an empty or loss-free plan draws nothing, preserving
  byte-identical digests.

The wrapper replaces ``endpoint.deliver`` as the route callback only
when a plan is armed; unarmed sessions register the bare endpoint method
and pay nothing.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any, Optional

import numpy as np

from repro.faults.plan import FaultPlan

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.infrastructure import GamingSession
    from repro.core.player import PlayerEndpoint
    from repro.faults.failover import FailoverController


def degrade_rate(target, factor: float) -> float:
    """Scale ``target.uplink_rate_bps`` by ``factor``; returns the
    original value for :func:`restore_rate`.

    The bandwidth throttle applies it to a streaming server and to its
    deadline-driven sender buffer, which keeps its own copy of the rate.
    """
    if not 0.0 < factor <= 1.0:
        raise ValueError("degrade factor must lie in (0, 1]")
    original = target.uplink_rate_bps
    target.uplink_rate_bps = original * factor
    return original


def restore_rate(target, original: float) -> None:
    """Undo :func:`degrade_rate` exactly (no float round-tripping)."""
    target.uplink_rate_bps = original


def _is_supernode(server) -> bool:
    # Duck-typed so the faults package never imports repro.core (the
    # core package imports repro.faults for the SessionConfig fields).
    return hasattr(server, "capacity_slots")


class SessionChaos:
    """Executes plan faults against a session's servers and routes."""

    def __init__(self, session: "GamingSession", plan: FaultPlan,
                 controller: "FailoverController | None" = None):
        self._session = session
        self.plan = plan
        self.controller = controller
        #: Loss/jitter draws; consumed only while a loss burst is active.
        self._rng = np.random.default_rng(
            np.random.SeedSequence([plan.seed & 0xFFFFFFFF, 0xFA117]))
        #: player id -> current delivery epoch.
        self._epochs: dict[int, int] = {}
        #: Active (target host | None for all, extra seconds) entries.
        self._latency: list[tuple[Optional[int], float]] = []
        #: Active (target host | None for all, loss fraction) entries.
        self._loss: list[tuple[Optional[int], float]] = []
        #: Hosts currently cut off by a regional partition.
        self._partitioned: set[int] = set()
        #: Deliveries suppressed because the player moved on.
        self.stale_suppressed = 0
        #: Segments dropped by loss bursts and partitions.
        self.segments_lost_to_faults = 0

    # -- delivery wrapper ---------------------------------------------------
    def bump_epoch(self, player_id: int) -> int:
        """Invalidate every delivery wrapper the player currently has."""
        epoch = self._epochs.get(player_id, 0) + 1
        self._epochs[player_id] = epoch
        return epoch

    def make_deliver(self, player_id: int, endpoint: "PlayerEndpoint",
                     host_id: int):
        """A route callback guarding ``endpoint.deliver`` for one attach.

        The returned closure pins the player's epoch at creation time;
        after a reattach/migration (which bumps the epoch) the old
        wrapper becomes a silent sink for whatever was still in flight
        from the previous server.
        """
        epoch = self._epochs.get(player_id, 0)

        def deliver(segment, now_s: float) -> None:
            if self._epochs.get(player_id, 0) != epoch:
                self.stale_suppressed += 1
                return
            if self._partitioned and host_id in self._partitioned:
                segment.drop_all()
                self.segments_lost_to_faults += 1
                endpoint.deliver(segment, now_s)
                return
            if self._loss and segment.remaining_packets > 0:
                p = self._loss_fraction(host_id)
                if p > 0.0 and self._rng.random() < p:
                    segment.drop_all()
                    self.segments_lost_to_faults += 1
                    endpoint.deliver(segment, now_s)
                    return
            extra = self._latency_extra(host_id) if self._latency else 0.0
            if extra > 0.0:
                self._session.env.call_later(
                    extra, self._arrive_late, player_id, epoch, endpoint,
                    segment)
                return
            self._finish(player_id, endpoint, segment, now_s)

        return deliver

    def _arrive_late(self, player_id: int, epoch: int, endpoint,
                     segment) -> None:
        """A spike-delayed segment lands, unless its player moved on."""
        if self._epochs.get(player_id, 0) != epoch:
            self.stale_suppressed += 1
            return
        self._finish(player_id, endpoint, segment, self._session.env.now)

    def _finish(self, player_id: int, endpoint, segment,
                now_s: float) -> None:
        endpoint.deliver(segment, now_s)
        if self.controller is not None and segment.remaining_packets > 0:
            self.controller.note_delivery(player_id, now_s)

    def _latency_extra(self, host_id: int) -> float:
        return sum(extra for target, extra in self._latency
                   if target is None or target == host_id)

    def _loss_fraction(self, host_id: int) -> float:
        keep = 1.0
        for target, frac in self._loss:
            if target is None or target == host_id:
                keep *= 1.0 - frac
        return 1.0 - keep

    # -- target resolution --------------------------------------------------
    def _live_supernodes(self) -> list:
        """Running supernode servers, busiest first (ties by host id)."""
        servers = [s for s in self._session._servers.values()
                   if _is_supernode(s) and not getattr(s, "crashed", False)]
        servers.sort(key=lambda s: (-s.n_players, s.host_id))
        return servers

    def _resolve_target(self, fault) -> Optional[int]:
        """Fault target -> host id (None = no applicable server)."""
        host_id = getattr(fault, "host_id", None)
        if host_id is not None:
            server = self._session._servers.get(int(host_id))
            if server is None or getattr(server, "crashed", False):
                return None
            return int(host_id)
        rank = getattr(fault, "supernode", None)
        if rank is None:
            return None
        live = self._live_supernodes()
        if rank >= len(live):
            return None
        return int(live[rank].host_id)

    # -- FaultHandler -------------------------------------------------------
    def apply(self, fault, now_s: float) -> Optional[Any]:
        return getattr(self, f"_apply_{fault.kind}")(fault, now_s)

    def clear(self, fault, token: Any, now_s: float) -> None:
        getattr(self, f"_clear_{fault.kind}")(fault, token, now_s)

    # crash ------------------------------------------------------------------
    def _apply_crash(self, fault, now_s: float) -> Optional[int]:
        host = self._resolve_target(fault)
        if host is None:
            return None
        session = self._session
        server = session._servers[host]
        affected = list(server._routes)
        server.fail(now_s)
        if session._sn_service is not None:
            session._sn_service.mark_failed(host)
        if self.controller is not None:
            for pid in affected:
                self.controller.on_server_down(pid, host, now_s)
        return host

    def _clear_crash(self, fault, host: int, now_s: float) -> None:
        server = self._session._servers.get(host)
        if server is not None:
            server.recover()
        if self._session._sn_service is not None:
            self._session._sn_service.mark_recovered(host)

    # latency ----------------------------------------------------------------
    def _apply_latency(self, fault, now_s: float):
        target = self._window_target(fault)
        if target is _SKIP:
            return None
        entry = (target, fault.extra_s)
        self._latency.append(entry)
        return entry

    def _clear_latency(self, fault, entry, now_s: float) -> None:
        self._latency.remove(entry)

    # loss -------------------------------------------------------------------
    def _apply_loss(self, fault, now_s: float):
        target = self._window_target(fault)
        if target is _SKIP:
            return None
        entry = (target, fault.loss_fraction)
        self._loss.append(entry)
        return entry

    def _clear_loss(self, fault, entry, now_s: float) -> None:
        self._loss.remove(entry)

    # throttle ---------------------------------------------------------------
    def _apply_throttle(self, fault, now_s: float):
        target = self._window_target(fault)
        if target is _SKIP:
            return None
        if target is None:
            servers = list(self._session._servers.values())
        else:
            servers = [self._session._servers[target]]
        tokens = []
        for server in servers:
            orig = degrade_rate(server, fault.factor)
            buf_orig = None
            if hasattr(server.buffer, "uplink_rate_bps"):
                buf_orig = degrade_rate(server.buffer, fault.factor)
            tokens.append((server, orig, buf_orig))
        return tokens

    def _clear_throttle(self, fault, tokens, now_s: float) -> None:
        for server, orig, buf_orig in tokens:
            restore_rate(server, orig)
            if buf_orig is not None:
                restore_rate(server.buffer, buf_orig)

    # partition --------------------------------------------------------------
    def _apply_partition(self, fault, now_s: float):
        live = self._live_supernodes()
        if not live:
            return None
        k = max(1, math.ceil(fault.fraction * len(live)))
        hosts = tuple(int(s.host_id) for s in live[:k])
        self._partitioned.update(hosts)
        return hosts

    def _clear_partition(self, fault, hosts, now_s: float) -> None:
        self._partitioned.difference_update(hosts)

    # -- helpers -------------------------------------------------------------
    def _window_target(self, fault):
        """Windowed-fault target: host id, None (= all), or _SKIP."""
        if (getattr(fault, "host_id", None) is None
                and getattr(fault, "supernode", None) is None):
            return None
        target = self._resolve_target(fault)
        return _SKIP if target is None else target


class _Skip:
    """Sentinel distinguishing 'all servers' (None) from 'no target'."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover
        return "<skip>"


_SKIP = _Skip()
