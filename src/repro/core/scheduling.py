"""Deadline-driven sender buffer scheduling (paper §III-C).

The supernode keeps a single queuing buffer of outgoing segments, ordered
by expected arrival time ``t_a = t_m + L̃_r`` — earliest deadline first.
When a new segment is enqueued, the supernode estimates each queued
segment's response latency

    L_r = l_r + l_s + l_q + l_t + l_p                          (Eq. 12)

with ``l_q = np_i/λ_r`` (preceding bytes over uplink rate), ``l_t =
s_i/λ_r`` and ``l_p`` the average propagation of recently sent packets to
that player (Eq. 13). If ``L_r > L̃_r`` the supernode drops

    D_i = (L_r − L̃_r)/σ                                        packets

from the segment and its predecessors, apportioned by loss tolerance and
an exponential decay factor ``φ_k = e^{−λ t_k}`` of queue waiting time:

    d_k = (L̃_{t_k}·φ_k / Σ_j L̃_{t_j}·φ_j) · D_i                (Eq. 14)

The decay factor shields segments that already waited long (and likely
already gave up packets) from repeated dropping.
"""

from __future__ import annotations

import bisect
import itertools
import math
from collections import deque
from dataclasses import dataclass, field
from itertools import islice
from typing import TYPE_CHECKING, Optional

from repro.network.packet import PACKET_PAYLOAD_BYTES, VideoSegment
from repro.obs.metrics import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs import Observability


@dataclass(frozen=True, slots=True)
class SchedulingParams:
    """Tuning constants of the deadline-driven scheduler."""

    #: λ — decay rate of the exponential decay factor (paper default 1).
    decay_rate: float = 1.0
    #: σ override — seconds of latency recovered per dropped packet.
    #: None derives it from the uplink rate (one packet's serialization).
    sigma_s: float | None = None
    #: Window (packets) of the per-player propagation estimator (Eq. 13).
    propagation_window: int = 10
    #: Drop-apportioning rule (ablation switch):
    #: ``"tolerance_decay"`` — the paper's Eq. 14 weights L̃_t × φ;
    #: ``"tolerance"``       — loss tolerance only (λ = 0 equivalent);
    #: ``"uniform"``         — equal weights regardless of game.
    drop_weighting: str = "tolerance_decay"
    #: Ablation switch: disable packet dropping entirely (pure EDF
    #: reordering; expiry of hopeless segments still applies).
    enable_dropping: bool = True
    #: Upper bound on the Eq. 14 chain length: drops are apportioned over
    #: at most this many predecessors nearest the trigger segment. Bounds
    #: the per-enqueue work to O(max_drop_chain) under pathological
    #: backlog; real queues stay far shorter (expiry sheds dead weight).
    max_drop_chain: int = 64

    def __post_init__(self) -> None:
        if self.decay_rate < 0:
            raise ValueError("decay rate must be nonnegative")
        if self.sigma_s is not None and self.sigma_s <= 0:
            raise ValueError("sigma must be positive")
        if self.propagation_window < 1:
            raise ValueError("propagation window must be at least 1")
        if self.drop_weighting not in (
                "tolerance_decay", "tolerance", "uniform"):
            raise ValueError(
                f"unknown drop weighting {self.drop_weighting!r}")
        if self.max_drop_chain < 1:
            raise ValueError("max_drop_chain must be at least 1")


class PropagationEstimator:
    """Per-player moving average of observed propagation delays (Eq. 13)."""

    def __init__(self, window: int = 10):
        if window < 1:
            raise ValueError("window must be at least 1")
        self.window = window
        self._samples: dict[int, deque[float]] = {}

    def record(self, player_id: int, propagation_s: float) -> None:
        """Record one observed packet propagation delay."""
        samples = self._samples.get(player_id)
        if samples is None:
            samples = self._samples[player_id] = deque(maxlen=self.window)
        samples.append(propagation_s)

    def estimate(self, player_id: int, default_s: float = 0.0) -> float:
        """l_p estimate for a player (``default_s`` before any sample)."""
        samples = self._samples.get(player_id)
        if not samples:
            return default_s
        return sum(samples) / len(samples)


@dataclass(order=True)
class _QueueEntry:
    deadline_s: float
    seq: int
    segment: VideoSegment = field(compare=False)
    dropped_whole: bool = field(default=False, compare=False)


class DeadlineSenderBuffer:
    """EDF sender queue with tolerance-weighted packet dropping.

    Parameters
    ----------
    uplink_rate_bps:
        λ_r — the supernode's upload rate, used for the l_q and l_t
        estimates.
    render_delay_s:
        l_s — the supernode's rendering time (known).
    params:
        Scheduler constants.
    """

    #: Compact the consumed list prefix once it reaches this length *and*
    #: outweighs the live tail (amortized O(1) per dequeue).
    _COMPACT_THRESHOLD = 64

    def __init__(
        self,
        uplink_rate_bps: float,
        render_delay_s: float = 0.0,
        params: SchedulingParams | None = None,
        obs: "Observability | None" = None,
        component: str = "sched",
    ):
        if uplink_rate_bps <= 0:
            raise ValueError("uplink rate must be positive")
        self.params = params or SchedulingParams()
        self.uplink_rate_bps = uplink_rate_bps
        self.render_delay_s = render_delay_s
        self.propagation = PropagationEstimator(self.params.propagation_window)
        # Kept sorted by (deadline, seq) via bisect: the queue is read
        # in order on every enqueue (Eq. 12's l_q and the Eq. 14 chain),
        # so a sorted list beats a heap that would need re-sorting.
        # Consumed entries stay before ``_head`` until compaction, so
        # dequeue is O(1) instead of ``list.pop(0)``'s O(n).
        self._queue: list[_QueueEntry] = []
        self._head = 0
        self._seq = itertools.count()
        self._emit = obs.emit if obs is not None and obs.listening else None
        self.component = component
        registry = obs.metrics if obs is not None else MetricsRegistry()
        self._c_enqueued = registry.counter("sender.segments_enqueued")
        self._c_dequeued = registry.counter("sender.segments_dequeued")
        self._c_packets_dropped = registry.counter("sender.packets_dropped")
        self._c_segments_fully_dropped = registry.counter(
            "sender.segments_fully_dropped")
        self._g_queue_len = registry.gauge("sender.queue_len")
        # Packet-conservation ledger (the invariant the
        # PacketConservationChecker audits): packets that entered at
        # enqueue == packets handed out at dequeue + packets dropped
        # + packets still pending.
        self._p_in = 0
        self._p_out = 0
        self._p_pend = 0
        # Latest clock value observed through enqueue/dequeue, used to
        # timestamp trace events when the caller omits ``now_s``.
        self._last_now = 0.0

    # -- legacy counter views ------------------------------------------------
    @property
    def enqueued(self) -> int:
        """Segments accepted into the buffer (metrics-registry backed)."""
        return self._c_enqueued.value

    @property
    def dequeued(self) -> int:
        """Segments handed to the sender (metrics-registry backed)."""
        return self._c_dequeued.value

    @property
    def packets_dropped(self) -> int:
        """Packets dropped by Eq. 14 rebalancing and expiry."""
        return self._c_packets_dropped.value

    @property
    def segments_fully_dropped(self) -> int:
        """Segments reduced to zero packets (expired or fully dropped)."""
        return self._c_segments_fully_dropped.value

    def _live_entries(self):
        return islice(self._queue, self._head, None)

    def __len__(self) -> int:
        return sum(1 for e in self._live_entries() if not e.dropped_whole)

    @property
    def sigma_s(self) -> float:
        """σ — latency recovered by dropping one packet from the queue."""
        if self.params.sigma_s is not None:
            return self.params.sigma_s
        return 8.0 * PACKET_PAYLOAD_BYTES / self.uplink_rate_bps

    @property
    def backlog_bytes(self) -> float:
        """Bytes awaiting transmission."""
        return float(sum(
            e.segment.remaining_bytes for e in self._live_entries()
            if not e.dropped_whole))

    # -- queue discipline ---------------------------------------------------
    def enqueue(self, segment: VideoSegment, now_s: float) -> None:
        """Insert ``segment`` in deadline order and rebalance by dropping.

        Runs the §III-C estimate-and-drop pass for the new segment (the
        paper: "after a segment is put in the buffer, the supernode
        estimates the arrival times of this segment and its succeeding
        segments" — with EDF ordering, a new segment only delays segments
        *behind* it, and is itself delayed by those ahead; the pass below
        checks the new segment against its predecessors).
        """
        segment.enqueued_at_s = now_s
        self._last_now = now_s
        entry = _QueueEntry(segment.deadline_s, next(self._seq), segment)
        bisect.insort(self._queue, entry, lo=self._head)
        self._c_enqueued.inc()
        packets = segment.remaining_packets
        self._p_in += packets
        self._p_pend += packets
        self._g_queue_len.set(len(self._queue) - self._head)
        if self._emit is not None:
            self._emit(
                now_s, self.component, "buffer.enqueue",
                disc="edf", player=segment.player_id,
                deadline=segment.deadline_s, packets=packets,
                qlen=len(self._queue) - self._head,
                p_in=self._p_in, p_out=self._p_out,
                p_drop=self._c_packets_dropped.value, p_pend=self._p_pend)
        self._rebalance(entry, now_s)

    def dequeue(self, now_s: Optional[float] = None, *,
                expire: Optional[bool] = None) -> Optional[VideoSegment]:
        """Pop the earliest-deadline segment, expiring hopeless ones.

        With ``now_s`` given, a segment whose estimated delivery
        (``now + l_t + l_p``) already exceeds its deadline is *expired* —
        all its packets dropped — before being returned: transmitting
        video that arrives after its response deadline wastes uplink that
        on-time segments need. Fully-dropped segments
        (``remaining_packets == 0``) are still returned so the caller can
        account them as lost to the player's QoE stats.

        ``expire=False`` takes the clock (for trace timestamps) without
        the expiry pass — for callers that run their own route-aware
        expiry (see :meth:`note_expired`). Default: expire iff ``now_s``
        is given.
        """
        if expire is None:
            expire = now_s is not None
        if self._head >= len(self._queue):
            return None
        entry = self._queue[self._head]
        self._head += 1
        if (self._head >= self._COMPACT_THRESHOLD
                and self._head * 2 >= len(self._queue)):
            del self._queue[:self._head]
            self._head = 0
        self._c_dequeued.inc()
        if now_s is not None:
            self._last_now = now_s
        segment = entry.segment
        self._p_pend -= segment.remaining_packets
        expired = 0
        if expire and now_s is not None and segment.remaining_packets > 0:
            l_t = 8.0 * segment.remaining_bytes / self.uplink_rate_bps
            l_p = self.propagation.estimate(segment.player_id)
            if now_s + l_t + l_p > segment.deadline_s + 1e-12:
                expired = segment.drop_all()
                self._c_packets_dropped.inc(expired)
                self._c_segments_fully_dropped.inc()
        self._p_out += segment.remaining_packets
        self._g_queue_len.set(len(self._queue) - self._head)
        if self._emit is not None:
            self._emit(
                self._last_now, self.component, "buffer.dequeue",
                disc="edf", player=segment.player_id,
                deadline=entry.deadline_s,
                packets=segment.remaining_packets, expired=expired,
                qlen=len(self._queue) - self._head,
                p_in=self._p_in, p_out=self._p_out,
                p_drop=self._c_packets_dropped.value, p_pend=self._p_pend)
        return segment

    def peek(self) -> Optional[VideoSegment]:
        """Earliest-deadline live segment, without removing it."""
        for entry in self._live_entries():
            if not entry.dropped_whole:
                return entry.segment
        return None

    def iter_pending(self):
        """Queued segments in send (deadline) order."""
        return (e.segment for e in self._live_entries()
                if not e.dropped_whole)

    def note_expired(self, segment: VideoSegment, n_packets: int,
                     now_s: float | None = None) -> None:
        """Account packets a caller expired *after* dequeueing.

        The server expires hopeless segments post-dequeue (it knows the
        full route); this moves those packets from the delivered to the
        dropped column so the conservation ledger and the public counters
        stay truthful.
        """
        if n_packets <= 0:
            return
        if now_s is not None:
            self._last_now = now_s
        self._c_packets_dropped.inc(n_packets)
        self._c_segments_fully_dropped.inc()
        self._p_out -= n_packets
        if self._emit is not None:
            self._emit(
                self._last_now, self.component, "buffer.drop",
                disc="edf", reason="post_dequeue", packets=n_packets,
                player=segment.player_id,
                p_in=self._p_in, p_out=self._p_out,
                p_drop=self._c_packets_dropped.value, p_pend=self._p_pend)

    def flush(self, now_s: float) -> int:
        """Drop every queued segment (the serving host crashed).

        Live packets move from pending to dropped in one step; already
        fully-dropped entries are simply discarded. One ``buffer.flush``
        event carries the updated conservation ledger — the EDF-order
        checker treats it as a queue reset, so post-recovery dequeues
        are not compared against deadlines that died in the crash.
        Returns the number of live segments lost.
        """
        self._last_now = now_s
        lost = 0
        dropped_packets = 0
        had_entries = self._head < len(self._queue)
        for entry in self._live_entries():
            if entry.dropped_whole:
                continue
            dropped_packets += entry.segment.drop_all()
            entry.dropped_whole = True
            lost += 1
        self._queue.clear()
        self._head = 0
        if lost:
            self._c_packets_dropped.inc(dropped_packets)
            self._c_segments_fully_dropped.inc(lost)
            self._p_pend -= dropped_packets
        self._g_queue_len.set(0)
        if self._emit is not None and had_entries:
            self._emit(
                now_s, self.component, "buffer.flush",
                disc="edf", segments=lost, packets=dropped_packets,
                qlen=0, p_in=self._p_in, p_out=self._p_out,
                p_drop=self._c_packets_dropped.value, p_pend=self._p_pend)
        return lost

    def preceding_bytes(self, segment: VideoSegment) -> float:
        """np_i — bytes of segments ahead of ``segment`` in send order."""
        total = 0.0
        for seg in self.iter_pending():
            if seg is segment:
                return total
            total += seg.remaining_bytes
        raise ValueError("segment is not in the buffer")

    # -- latency estimation (Eq. 12) ------------------------------------------
    def estimate_response_latency_s(
        self, segment: VideoSegment, now_s: float
    ) -> float:
        """L_r of Eq. 12 for a queued segment.

        l_r (action to update received) is reconstructed from the
        segment's own timeline: creation time − action time, plus the
        render delay already incurred.
        """
        l_r = max(0.0, segment.created_at_s - segment.action_time_s)
        l_s = self.render_delay_s
        l_q = self.preceding_bytes(segment) * 8.0 / self.uplink_rate_bps
        l_t = segment.remaining_bytes * 8.0 / self.uplink_rate_bps
        l_p = self.propagation.estimate(segment.player_id)
        waited = max(0.0, now_s - segment.enqueued_at_s)
        return l_r + l_s + waited + l_q + l_t + l_p

    def estimated_arrival_s(self, segment: VideoSegment, now_s: float) -> float:
        """Predicted arrival timestamp of ``segment``."""
        l_q = self.preceding_bytes(segment) * 8.0 / self.uplink_rate_bps
        l_t = segment.remaining_bytes * 8.0 / self.uplink_rate_bps
        l_p = self.propagation.estimate(segment.player_id)
        return now_s + l_q + l_t + l_p

    # -- dropping (Eq. 14) -----------------------------------------------------
    def _rebalance(self, entry: _QueueEntry, now_s: float) -> None:
        """Drop packets so the new segment can meet its deadline.

        Dropping exists "in order to meet latency requirement" (§III-C);
        when even the maximum tolerable drop across the whole chain
        cannot save the new segment, sacrificing its predecessors'
        packets buys nothing — the hopeless segment is expired instead.
        """
        segment = entry.segment
        if not self.params.enable_dropping:
            return
        overshoot = (self.estimated_arrival_s(segment, now_s)
                     - segment.deadline_s)
        if overshoot <= 0:
            return
        needed = math.ceil(overshoot / self.sigma_s)
        self._drop_packets(segment, needed, now_s)

    def _drop_packets(
        self, trigger: VideoSegment, n_packets: int, now_s: float
    ) -> int:
        """Apportion ``n_packets`` drops over the trigger's predecessors.

        Weights are ``L̃_t_k × φ_k`` (Eq. 14) over the trigger segment and
        everything ahead of it. Each segment's share is bounded by its
        loss tolerance; leftover need is re-apportioned over segments with
        remaining headroom so the total drop lands as close to ``D_i`` as
        tolerances permit.
        """
        chain: list[VideoSegment] = []
        for seg in self.iter_pending():
            chain.append(seg)
            if seg is trigger:
                break
        # Bound the apportioning work: keep the trigger plus its nearest
        # predecessors (the ones whose drops it needs most urgently).
        limit = self.params.max_drop_chain
        if len(chain) > limit:
            chain = chain[-limit:]
        total_dropped = 0
        remaining = n_packets
        # Iterative apportioning: 2 passes usually saturate.
        for _ in range(4):
            if remaining <= 0:
                break
            weights = []
            for seg in chain:
                if seg.max_droppable <= 0:
                    weights.append(0.0)
                    continue
                mode = self.params.drop_weighting
                if mode == "uniform":
                    weights.append(1.0)
                elif mode == "tolerance":
                    weights.append(seg.loss_tolerance)
                else:  # the paper's Eq. 14: L̃_t × φ, φ = e^{-λt}
                    waited = max(0.0, now_s - seg.enqueued_at_s)
                    phi = math.exp(-self.params.decay_rate * waited)
                    weights.append(seg.loss_tolerance * phi)
            weight_sum = sum(weights)
            if weight_sum <= 0:
                break
            progressed = False
            for seg, w in zip(chain, weights):
                if w <= 0:
                    continue
                share = math.ceil(remaining * w / weight_sum)
                dropped = seg.drop(min(share, remaining))
                if dropped:
                    progressed = True
                    total_dropped += dropped
                    remaining -= dropped
                    if remaining <= 0:
                        break
            if not progressed:
                break
        self._c_packets_dropped.inc(total_dropped)
        self._p_pend -= total_dropped
        if total_dropped and self._emit is not None:
            self._emit(
                now_s, self.component, "buffer.drop",
                disc="edf", reason="rebalance", packets=total_dropped,
                player=trigger.player_id,
                p_in=self._p_in, p_out=self._p_out,
                p_drop=self._c_packets_dropped.value, p_pend=self._p_pend)
        # Segments reduced to nothing will never reach the player.
        for seg in chain:
            if seg.remaining_packets == 0:
                self._mark_whole_drop(seg)
        return total_dropped

    def _mark_whole_drop(self, segment: VideoSegment) -> None:
        for entry in self._live_entries():
            if entry.segment is segment and not entry.dropped_whole:
                entry.dropped_whole = True
                self._c_segments_fully_dropped.inc()
                return
