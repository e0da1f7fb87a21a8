"""FIFO sender buffer — the baseline the deadline-driven scheduler replaces.

Each supernode has a single queuing buffer for outgoing video segments
(paper §III-C, citing Kanakia et al.). The baseline drains it in arrival
order with no dropping; segments simply go out as fast as the uplink
serializes them, however late that makes them.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Optional

from repro.network.packet import VideoSegment
from repro.obs.metrics import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs import Observability


class FifoSenderBuffer:
    """Arrival-order sender queue with no deadline awareness.

    The buffer only *orders* segments; actual serialization timing is the
    uplink's job. This split lets the deadline scheduler subclass swap the
    queue discipline without touching transmission mechanics.
    """

    def __init__(self, obs: "Observability | None" = None,
                 component: str = "fifo") -> None:
        self._queue: deque[VideoSegment] = deque()
        self._emit = obs.emit if obs is not None and obs.listening else None
        self.component = component
        registry = obs.metrics if obs is not None else MetricsRegistry()
        self._c_enqueued = registry.counter("sender.segments_enqueued")
        self._c_dequeued = registry.counter("sender.segments_dequeued")
        self._g_queue_len = registry.gauge("sender.queue_len")
        # Packet-conservation ledger (audited by the invariant checkers).
        self._p_in = 0
        self._p_out = 0
        self._p_drop = 0
        self._p_pend = 0
        self._last_now = 0.0

    @property
    def enqueued(self) -> int:
        """Segments accepted into the queue (metrics-registry backed)."""
        return self._c_enqueued.value

    @property
    def dequeued(self) -> int:
        """Segments handed to the sender (metrics-registry backed)."""
        return self._c_dequeued.value

    def __len__(self) -> int:
        return len(self._queue)

    @property
    def backlog_bytes(self) -> float:
        """Bytes awaiting transmission."""
        return float(sum(seg.remaining_bytes for seg in self._queue))

    def enqueue(self, segment: VideoSegment, now_s: float) -> None:
        """Add ``segment`` to the tail of the queue."""
        segment.enqueued_at_s = now_s
        self._last_now = now_s
        self._queue.append(segment)
        self._c_enqueued.inc()
        packets = segment.remaining_packets
        self._p_in += packets
        self._p_pend += packets
        self._g_queue_len.set(len(self._queue))
        if self._emit is not None:
            self._emit(
                now_s, self.component, "buffer.enqueue",
                disc="fifo", player=segment.player_id,
                deadline=segment.deadline_s, packets=packets,
                qlen=len(self._queue),
                p_in=self._p_in, p_out=self._p_out, p_drop=self._p_drop,
                p_pend=self._p_pend)

    def dequeue(self, now_s: Optional[float] = None, *,
                expire: Optional[bool] = None) -> Optional[VideoSegment]:
        """Remove and return the next segment to send (None if empty).

        ``now_s`` and ``expire`` are accepted for interface compatibility
        with the deadline-driven buffer; the FIFO baseline sends
        everything in order, however late.
        """
        if not self._queue:
            return None
        if now_s is not None:
            self._last_now = now_s
        segment = self._queue.popleft()
        self._c_dequeued.inc()
        packets = segment.remaining_packets
        self._p_pend -= packets
        self._p_out += packets
        self._g_queue_len.set(len(self._queue))
        if self._emit is not None:
            self._emit(
                self._last_now, self.component, "buffer.dequeue",
                disc="fifo", player=segment.player_id,
                deadline=segment.deadline_s, packets=packets,
                qlen=len(self._queue),
                p_in=self._p_in, p_out=self._p_out, p_drop=self._p_drop,
                p_pend=self._p_pend)
        return segment

    def flush(self, now_s: float) -> int:
        """Drop every queued segment (the serving host crashed).

        Pending packets move to the dropped column in one step, and a
        single ``buffer.flush`` event carries the updated conservation
        ledger. Returns the number of segments lost.
        """
        self._last_now = now_s
        lost = 0
        dropped_packets = 0
        while self._queue:
            segment = self._queue.popleft()
            dropped_packets += segment.drop_all()
            lost += 1
        self._p_pend -= dropped_packets
        self._p_drop += dropped_packets
        self._g_queue_len.set(0)
        if self._emit is not None and lost:
            self._emit(
                now_s, self.component, "buffer.flush",
                disc="fifo", segments=lost, packets=dropped_packets,
                qlen=0, p_in=self._p_in, p_out=self._p_out,
                p_drop=self._p_drop, p_pend=self._p_pend)
        return lost

    def peek(self) -> Optional[VideoSegment]:
        """Next segment to send without removing it."""
        return self._queue[0] if self._queue else None

    def iter_pending(self):
        """Iterate queued segments in send order (mutation-unsafe)."""
        return iter(self._queue)

    def preceding_bytes(self, segment: VideoSegment) -> float:
        """np_i: bytes of segments ahead of ``segment`` in the queue."""
        total = 0.0
        for seg in self._queue:
            if seg is segment:
                return total
            total += seg.remaining_bytes
        raise ValueError("segment is not in the buffer")
