"""Packets and video segments — the units of streamed game video.

A :class:`VideoSegment` is the encoder's output unit (a fixed playback
duration of video at some quality level); it is carried as a train of
fixed-size :class:`Packet`\\ s. The deadline-driven scheduler drops
*packets* from segments, so a segment tracks how many of its packets have
been dropped and whether it still satisfies its game's packet-loss
tolerance.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

#: Size of one network packet payload in bytes (a typical MTU payload).
PACKET_PAYLOAD_BYTES = 1400

_segment_ids = itertools.count()


@dataclass(slots=True)
class Packet:
    """One network packet of a video segment."""

    segment_id: int
    index: int
    size_bytes: int
    sent_at_s: Optional[float] = None
    arrived_at_s: Optional[float] = None

    @property
    def in_flight(self) -> bool:
        return self.sent_at_s is not None and self.arrived_at_s is None


@dataclass(slots=True)
class VideoSegment:
    """A unit of encoded game video for one player.

    Parameters
    ----------
    player_id:
        Destination player.
    quality_level:
        Quality ladder level (1..5) the segment was encoded at.
    size_bytes:
        Encoded size (bitrate x duration / 8).
    duration_s:
        Playback duration covered by the segment.
    action_time_s:
        ``t_m`` — when the player made the action this video answers.
        Used for the *reported* response latency (Figure 8).
    latency_req_s:
        ``L̃_r`` — the game's latency requirement, budgeting the video
        delivery pipeline: the deadline is anchored at ``state_ready_s``
        (when the serving site held the game state for this segment),
        because that is the part of the response the streaming system
        controls — "the uploading from the players to the cloud does not
        seriously affect the response latency, and downstream latency is
        an important factor for QoE" (paper §III-A).
    loss_tolerance:
        ``L̃_t`` — fraction of packets the game tolerates losing.
    state_ready_s:
        When the serving site received the state update and could start
        rendering; defaults to ``action_time_s`` when not given.
    """

    player_id: int
    quality_level: int
    size_bytes: int
    duration_s: float
    action_time_s: float
    latency_req_s: float
    loss_tolerance: float
    state_ready_s: Optional[float] = None
    segment_id: int = field(default_factory=lambda: next(_segment_ids))
    created_at_s: float = 0.0
    enqueued_at_s: float = 0.0
    dropped_packets: int = 0
    #: Number of packets the segment is carried in, fixed by its size.
    total_packets: int = field(init=False)

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ValueError("segment size must be positive")
        if not 0.0 <= self.loss_tolerance <= 1.0:
            raise ValueError("loss tolerance must be in [0, 1]")
        self.total_packets = max(
            1, -(-self.size_bytes // PACKET_PAYLOAD_BYTES))

    @property
    def remaining_packets(self) -> int:
        """Packets not yet dropped."""
        return self.total_packets - self.dropped_packets

    @property
    def remaining_bytes(self) -> int:
        """Bytes still to transmit after drops."""
        full = self.total_packets
        if full == 1:
            return 0 if self.dropped_packets else self.size_bytes
        per_packet = self.size_bytes / full
        return int(round(per_packet * self.remaining_packets))

    @property
    def anchor_s(self) -> float:
        """Deadline anchor: state-ready time, or the action time."""
        return (self.state_ready_s if self.state_ready_s is not None
                else self.action_time_s)

    @property
    def deadline_s(self) -> float:
        """Expected arrival time ``t_a = anchor + L̃_r`` (paper §III-C)."""
        return self.anchor_s + self.latency_req_s

    @property
    def max_droppable(self) -> int:
        """Most packets droppable while respecting loss tolerance."""
        allowed = int(self.loss_tolerance * self.total_packets)
        return max(0, allowed - self.dropped_packets)

    def drop(self, n_packets: int) -> int:
        """Drop up to ``n_packets`` (bounded by loss tolerance).

        Returns the number actually dropped.
        """
        if n_packets < 0:
            raise ValueError("cannot drop a negative number of packets")
        dropped = min(n_packets, self.max_droppable)
        self.dropped_packets += dropped
        return dropped

    def drop_all(self) -> int:
        """Expire the whole segment (bypasses the loss tolerance).

        Used when the segment can no longer meet its deadline at all:
        transmitting it would waste uplink without helping its player.
        Returns the number of packets newly dropped.
        """
        newly = self.remaining_packets
        self.dropped_packets = self.total_packets
        return newly

    @property
    def loss_fraction(self) -> float:
        """Fraction of the segment's packets dropped so far."""
        return self.dropped_packets / self.total_packets

    def meets_loss_tolerance(self) -> bool:
        """True while the dropped fraction is within the game's tolerance."""
        return self.loss_fraction <= self.loss_tolerance + 1e-12
