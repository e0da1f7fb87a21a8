"""Receiver-side playback buffer and QoE accounting.

The paper's two receiver-visible metrics both live here:

* **playback continuity** — "the proportion of packets arrived within the
  required response latency over all packets in a game video" (§IV);
* **satisfied player** — a player that receives ≥95 % of its game packets
  within the game's response latency (§IV).

The buffer also supplies the measurements the receiver-driven rate
adaptation consumes: the buffered-video size ``s(t_k)`` and segment count
``r`` of Eqs. 7–8.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.network.packet import VideoSegment

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs import Observability

#: Fraction of packets that must arrive within the latency requirement for
#: a player to count as satisfied (paper §IV).
SATISFACTION_THRESHOLD = 0.95


@dataclass(slots=True)
class PlaybackStats:
    """Per-player packet-level QoE counters."""

    packets_expected: int = 0
    packets_on_time: int = 0
    packets_late: int = 0
    packets_dropped: int = 0
    segments_received: int = 0
    bytes_received: float = 0.0
    latency_sum_s: float = 0.0
    latency_count: int = 0

    @property
    def continuity(self) -> float:
        """Fraction of all packets that arrived within their deadline."""
        if self.packets_expected == 0:
            return 1.0
        return self.packets_on_time / self.packets_expected

    @property
    def mean_latency_s(self) -> float:
        """Mean per-segment response latency over received segments."""
        if self.latency_count == 0:
            return 0.0
        return self.latency_sum_s / self.latency_count

    @property
    def loss_fraction(self) -> float:
        """Fraction of expected packets dropped (never delivered)."""
        if self.packets_expected == 0:
            return 0.0
        return self.packets_dropped / self.packets_expected

    @property
    def on_time_fraction_of_received(self) -> float:
        """Fraction of *delivered* packets that met their deadline."""
        received = self.packets_expected - self.packets_dropped
        if received <= 0:
            return 0.0
        return self.packets_on_time / received

    def is_satisfied(
        self,
        threshold: float = SATISFACTION_THRESHOLD,
        loss_tolerance: float | None = None,
    ) -> bool:
        """Paper's satisfied-player predicate.

        "QoE is determined by packet loss rate and response delay" (§IV):
        a player is satisfied when its packet loss stays within its
        game's tolerance *and* ≥95 % of the packets it receives arrive
        within the game's response latency. With ``loss_tolerance=None``
        dropped packets count against the 95 % directly (the strict
        reading, used when the game is unknown).
        """
        if loss_tolerance is None:
            return self.continuity >= threshold
        if self.loss_fraction > loss_tolerance + 1e-12:
            return False
        return self.on_time_fraction_of_received >= threshold


@dataclass(slots=True)
class _BufferedSegment:
    segment: VideoSegment
    arrived_at_s: float


@dataclass
class PlaybackBuffer:
    """A player's receive buffer, drained continuously during playback.

    The buffer holds seconds of video; playback consumes it in real time
    (playback rate equals wall-clock rate once started). ``r`` — the
    number of buffered segments, Eq. 8 — is buffered video time divided by
    the segment duration.

    Parameters
    ----------
    segment_duration_s:
        τ of Eq. 8.
    """

    segment_duration_s: float
    stats: PlaybackStats = field(default_factory=PlaybackStats)
    obs: "Optional[Observability]" = None
    component: str = "playback"
    _buffered_video_s: float = 0.0
    _last_drain_s: float = 0.0
    _playing: bool = False
    stall_time_s: float = 0.0
    stall_count: int = 0

    def __post_init__(self) -> None:
        # Response-latency distribution, exported through the run's
        # metrics registry when observability is attached.
        obs = self.obs
        self._hist_latency = (
            obs.metrics.histogram("playback.response_latency_s")
            if obs is not None else None)
        self._emit = obs.emit if obs is not None and obs.listening else None

    def on_segment_arrival(self, segment: VideoSegment, now_s: float) -> None:
        """Account an arriving segment and add its video to the buffer.

        On-time/late/dropped packet counters update against the segment's
        deadline; dropped packets (removed by the sender) count against
        continuity exactly like lost packets.
        """
        self._drain(now_s)
        total = segment.total_packets
        arrived = segment.remaining_packets
        on_time = arrived if now_s <= segment.deadline_s + 1e-12 else 0
        late = arrived - on_time
        latency_s = max(0.0, now_s - segment.action_time_s)
        st = self.stats
        st.packets_expected += total
        st.packets_on_time += on_time
        st.packets_late += late
        st.packets_dropped += segment.dropped_packets
        st.segments_received += 1
        st.bytes_received += segment.remaining_bytes
        st.latency_sum_s += latency_s
        st.latency_count += 1

        # Only the arrived fraction of the segment is playable video.
        playable = segment.duration_s * (arrived / total) if total else 0.0
        self._buffered_video_s += playable
        if not self._playing and self._buffered_video_s > 0:
            self._playing = True
            self._last_drain_s = now_s
        if self._hist_latency is not None:
            self._hist_latency.observe(latency_s)
        if self._emit is not None:
            self._emit(
                now_s, self.component, "playback.arrival",
                buffered_s=self._buffered_video_s, on_time=bool(on_time),
                packets=arrived, latency_s=latency_s)

    def on_segment_lost(self, segment: VideoSegment,
                        now_s: Optional[float] = None) -> None:
        """Account a segment that will never arrive (whole segment lost)."""
        self.stats.packets_expected += segment.total_packets
        self.stats.packets_dropped += segment.total_packets
        if self._emit is not None:
            self._emit(
                now_s if now_s is not None else self._last_drain_s,
                self.component, "playback.lost",
                packets=segment.total_packets)

    def _drain(self, now_s: float) -> None:
        """Advance playback to ``now_s``, consuming buffered video."""
        if not self._playing:
            self._last_drain_s = now_s
            return
        elapsed = now_s - self._last_drain_s
        if elapsed <= 0:
            return
        if elapsed > self._buffered_video_s:
            stall = elapsed - self._buffered_video_s
            if self._buffered_video_s > 0 or stall > 0:
                self.stall_time_s += stall
                if self._buffered_video_s > 0:
                    self.stall_count += 1
                if self._emit is not None:
                    self._emit(now_s, self.component, "playback.stall",
                               stall_s=stall)
            self._buffered_video_s = 0.0
        else:
            self._buffered_video_s -= elapsed
        self._last_drain_s = now_s

    def buffered_video_s(self, now_s: float) -> float:
        """s(t_k): seconds of video currently buffered (Eq. 7)."""
        self._drain(now_s)
        return self._buffered_video_s

    def buffered_segments(self, now_s: float) -> float:
        """r: buffered video measured in segments (Eq. 8)."""
        return self.buffered_video_s(now_s) / self.segment_duration_s
