"""The literal Eq. 7/8 buffered-size estimator.

The paper's receiver estimates its buffered video *indirectly*:

    s(t_k) = s(t_{k-1}) + (t_k − t_{k-1}) · (d(t_k) − b_p(t_k))   (Eq. 7)
    r      = s(t_k) / τ                                            (Eq. 8)

with ``d`` the measured downloading rate and ``b_p`` the playback rate.
The reproduction's :class:`~repro.streaming.playback.PlaybackBuffer`
tracks the buffer directly (ground truth); this estimator implements the
paper's incremental form from the caller's measured ``d(t_k)``, and the
test suite checks the two agree — i.e. that Eq. 7 is a faithful
estimate of the state it approximates.
"""

from __future__ import annotations

from repro.streaming.video import SEGMENT_DURATION_S


class Eq7Estimator:
    """Incremental buffered-video estimator (paper Eqs. 7-8).

    Parameters
    ----------
    playback_rate_bps:
        ``b_p`` — the bit rate at which buffered video drains during
        playback (the current encoding bitrate: one second of buffered
        video holds one second of encoded bits).
    segment_duration_s:
        τ of Eq. 8.
    """

    def __init__(
        self,
        playback_rate_bps: float,
        segment_duration_s: float = SEGMENT_DURATION_S,
    ):
        if playback_rate_bps <= 0:
            raise ValueError("playback rate must be positive")
        if segment_duration_s <= 0:
            raise ValueError("segment duration must be positive")
        self.playback_rate_bps = playback_rate_bps
        self.segment_duration_s = segment_duration_s
        #: s(t) in *bits* of buffered encoded video.
        self._buffered_bits = 0.0
        self._last_update_s: float | None = None
        self._playing = False

    @property
    def buffered_video_s(self) -> float:
        """Estimated seconds of buffered video."""
        return self._buffered_bits / self.playback_rate_bps

    @property
    def buffered_segments(self) -> float:
        """r of Eq. 8."""
        return self.buffered_video_s / self.segment_duration_s

    def set_playback_rate(self, playback_rate_bps: float) -> None:
        """Track an encoder level change (τ stays; b_p moves)."""
        if playback_rate_bps <= 0:
            raise ValueError("playback rate must be positive")
        # Convert buffered bits across the rate change so buffered
        # *seconds* are preserved (the video already buffered plays at
        # its own encoded rate; this is the standard approximation).
        seconds = self.buffered_video_s
        self.playback_rate_bps = playback_rate_bps
        self._buffered_bits = seconds * playback_rate_bps

    def update(self, now_s: float, download_rate_bps: float) -> float:
        """Apply Eq. 7 for the interval since the last update.

        Parameters
        ----------
        now_s:
            t_k.
        download_rate_bps:
            d(t_k) — the downloading rate measured over the interval.

        Returns the new r estimate (Eq. 8).
        """
        if download_rate_bps < 0:
            raise ValueError("download rate cannot be negative")
        if self._last_update_s is None:
            self._last_update_s = now_s
            if download_rate_bps > 0:
                self._playing = True
            return self.buffered_segments
        dt = now_s - self._last_update_s
        if dt < 0:
            raise ValueError("time went backwards")
        drain = self.playback_rate_bps if self._playing else 0.0
        self._buffered_bits = max(
            0.0, self._buffered_bits + dt * (download_rate_bps - drain))
        if not self._playing and self._buffered_bits > 0:
            self._playing = True
        self._last_update_s = now_s
        return self.buffered_segments
