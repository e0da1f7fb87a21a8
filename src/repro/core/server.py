"""Generic streaming server: the render-encode-queue-send pipeline.

A :class:`StreamingServer` is anything that renders game video and streams
it to players over a shared, rate-limited uplink: a supernode, an
EdgeCloud edge server, or a datacenter acting as the streamer in the plain
cloud gaming baseline. The differences between system variants reduce to

* which queue discipline the sender buffer uses (FIFO vs deadline-driven);
* whether per-player encoders accept rate-adaptation feedback;
* how large the uplink is (supernode slots vs datacenter egress).

On the event kernel a segment costs one queue entry per real hop: its
render finishing (queued as soon as the caller knows when the game
state reaches the server), its last byte leaving the uplink, and its
arrival at the player. A segment that finds the uplink idle starts it in
place, unless other entries are due the same instant.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.core.scheduling import DeadlineSenderBuffer, SchedulingParams
from repro.network.packet import VideoSegment
from repro.obs.metrics import MetricsRegistry
from repro.sim.engine import Environment
from repro.streaming.encoder import SegmentEncoder
from repro.streaming.sender_buffer import FifoSenderBuffer

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs import Observability

#: Deliver callback signature: (segment, arrival_time_s) -> None.
DeliverFn = Callable[[VideoSegment, float], None]


class StreamingServer:
    """A video-rendering host with a shared uplink and a sender queue.

    Parameters
    ----------
    env:
        Simulation environment.
    host_id:
        The server's host id in the topology.
    uplink_rate_bps:
        λ_r — total upload rate shared by all served players.
    render_delay_s:
        l_s — per-segment rendering time.
    use_deadline_scheduling:
        Choose the deadline-driven buffer (CloudFog-schedule / CloudFog/A)
        over plain FIFO.
    scheduling_params:
        Constants for the deadline scheduler.
    """

    def __init__(
        self,
        env: Environment,
        host_id: int,
        uplink_rate_bps: float,
        render_delay_s: float = 0.005,
        use_deadline_scheduling: bool = False,
        scheduling_params: SchedulingParams | None = None,
        obs: "Observability | None" = None,
    ):
        if uplink_rate_bps <= 0:
            raise ValueError("uplink rate must be positive")
        self.env = env
        self.host_id = host_id
        self.uplink_rate_bps = uplink_rate_bps
        self.render_delay_s = render_delay_s
        self.use_deadline_scheduling = use_deadline_scheduling
        self._emit = obs.emit if obs is not None and obs.listening else None
        self.component = f"server:{host_id}"
        if use_deadline_scheduling:
            self.buffer = DeadlineSenderBuffer(
                uplink_rate_bps,
                render_delay_s=render_delay_s,
                params=scheduling_params,
                obs=obs,
                component=self.component,
            )
        else:
            self.buffer = FifoSenderBuffer(
                obs=obs, component=self.component)
        #: encoders keyed by player id.
        self.encoders: dict[int, SegmentEncoder] = {}
        #: per-player routes: delivery callback, propagation delay,
        #: path rate and the instant the player attached.
        self._routes: dict[int, tuple[DeliverFn, float, float, float]] = {}
        registry = obs.metrics if obs is not None else MetricsRegistry()
        self._c_bytes_sent = registry.counter("server.bytes_sent")
        self._c_segments_sent = registry.counter("server.segments_sent")
        #: Set by the fault injector; a crashed server has no encoders or
        #: routes, so rendering and sending degrade to no-ops.
        self.crashed = False
        #: True while the uplink waits for a segment, as it does from the
        #: start; the next rendered segment starts it (see _rendered).
        self._idle = True

    @property
    def bytes_sent(self) -> float:
        """Bytes serialized onto the uplink (metrics-registry backed)."""
        return self._c_bytes_sent.value

    @property
    def segments_sent(self) -> int:
        """Segments serialized onto the uplink."""
        return self._c_segments_sent.value

    # -- player management ---------------------------------------------------
    def attach_player(
        self,
        player_id: int,
        encoder: SegmentEncoder,
        deliver: DeliverFn,
        propagation_s: float,
        path_rate_bps: float = float("inf"),
    ) -> None:
        """Register a served player: its encoder and downstream path.

        ``path_rate_bps`` caps the streaming throughput of the
        server-to-player path (window-limited transport over the path's
        RTT); a segment spends ``size × 8 / path_rate`` in the pipe on
        top of the propagation delay.
        """
        if path_rate_bps <= 0:
            raise ValueError("path rate must be positive")
        self.encoders[player_id] = encoder
        self._routes[player_id] = (deliver, propagation_s, path_rate_bps,
                                   self.env.now)
        if self.use_deadline_scheduling:
            # Seed the Eq. 13 estimator so the first segments already
            # schedule against a sane downstream estimate.
            self.buffer.propagation.record(player_id, propagation_s)

    def detach_player(self, player_id: int) -> None:
        """Unregister a player (session ended)."""
        self.encoders.pop(player_id, None)
        self._routes.pop(player_id, None)

    @property
    def n_players(self) -> int:
        return len(self._routes)

    # -- failure injection ---------------------------------------------------
    def fail(self, now_s: float | None = None) -> int:
        """Crash the server: flush the queue, forget players.

        Queued segments are dropped through the buffer's flush path with
        full packet accounting; encoders and routes are cleared so
        rendering for former players degrades to a no-op. A segment
        already being serialized keeps its captured route and still
        arrives (it was in flight when the host died). Cold path — only
        the fault injector calls this. Returns the segments lost.
        """
        if self.crashed:
            return 0
        now = self.env.now if now_s is None else now_s
        lost = self.buffer.flush(now)
        self.encoders.clear()
        self._routes.clear()
        self.crashed = True
        if self._emit is not None:
            self._emit(now, self.component, "server.fail",
                       segments_lost=lost)
        return lost

    def recover(self) -> None:
        """Bring a crashed server back, empty and playerless."""
        if not self.crashed:
            return
        self.crashed = False
        if self._emit is not None:
            self._emit(self.env.now, self.component, "server.recover")

    # -- pipeline --------------------------------------------------------------
    def render_and_send(self, player_id: int, action_time_s: float,
                        state_ready_s: float | None = None) -> None:
        """Render one segment for ``player_id`` and queue it for sending.

        ``state_ready_s`` is the instant the action's game state reaches
        this server (default: now). Rendering starts then, and the
        segment enters the sender buffer ``render_delay_s`` later: one
        queue entry, even when the state is still on its way. Only a
        player attached when its state arrives, and still attached when
        the render finishes, gets the segment.
        """
        if state_ready_s is None:
            if player_id not in self.encoders:
                return
            state_ready_s = self.env.now
        self.env.call_at(state_ready_s + self.render_delay_s, self._rendered,
                         player_id, action_time_s, state_ready_s)

    def _rendered(self, player_id: int, action_time_s: float,
                  state_ready_s: float) -> None:
        """Encode the rendered segment, queue it, start an idle uplink."""
        route = self._routes.get(player_id)
        if route is None or route[3] > state_ready_s:
            # Detached now, or (re)attached only after the state arrived.
            return
        env = self.env
        now = env.now
        segment = self.encoders[player_id].encode_segment(
            action_time_s, now, state_ready_s=state_ready_s)
        self.buffer.enqueue(segment, now)
        if self._idle:
            self._idle = False
            if env.peek() > now:
                self._send_next()
            else:
                # Other entries are due this instant (renders among them):
                # start after them, so the buffer picks among every
                # segment rendered now.
                env.call_later(0.0, self._send_next)

    def _send_next(self) -> None:
        """Start serialising the next queued segment, or go idle."""
        now = self.env.now
        while True:
            # Expiry is done here, not in the buffer: the server knows the
            # exact route (uplink rate, path rate, propagation), so only
            # truly hopeless segments get expired.
            segment = self.buffer.dequeue(now, expire=False)
            if segment is None:
                self._idle = True
                return
            route = self._routes.get(segment.player_id)

            if (self.use_deadline_scheduling and route is not None
                    and segment.remaining_packets > 0):
                _, prop_s, rate_bps, _ = route
                size = segment.remaining_bytes
                tx = 8.0 * size / self.uplink_rate_bps
                pipe = (8.0 * size / rate_bps
                        if rate_bps != float("inf") else 0.0)
                if now + tx + pipe + prop_s > segment.deadline_s:
                    expired = segment.drop_all()
                    self.buffer.note_expired(segment, expired, now_s=now)

            size = segment.remaining_bytes
            if size > 0:
                # The route is captured now: a segment on the wire when
                # the host crashes still reaches its player.
                self.env.call_later(8.0 * size / self.uplink_rate_bps,
                                    self._sent, segment, route, size)
                return
            self._route(segment, route, size)

    def _sent(self, segment: VideoSegment, route, size: int) -> None:
        """``segment`` left the uplink: count it, route it, send the next."""
        self._c_bytes_sent.inc(size)
        self._c_segments_sent.inc()
        if self._emit is not None:
            self._emit(self.env.now, self.component, "server.send",
                       player=segment.player_id, bytes=size,
                       packets=segment.remaining_packets)
        self._route(segment, route, size)
        self._send_next()

    def _route(self, segment: VideoSegment, route, size: int) -> None:
        """Hand ``segment`` to its player's downstream path."""
        if route is None:
            return  # player left while the segment queued
        deliver, propagation_s, path_rate_bps, _ = route
        # Downstream delay: the path pipes the segment at its
        # window-limited rate, then the last packet propagates.
        path_transfer_s = (8.0 * size / path_rate_bps
                           if size > 0 and path_rate_bps != float("inf")
                           else 0.0)
        downstream_s = path_transfer_s + propagation_s
        if self.use_deadline_scheduling:
            self.buffer.propagation.record(segment.player_id, downstream_s)
        # The last packet reaches the player at ``arrival``.
        arrival = self.env.now + downstream_s
        self.env.call_at(arrival, deliver, segment, arrival)
