"""The cloud side: game-state computation and update fan-out.

In CloudFog the cloud's only jobs are (a) computing the authoritative game
state from all players' actions and (b) pushing compact update messages to
each supernode. :class:`CloudCoordinator` does both and accounts the
cloud's egress bandwidth — the quantity Figure 7 compares across systems.

In the plain-cloud and EdgeCloud baselines, a datacenter additionally acts
as a :class:`~repro.core.server.StreamingServer` (it renders and streams
whole game videos), which is how those systems' egress grows with ``N×R``
while CloudFog's grows with ``Λ×m``.
"""

from __future__ import annotations

from repro.sim.engine import Environment

#: Default size of one cloud-to-supernode update message. Game state
#: deltas (object positions, avatar states) are orders of magnitude
#: smaller than rendered video; 2 KB per tick matches MMOG traffic
#: measurements (Chen et al., Computer Networks 2006).
UPDATE_MESSAGE_BYTES = 2000

#: Cloud-side game state computation time per tick.
DEFAULT_COMPUTE_DELAY_S = 0.005


class CloudCoordinator:
    """Central game-state authority and update-message source.

    Parameters
    ----------
    env:
        Simulation environment.
    datacenter_host_ids:
        Hosts acting as the cloud.
    compute_delay_s:
        Game-state computation time per action batch.
    update_message_bytes:
        Λ per supernode per tick, in bytes.
    """

    def __init__(
        self,
        env: Environment,
        datacenter_host_ids,
        compute_delay_s: float = DEFAULT_COMPUTE_DELAY_S,
        update_message_bytes: int = UPDATE_MESSAGE_BYTES,
    ):
        self.env = env
        self.datacenter_host_ids = list(datacenter_host_ids)
        self.compute_delay_s = compute_delay_s
        self.update_message_bytes = update_message_bytes
        #: Cloud egress consumed by update messages to supernodes.
        self.update_bytes_sent = 0.0
        #: Cloud egress consumed by streaming whole videos (baselines and
        #: CloudFog's direct-to-cloud players).
        self.stream_bytes_sent = 0.0
        self.actions_processed = 0

    def action_to_update_delay_s(
        self, upstream_s: float, cloud_to_site_s: float
    ) -> float:
        """l_r — from a player action to its serving site holding the
        update: upload leg + state computation + update push."""
        return upstream_s + self.compute_delay_s + cloud_to_site_s

    def account_update(self, n_messages: int = 1) -> None:
        """Charge egress for update messages to supernodes."""
        self.update_bytes_sent += n_messages * self.update_message_bytes
        self.actions_processed += n_messages

    def account_stream(self, n_bytes: float) -> None:
        """Charge egress for directly streamed video bytes."""
        self.stream_bytes_sent += n_bytes

    @property
    def total_egress_bytes(self) -> float:
        """All cloud egress so far."""
        return self.update_bytes_sent + self.stream_bytes_sent

    def egress_rate_bps(self, elapsed_s: float) -> float:
        """Average cloud egress rate over ``elapsed_s`` seconds."""
        if elapsed_s <= 0:
            return 0.0
        return 8.0 * self.total_egress_bytes / elapsed_s
