"""Supernode: a fog streaming server built from a player machine.

A supernode is a :class:`~repro.core.server.StreamingServer` whose uplink
comes from its contributed capacity slots (each slot backs one top-quality
stream — see :mod:`repro.workload.capacities`) and which receives compact
state updates from the cloud instead of computing game state itself.
"""

from __future__ import annotations

from repro.core.scheduling import SchedulingParams
from repro.core.server import StreamingServer
from repro.sim.engine import Environment
from repro.workload.capacities import SLOT_BANDWIDTH_BPS


class SupernodeServer(StreamingServer):
    """A deployed supernode.

    Parameters
    ----------
    env:
        Simulation environment.
    host_id:
        Topology host id (a promoted player machine).
    capacity_slots:
        C_j — concurrent players this supernode can serve; also sizes
        the uplink (slots × top-ladder bitrate).
    render_delay_s:
        l_s — game video rendering time per segment.
    use_deadline_scheduling:
        Enable the §III-C sender buffer (CloudFog-schedule, CloudFog/A).
    """

    def __init__(
        self,
        env: Environment,
        host_id: int,
        capacity_slots: int,
        render_delay_s: float = 0.005,
        use_deadline_scheduling: bool = False,
        scheduling_params: SchedulingParams | None = None,
        uplink_rate_bps: float | None = None,
        obs=None,
    ):
        if capacity_slots < 1:
            raise ValueError("a supernode needs at least one slot")
        self.capacity_slots = capacity_slots
        rate = (uplink_rate_bps if uplink_rate_bps is not None
                else capacity_slots * SLOT_BANDWIDTH_BPS)
        super().__init__(
            env,
            host_id,
            uplink_rate_bps=rate,
            render_delay_s=render_delay_s,
            use_deadline_scheduling=use_deadline_scheduling,
            scheduling_params=scheduling_params,
            obs=obs,
        )
        #: Update messages received from the cloud.
        self.updates_received = 0

    def receive_update(self) -> None:
        """Account one cloud update message (virtual world refresh)."""
        self.updates_received += 1

    def utilization(self, elapsed_s: float) -> float:
        """u_j — fraction of the uplink used so far."""
        if elapsed_s <= 0:
            return 0.0
        return min(1.0, 8.0 * self.bytes_sent
                   / (self.uplink_rate_bps * elapsed_s))
