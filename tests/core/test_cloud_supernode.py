"""Unit tests for the cloud coordinator and supernode server."""

import pytest

from repro.core.cloud import (
    DEFAULT_COMPUTE_DELAY_S,
    UPDATE_MESSAGE_BYTES,
    CloudCoordinator,
)
from repro.core.supernode import SupernodeServer
from repro.streaming.encoder import SegmentEncoder
from repro.workload.capacities import SLOT_BANDWIDTH_BPS


class TestCloudCoordinator:
    def test_update_accounting(self, env):
        cloud = CloudCoordinator(env, [0, 1])
        cloud.account_update(3)
        assert cloud.update_bytes_sent == 3 * UPDATE_MESSAGE_BYTES
        assert cloud.actions_processed == 3

    def test_stream_accounting(self, env):
        cloud = CloudCoordinator(env, [0])
        cloud.account_stream(5000)
        assert cloud.stream_bytes_sent == 5000
        assert cloud.total_egress_bytes == 5000

    def test_egress_rate(self, env):
        cloud = CloudCoordinator(env, [0])
        cloud.account_stream(1000)
        assert cloud.egress_rate_bps(8.0) == pytest.approx(1000.0)
        assert cloud.egress_rate_bps(0.0) == 0.0

    def test_action_to_update_delay(self, env):
        cloud = CloudCoordinator(env, [0], compute_delay_s=0.005)
        delay = cloud.action_to_update_delay_s(0.02, 0.01)
        assert delay == pytest.approx(0.035)

    def test_default_compute_delay(self, env):
        cloud = CloudCoordinator(env, [0])
        assert cloud.compute_delay_s == DEFAULT_COMPUTE_DELAY_S

    def test_update_message_size_order_of_magnitude(self):
        """Game state deltas are KBs, video segments are tens of KBs."""
        assert 100 <= UPDATE_MESSAGE_BYTES <= 10_000


class TestSupernodeServer:
    def test_uplink_from_slots(self, env):
        sn = SupernodeServer(env, host_id=5, capacity_slots=4)
        assert sn.uplink_rate_bps == 4 * SLOT_BANDWIDTH_BPS

    def test_uplink_override(self, env):
        sn = SupernodeServer(env, 5, capacity_slots=4, uplink_rate_bps=1e6)
        assert sn.uplink_rate_bps == 1e6

    def test_capacity_positive(self, env):
        with pytest.raises(ValueError):
            SupernodeServer(env, 5, capacity_slots=0)

    def test_receive_update_counter(self, env):
        sn = SupernodeServer(env, 5, capacity_slots=1)
        sn.receive_update()
        sn.receive_update()
        assert sn.updates_received == 2

    def test_utilization(self, env):
        sn = SupernodeServer(env, 5, capacity_slots=1)
        enc = SegmentEncoder(1, 0.110, 0.2)
        sn.attach_player(1, enc, lambda s, t: None, 0.0)
        sn.render_and_send(1, 0.0)
        env.run(until=1.0)
        expected = 8.0 * sn.bytes_sent / (sn.uplink_rate_bps * 1.0)
        assert sn.utilization(1.0) == pytest.approx(expected)
        assert sn.utilization(0.0) == 0.0
