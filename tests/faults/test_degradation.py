"""Degrade, don't crash: detach, crash/recover, stale-delivery guards.

Absorbs the original ``tests/integration/test_failure_injection.py`` and
extends it with the chaos subsystem's microcosm guarantees: a crashed
server flushes with full packet accounting, recovery restores service,
and delivery epochs make stale segments from a previous attachment
unobservable.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.infrastructure import (
    SessionConfig,
    SystemVariant,
    simulate_sessions,
)
from repro.core.server import StreamingServer
from repro.faults.plan import FaultPlan
from repro.faults.session import SessionChaos
from repro.sim.engine import QUEUE_KINDS, Environment
from repro.streaming.encoder import SegmentEncoder


class TestMidSessionDetach:
    def test_player_leaves_mid_transmission(self, env):
        """Detaching while segments are queued must not crash the
        sender loop, and queued segments for the leaver are discarded."""
        server = StreamingServer(env, 0, 1e6)  # slow: queue builds
        delivered = []
        enc1 = SegmentEncoder(1, 0.110, 0.2)
        enc2 = SegmentEncoder(2, 0.110, 0.2)
        server.attach_player(1, enc1, lambda s, t: delivered.append(1),
                             0.01)
        server.attach_player(2, enc2, lambda s, t: delivered.append(2),
                             0.01)

        def send(k):
            if k == 5:
                server.detach_player(1)
                return
            server.render_and_send(1, env.now)
            server.render_and_send(2, env.now)
            env.call_later(0.01, send, k + 1)

        env.call_later(0.0, send, 0)
        env.run(until=10.0)
        assert 2 in delivered
        # Player 1 may have received early segments but none after detach.
        assert delivered.count(1) <= 5

    def test_render_after_detach_is_noop(self, env):
        server = StreamingServer(env, 0, 1e6)
        enc = SegmentEncoder(1, 0.110, 0.2)
        server.attach_player(1, enc, lambda s, t: None, 0.01)
        server.detach_player(1)
        server.render_and_send(1, 0.0)
        env.run(until=1.0)
        assert server.segments_sent == 0


class TestServerCrash:
    def test_crash_during_transmission_flushes_queue(self, env):
        """A crash mid-burst drops the queue and stops delivery."""
        server = StreamingServer(env, 0, 1e6)  # slow: queue builds
        delivered = []
        enc = SegmentEncoder(1, 0.110, 0.2)
        server.attach_player(1, enc, lambda s, t: delivered.append(t), 0.01)
        lost = {}

        def send(k):
            if k == 8:
                lost["n"] = server.fail()
                return
            server.render_and_send(1, env.now)
            env.call_later(0.01, send, k + 1)

        env.call_later(0.0, send, 0)
        env.run(until=10.0)
        assert server.crashed
        assert lost["n"] > 0
        assert server.n_players == 0
        # Nothing arrives after the crash instant (in-flight aside,
        # which a 1 Mb/s uplink keeps to at most the segment being
        # serialized when the crash hit).
        assert len(delivered) <= 8 - lost["n"] + 1

    def test_fail_is_idempotent(self, env):
        server = StreamingServer(env, 0, 1e8)
        server.fail()
        assert server.fail() == 0

    def test_render_while_crashed_is_noop(self, env):
        server = StreamingServer(env, 0, 1e8)
        enc = SegmentEncoder(1, 0.110, 0.2)
        server.attach_player(1, enc, lambda s, t: None, 0.01)
        server.fail()
        server.render_and_send(1, 0.0)
        env.run(until=1.0)
        assert server.segments_sent == 0

    def test_crash_then_recover_serves_again(self, env):
        server = StreamingServer(env, 0, 1e8)
        delivered = []
        enc = SegmentEncoder(1, 0.110, 0.2)
        server.fail()
        server.recover()
        assert not server.crashed
        server.attach_player(1, enc, lambda s, t: delivered.append(t), 0.01)
        server.render_and_send(1, 0.0)
        env.run(until=1.0)
        assert len(delivered) == 1

    def test_recover_without_crash_is_noop(self, env):
        server = StreamingServer(env, 0, 1e8)
        server.recover()
        assert not server.crashed


class _Segment:
    def __init__(self, packets=3):
        self.remaining_packets = packets

    def drop_all(self):
        n = self.remaining_packets
        self.remaining_packets = 0
        return n


class _Endpoint:
    def __init__(self):
        self.received = []

    def deliver(self, segment, now_s):
        self.received.append((segment.remaining_packets, now_s))


class TestDeliveryEpochs:
    """Migrated players never observe segments from their old server."""

    def _chaos(self, env):
        session = SimpleNamespace(env=env, _servers={}, _sn_service=None)
        return SessionChaos(session, FaultPlan())

    def test_current_epoch_delivers(self, env):
        chaos = self._chaos(env)
        endpoint = _Endpoint()
        deliver = chaos.make_deliver(1, endpoint, host_id=0)
        deliver(_Segment(), 1.0)
        assert endpoint.received == [(3, 1.0)]
        assert chaos.stale_suppressed == 0

    def test_bumped_epoch_suppresses_old_wrapper(self, env):
        chaos = self._chaos(env)
        endpoint = _Endpoint()
        old = chaos.make_deliver(1, endpoint, host_id=0)
        chaos.bump_epoch(1)
        new = chaos.make_deliver(1, endpoint, host_id=5)
        old(_Segment(), 1.0)   # stale: from the pre-migration server
        new(_Segment(), 2.0)
        assert endpoint.received == [(3, 2.0)]
        assert chaos.stale_suppressed == 1

    def test_migration_mid_flight_suppresses_delayed_arrival(self, env):
        """A latency-delayed segment crossing a migration is dropped."""
        chaos = self._chaos(env)
        chaos._latency.append((None, 0.5))  # active spike: all hosts
        endpoint = _Endpoint()
        deliver = chaos.make_deliver(1, endpoint, host_id=0)

        deliver(_Segment(), env.now)  # arrival scheduled at t=0.5
        env.call_later(0.2, chaos.bump_epoch, 1)  # player migrates
        env.run(until=10.0)
        assert endpoint.received == []
        assert chaos.stale_suppressed == 1

    def test_other_players_unaffected_by_bump(self, env):
        chaos = self._chaos(env)
        e1, e2 = _Endpoint(), _Endpoint()
        d1 = chaos.make_deliver(1, e1, host_id=0)
        d2 = chaos.make_deliver(2, e2, host_id=0)
        chaos.bump_epoch(1)
        d1(_Segment(), 1.0)
        d2(_Segment(), 1.0)
        assert e1.received == []
        assert e2.received == [(3, 1.0)]


class TestDegenerateConfigurations:
    def test_zero_supernodes_system_still_works(self):
        from repro.experiments.scenarios import peersim_scenario
        scen = peersim_scenario(scale=0.02, seed=5).with_(n_supernodes=0)
        pop = scen.build()
        online = scen.online_sample(pop)
        res = simulate_sessions(
            pop, SystemVariant.CLOUDFOG_B, online,
            SessionConfig(duration_s=4.0, warmup_s=1.0))
        assert res.fraction_served_by("cloud") == 1.0
        assert res.n_players == online.size

    def test_single_online_player(self):
        from repro.experiments.scenarios import peersim_scenario
        scen = peersim_scenario(scale=0.02, seed=5)
        pop = scen.build()
        res = simulate_sessions(
            pop, SystemVariant.CLOUDFOG_A, np.array([0]),
            SessionConfig(duration_s=4.0, warmup_s=1.0))
        assert res.n_players == 1

    def test_empty_online_set(self):
        from repro.experiments.scenarios import peersim_scenario
        scen = peersim_scenario(scale=0.02, seed=5)
        pop = scen.build()
        res = simulate_sessions(
            pop, SystemVariant.CLOUD, np.array([], dtype=int),
            SessionConfig(duration_s=2.0))
        assert res.n_players == 0
        assert res.mean_continuity == 1.0

    def test_edgecloud_without_edge_servers(self):
        """EdgeCloud with no deployed edge servers degrades to Cloud."""
        from repro.experiments.scenarios import peersim_scenario
        scen = peersim_scenario(scale=0.02, seed=5).with_(
            n_edge_servers=0)
        pop = scen.build()
        online = scen.online_sample(pop)
        res = simulate_sessions(
            pop, SystemVariant.EDGECLOUD, online,
            SessionConfig(duration_s=4.0, warmup_s=1.0),
            edge_server_host_ids=pop.edge_server_host_ids)
        assert res.fraction_served_by("edge") == 0.0
        assert res.fraction_served_by("cloud") == 1.0


class TestProcessCrashIsolation:
    def test_one_crashing_process_fails_loudly(self):
        """Uncaught callback errors surface instead of corrupting state,
        on either event queue."""
        def bad():
            raise RuntimeError("injected")

        for queue in QUEUE_KINDS:
            env = Environment(queue=queue)
            done = []
            env.call_later(1.0, bad)
            env.call_later(5.0, done.append, "ok")
            with pytest.raises(RuntimeError, match="injected"):
                env.run()
            # The kernel stopped at the failure with the good entry
            # still queued; a second run finishes it.
            assert (env.now, env.pending, done) == (1.0, 1, []), queue
            env.run()
            assert (env.now, env.pending, done) == (5.0, 0, ["ok"]), queue
