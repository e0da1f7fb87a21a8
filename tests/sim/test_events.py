"""Unit tests for event primitives (Event, Timeout)."""

import pytest


class TestEventLifecycle:
    def test_fresh_event_is_pending(self, env):
        ev = env.event()
        assert not ev.triggered
        assert not ev.processed

    def test_value_unavailable_before_trigger(self, env):
        with pytest.raises(AttributeError):
            env.event().value

    def test_succeed_sets_value(self, env):
        ev = env.event().succeed(99)
        assert ev.triggered
        assert ev.ok
        assert ev.value == 99

    def test_succeed_twice_raises(self, env):
        ev = env.event().succeed()
        with pytest.raises(RuntimeError):
            ev.succeed()

    def test_processed_after_run(self, env):
        ev = env.event().succeed("v")
        env.run()
        assert ev.processed

class TestTimeout:
    def test_negative_delay_rejected(self, env):
        with pytest.raises(ValueError):
            env.timeout(-1.0)

    def test_zero_delay_fires_immediately(self, env):
        fired = []
        ev = env.timeout(0.0, value="now")
        ev.callbacks.append(lambda e: fired.append((env.now, e.value)))
        env.run()
        assert fired == [(0.0, "now")]

    def test_carries_value(self, env):
        def proc(env):
            got = yield env.timeout(1.0, value="ping")
            return got

        p = env.process(proc(env))
        env.run()
        assert p.value == "ping"
