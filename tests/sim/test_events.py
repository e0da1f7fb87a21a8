"""Unit tests for event primitives (Event, Timeout)."""

import pytest

from repro.sim.events import Event


class TestEventLifecycle:
    def test_fresh_event_is_pending(self, env):
        ev = Event(env)
        assert not ev.triggered
        assert not ev.processed

    def test_value_unavailable_before_trigger(self, env):
        with pytest.raises(AttributeError):
            Event(env).value

    def test_processed_after_run(self, env):
        ev = env.timeout(0.0, value="v")
        assert ev.triggered
        env.run()
        assert ev.processed
        assert ev.value == "v"


class TestTimeout:
    def test_negative_delay_rejected(self, env):
        with pytest.raises(ValueError):
            env.timeout(-1.0)

    def test_zero_delay_fires_immediately(self, env):
        fired = []
        ev = env.timeout(0.0, value="now")
        ev.callbacks.append(lambda e: fired.append((env.now, e.value)))
        assert not ev.processed
        env.run()
        assert ev.processed
        assert fired == [(0.0, "now")]

    def test_carries_value(self, env):
        def proc(env):
            got = yield env.timeout(1.0, value="ping")
            return got

        p = env.process(proc(env))
        with pytest.raises(AttributeError):
            p.value  # the process has not finished
        env.run()
        assert p.value == "ping"
