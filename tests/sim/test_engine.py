"""Unit tests for the discrete-event kernel."""

import pytest

from repro.sim.engine import QUEUE_KINDS, Environment, SimulationError
from repro.sim.events import Event


class TestClock:
    def test_starts_at_zero(self):
        assert Environment().now == 0.0

    def test_initial_time(self):
        assert Environment(initial_time=10.0).now == 10.0

    def test_run_until_time_advances_clock(self, env):
        env.run(until=42.0)
        assert env.now == 42.0

    def test_run_until_past_raises(self):
        env = Environment(initial_time=5.0)
        with pytest.raises(SimulationError):
            env.run(until=1.0)


class TestScheduling:
    def test_negative_delay_rejected(self, env):
        ev = Event(env)
        with pytest.raises(SimulationError):
            env.schedule(ev, delay=-1.0)

    def test_step_on_empty_raises(self, env):
        with pytest.raises(SimulationError):
            env.step()

    def test_events_fire_in_time_order(self, env):
        fired = []
        for delay in (5.0, 1.0, 3.0):
            ev = env.timeout(delay, value=delay)
            ev.callbacks.append(lambda e: fired.append(e.value))
        env.run()
        assert fired == [1.0, 3.0, 5.0]

    def test_equal_time_events_fire_in_insertion_order(self, env):
        fired = []
        for tag in "abc":
            ev = env.timeout(2.0, value=tag)
            ev.callbacks.append(lambda e: fired.append(e.value))
        env.run()
        assert fired == ["a", "b", "c"]

    def test_clock_advances_to_event_times(self, env):
        seen = []
        ev = env.timeout(7.25)
        ev.callbacks.append(lambda e: seen.append(env.now))
        env.run()
        assert seen == [7.25]


@pytest.mark.parametrize("queue", QUEUE_KINDS)
class TestCallLater:
    def test_fires_at_now_plus_delay_with_its_arguments(self, queue):
        env = Environment(initial_time=1.0, queue=queue)
        fired = []
        env.call_later(2.5, lambda *args: fired.append((env.now, args)),
                       "a", 7)
        env.call_later(0.5, lambda: fired.append((env.now, ())))
        env.run()
        assert fired == [(1.5, ()), (3.5, ("a", 7))]

    def test_interleaves_with_timeouts_in_insertion_order(self, queue):
        env = Environment(queue=queue)
        fired = []
        for tag in "abcd":
            if tag in "ac":
                env.call_later(2.0, fired.append, tag)
            else:
                ev = env.timeout(2.0, value=tag)
                ev.callbacks.append(lambda e: fired.append(e.value))
        env.run()
        assert fired == ["a", "b", "c", "d"]

    def test_negative_delay_rejected(self, queue):
        env = Environment(queue=queue)
        with pytest.raises(SimulationError):
            env.call_later(-0.1, lambda: None)
        assert env._seq == 0 and env.pending == 0

    def test_one_sequence_number_like_a_timeout(self, queue):
        env = Environment(queue=queue)
        env.timeout(1.0)
        assert env._seq == 1
        env.call_later(1.0, lambda: None)
        assert env._seq == 2
        assert env.pending == 2


class TestErrorPropagation:
    def test_uncaught_process_exception_propagates(self, env):
        def bad(env):
            yield env.timeout(1.0)
            raise ValueError("boom")

        env.process(bad(env))
        with pytest.raises(ValueError, match="boom"):
            env.run()

    def test_failed_event_without_waiter_propagates(self, env):
        # A process that raises is a failed event; with nobody waiting
        # on it, its exception leaves run().
        def bad(env):
            raise RuntimeError("unhandled")
            yield  # pragma: no cover - makes this a generator

        p = env.process(bad(env))
        with pytest.raises(RuntimeError, match="unhandled"):
            env.run()
        assert p.triggered and not p.ok

    def test_failed_event_with_catching_waiter_is_defused(self, env):
        def bad(env):
            yield env.timeout(1.0)
            raise RuntimeError("handled")

        failing = env.process(bad(env))

        def waiter(env, ev):
            try:
                yield ev
            except RuntimeError:
                return "caught"

        p = env.process(waiter(env, failing))
        env.run()
        assert p.value == "caught"
        assert failing.defused


class TestDeterminism:
    def test_identical_runs_identical_traces(self):
        def trace_run():
            env = Environment()
            trace = []

            def worker(env, name, delay):
                for i in range(3):
                    yield env.timeout(delay)
                    trace.append((env.now, name, i))

            env.process(worker(env, "a", 1.0))
            env.process(worker(env, "b", 1.0))
            env.process(worker(env, "c", 0.5))
            env.run()
            return trace

        assert trace_run() == trace_run()
