"""Unit tests for the discrete-event kernel."""

import pytest

from repro.sim.engine import QUEUE_KINDS, Environment, SimulationError


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
        with pytest.raises(SimulationError):
            env.call_later(-1.0, lambda: None)

    def test_events_fire_in_time_order(self, env):
        fired = []
        for delay in (5.0, 1.0, 3.0):
            env.call_later(delay, fired.append, delay)
        env.run()
        assert fired == [1.0, 3.0, 5.0]

    def test_equal_time_events_fire_in_insertion_order(self, env):
        fired = []
        for tag in "abc":
            env.call_later(2.0, fired.append, tag)
        env.run()
        assert fired == ["a", "b", "c"]

    def test_clock_advances_to_event_times(self, env):
        seen = []
        env.call_later(7.25, lambda: seen.append(env.now))
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

    def test_nested_calls_queue_behind_equal_time_entries(self, queue):
        # A callback that queues a zero-delay call lands behind the
        # entries already queued for the same instant.
        env = Environment(queue=queue)
        fired = []

        def first():
            fired.append("a")
            env.call_later(0.0, fired.append, "d")

        env.call_later(2.0, first)
        env.call_later(2.0, fired.append, "b")
        env.call_later(2.0, fired.append, "c")
        env.run()
        assert fired == ["a", "b", "c", "d"]

    def test_negative_delay_rejected(self, queue):
        env = Environment(queue=queue)
        with pytest.raises(SimulationError):
            env.call_later(-0.1, lambda: None)
        assert env._seq == 0 and env.pending == 0

    def test_one_sequence_number_per_call(self, queue):
        env = Environment(queue=queue)
        env.call_later(1.0, lambda: None)
        assert env._seq == 1
        env.call_later(1.0, lambda: None)
        assert env._seq == 2
        assert env.pending == 2
        env.run()
        assert env._seq == 2 and env.pending == 0


@pytest.mark.parametrize("queue", QUEUE_KINDS)
class TestCallAt:
    def test_fires_at_exactly_when_with_its_arguments(self, queue):
        env = Environment(initial_time=0.1, queue=queue)
        when = 0.1 + 0.023 + 0.005
        fired = []
        env.call_at(when, lambda *args: fired.append((env.now, args)),
                    "a", 7)
        env.run()
        assert fired == [(when, ("a", 7))]

    def test_past_instant_rejected(self, queue):
        env = Environment(initial_time=2.0, queue=queue)
        with pytest.raises(SimulationError):
            env.call_at(1.5, lambda: None)
        assert env._seq == 0 and env.pending == 0

    def test_equal_instant_entries_fire_in_call_order(self, queue):
        env = Environment(initial_time=1.0, queue=queue)
        fired = []
        env.call_at(3.0, fired.append, "a")
        env.call_later(2.0, fired.append, "b")
        env.call_at(3.0, fired.append, "c")
        env.call_later(2.0, fired.append, "d")
        env.run()
        assert fired == ["a", "b", "c", "d"]

    def test_peek_reads_the_earliest_queued_time(self, queue):
        env = Environment(queue=queue)
        assert env.peek() == float("inf")
        env.call_later(3.0, lambda: None)
        env.call_at(1.5, lambda: None)
        assert env.peek() == 1.5
        env.run(until=2.0)
        assert env.peek() == 3.0
        env.run()
        assert env.peek() == float("inf")


class TestErrorPropagation:
    def test_uncaught_process_exception_propagates(self, env):
        # A self-rescheduling loop whose callback raises: the exception
        # leaves run() directly.
        ticks = []

        def loop():
            ticks.append(env.now)
            if len(ticks) == 2:
                raise ValueError("boom")
            env.call_later(1.0, loop)

        env.call_later(1.0, loop)
        with pytest.raises(ValueError, match="boom"):
            env.run()
        assert ticks == [1.0, 2.0]
        assert env.now == 2.0


class TestDeterminism:
    def test_identical_runs_identical_traces(self):
        def trace_run():
            env = Environment()
            trace = []

            def worker(name, delay, i=0):
                trace.append((env.now, name, i))
                if i < 2:
                    env.call_later(delay, worker, name, delay, i + 1)

            env.call_later(1.0, worker, "a", 1.0)
            env.call_later(1.0, worker, "b", 1.0)
            env.call_later(0.5, worker, "c", 0.5)
            env.run()
            return trace

        assert trace_run() == trace_run()
