"""Unit tests for generator-driven processes."""

import pytest


class TestProcessBasics:
    def test_requires_generator(self, env):
        with pytest.raises(TypeError):
            env.process(lambda: None)

    def test_return_value_becomes_event_value(self, env):
        def proc(env):
            yield env.timeout(1.0)
            return 123

        p = env.process(proc(env))
        env.run()
        assert p.value == 123

    def test_yield_non_event_raises(self, env):
        def proc(env):
            yield 42

        env.process(proc(env))
        with pytest.raises(TypeError):
            env.run()

    def test_processes_can_wait_on_each_other(self, env):
        def child(env):
            yield env.timeout(3.0)
            return "child-result"

        def parent(env):
            result = yield env.process(child(env))
            return (env.now, result)

        p = env.process(parent(env))
        env.run()
        assert p.value == (3.0, "child-result")

    def test_waiting_on_finished_process(self, env):
        def child(env):
            yield env.timeout(1.0)
            return "x"

        c = env.process(child(env))

        def parent(env):
            yield env.timeout(5.0)  # child already done
            result = yield c
            return result

        p = env.process(parent(env))
        env.run()
        assert p.value == "x"


class TestExceptionFlow:
    def test_exception_inside_process_fails_waiters(self, env):
        def bad(env):
            yield env.timeout(1.0)
            raise KeyError("inner")

        def waiter(env, target):
            try:
                yield target
            except KeyError:
                return "propagated"

        b = env.process(bad(env))
        w = env.process(waiter(env, b))
        env.run()
        assert w.value == "propagated"

    def test_immediate_return(self, env):
        def noop(env):
            return "instant"
            yield  # pragma: no cover

        p = env.process(noop(env))
        env.run()
        assert p.value == "instant"
