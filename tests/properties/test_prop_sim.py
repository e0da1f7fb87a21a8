"""Property-based tests for the discrete-event kernel."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Environment

delays = st.lists(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False,
              allow_infinity=False),
    min_size=1, max_size=40)


class TestEventOrdering:
    @given(delays)
    @settings(max_examples=60, deadline=None)
    def test_timeouts_fire_in_nondecreasing_time_order(self, ds):
        env = Environment()
        fired = []
        for d in ds:
            env.call_later(d, lambda: fired.append(env.now))
        env.run()
        assert fired == sorted(fired)
        assert len(fired) == len(ds)

    @given(delays)
    @settings(max_examples=60, deadline=None)
    def test_clock_never_goes_backwards(self, ds):
        env = Environment()
        observed = []

        def watcher():
            observed.append(env.now)
            if len(observed) <= len(ds) + 1:
                env.call_later(0.0, watcher)

        for d in ds:
            env.call_later(d, lambda: None)
        env.call_later(0.0, watcher)
        env.run()
        assert observed == sorted(observed)

    @given(delays)
    @settings(max_examples=40, deadline=None)
    def test_equal_delays_fire_in_insertion_order(self, ds):
        env = Environment()
        fired = []
        for idx, _ in enumerate(ds):
            env.call_later(5.0, fired.append, idx)
        env.run()
        assert fired == list(range(len(ds)))
