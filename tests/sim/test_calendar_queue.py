"""Unit and equivalence tests for the calendar-queue event kernel.

The contract that matters: a :class:`CalendarQueue` pops entries in
exactly the same ``(time, seq)`` total order as a binary heap would, for
any push/pop interleaving. Everything else — bucket widths, resizes,
cursor jumps — is an implementation detail these tests exercise but
never depend on.
"""

import heapq
import random

import pytest

from repro.sim.calendar import CalendarQueue
from repro.sim.engine import Environment


class TestBasics:
    def test_empty(self):
        q = CalendarQueue()
        assert len(q) == 0
        assert not q
        assert q.peek_time() == float("inf")
        with pytest.raises(IndexError):
            q.pop()

    def test_fifo_within_time(self):
        q = CalendarQueue()
        q.push(1.0, 0, "a")
        q.push(1.0, 1, "b")
        q.push(1.0, 2, "c")
        assert [q.pop()[2] for _ in range(3)] == ["a", "b", "c"]

    def test_time_order(self):
        q = CalendarQueue()
        for i, t in enumerate([5.0, 1.0, 3.0, 0.5, 4.0]):
            q.push(t, i, t)
        popped = [q.pop()[0] for _ in range(5)]
        assert popped == sorted(popped)

    def test_peek_does_not_remove(self):
        q = CalendarQueue()
        q.push(2.0, 0, "x")
        assert q.peek_time() == 2.0
        assert len(q) == 1
        assert q.pop()[2] == "x"

    def test_rejects_bad_times(self):
        q = CalendarQueue()
        with pytest.raises(ValueError):
            q.push(float("nan"), 0, None)
        with pytest.raises(ValueError):
            q.push(float("inf"), 0, None)
        with pytest.raises(ValueError):
            q.push(-1.0, 0, None)

    def test_push_earlier_than_cursor(self):
        # Popping advances the cursor; a later push at an earlier time
        # must rewind it rather than being orphaned behind it.
        q = CalendarQueue()
        q.push(100.0, 0, "late")
        q.push(200.0, 1, "later")
        assert q.pop()[2] == "late"
        q.push(50.0, 2, "early")
        assert q.pop()[2] == "early"
        assert q.pop()[2] == "later"

    def test_far_future_gap(self):
        # A gap much larger than bucket_count × width forces the
        # direct-search fallback past the one-year scan cutoff.
        q = CalendarQueue()
        q.push(0.001, 0, "now")
        q.push(5.0e7, 1, "eventually")
        assert q.pop()[2] == "now"
        assert q.pop()[2] == "eventually"

    def test_grow_and_shrink(self):
        q = CalendarQueue()
        n = 5000
        for i in range(n):
            q.push(i * 0.01, i, i)
        out = [q.pop()[2] for _ in range(n)]
        assert out == list(range(n))
        assert len(q) == 0


class TestHeapEquivalence:
    @pytest.mark.parametrize("trial", range(20))
    def test_random_interleaving_matches_heapq(self, trial):
        rng = random.Random(1000 + trial)
        cal = CalendarQueue()
        heap = []
        seq = 0
        cal_out, heap_out = [], []
        for _ in range(2000):
            if heap and rng.random() < 0.45:
                cal_out.append(cal.pop())
                heap_out.append(heapq.heappop(heap))
            else:
                # Mix of clustered, tied, and far-future times.
                r = rng.random()
                if r < 0.1:
                    t = float(rng.randrange(10))          # heavy ties
                elif r < 0.95:
                    t = rng.random() * 100.0
                else:
                    t = rng.random() * 1e6                # outliers
                cal.push(t, seq, seq)
                heapq.heappush(heap, (t, seq, seq))
                seq += 1
        while heap:
            cal_out.append(cal.pop())
            heap_out.append(heapq.heappop(heap))
        assert cal_out == heap_out
        assert len(cal) == 0

    def test_peek_matches_pop(self):
        rng = random.Random(7)
        q = CalendarQueue()
        for i in range(500):
            q.push(rng.random() * 50.0, i, i)
        while q:
            head = q.peek_time()
            assert q.pop()[0] == head


class TestEngineIntegration:
    def test_queue_kind_selection(self):
        assert Environment().queue_kind == "heap"
        assert Environment(queue="calendar").queue_kind == "calendar"
        assert Environment(queue="heap").queue_kind == "heap"
        with pytest.raises(ValueError):
            Environment(queue="wheel")

    def test_timeout_order_identical(self):
        rng = random.Random(3)
        delays = [rng.random() * 10.0 for _ in range(400)]
        fired = {}
        for kind in ("heap", "calendar"):
            env = Environment(queue=kind)
            order = []
            for i, d in enumerate(delays):
                env.call_later(d, lambda i=i: order.append((env.now, i)))
            env.run()
            fired[kind] = order
        assert fired["heap"] == fired["calendar"]

    def test_run_until_identical(self):
        for kind in ("heap", "calendar"):
            env = Environment(queue=kind)
            seen = []
            for d in (1.0, 2.0, 3.0, 4.0):
                env.call_later(d, lambda: seen.append(env.now))
            env.run(until=2.5)
            assert seen == [1.0, 2.0], kind
            assert env.now == 2.5
            assert env.pending == 2

    def test_processes_identical(self):
        # Self-rescheduling loops, as the sessions' segment loops are.
        def pinger(env, log, name, delay, n=10):
            log.append((env.now, name))
            if n > 1:
                env.call_later(delay, pinger, env, log, name, delay, n - 1)

        logs = {}
        for kind in ("heap", "calendar"):
            env = Environment(queue=kind)
            log = []
            for name, d in (("a", 0.3), ("b", 0.7), ("c", 1.1)):
                env.call_later(d, pinger, env, log, name, d)
            env.run()
            logs[kind] = log
        assert len(logs["heap"]) == 30
        assert logs["heap"] == logs["calendar"]
