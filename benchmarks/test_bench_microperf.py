"""Micro-performance benches for the hot paths.

The coverage experiments scan a 10 000 x 600 latency matrix and the
session simulation pushes hundreds of thousands of events through the
DES kernel. These benches pin the throughput of both so a performance
regression in either shows up as a benchmark delta (the HPC guide's
"track performance over time").
"""

import numpy as np

from repro.network.latency import LatencyModel, LatencyParams
from repro.sim.engine import Environment


def test_latency_matrix_throughput(benchmark):
    """Vectorized RTT matrix: the coverage scans' O(N·M) hot path."""
    rng = np.random.default_rng(0)
    positions = rng.uniform(0, 4000, size=(10_600, 2))
    model = LatencyModel(positions, rng, LatencyParams())
    players = np.arange(10_000)
    sites = np.arange(10_000, 10_600)

    result = benchmark(lambda: model.rtt_matrix_s(players, sites))
    assert result.shape == (10_000, 600)
    assert np.all(result >= 0)


def test_event_loop_throughput(benchmark):
    """DES kernel: timer churn through the heap."""
    N = 20_000

    def run():
        env = Environment()
        fired = [0]

        def ping():
            fired[0] += 1
            if fired[0] < N:
                env.call_later(0.001, ping)

        env.call_later(0.001, ping)
        env.run()
        return fired[0]

    assert benchmark(run) == N


def test_scheduler_enqueue_throughput(benchmark):
    """Deadline buffer enqueue + Eq. 14 rebalance under backlog."""
    from repro.core.scheduling import DeadlineSenderBuffer
    from repro.network.packet import PACKET_PAYLOAD_BYTES, VideoSegment

    def run():
        buf = DeadlineSenderBuffer(18e6)
        for k in range(2_000):
            seg = VideoSegment(
                player_id=k % 20, quality_level=3,
                size_bytes=PACKET_PAYLOAD_BYTES * 8, duration_s=0.1,
                action_time_s=k * 0.005, latency_req_s=0.09,
                loss_tolerance=0.2)
            buf.enqueue(seg, now_s=k * 0.005)
            if k % 4 == 0:
                buf.dequeue(now_s=k * 0.005)
        return buf.enqueued

    assert benchmark(run) == 2_000


def test_scheduler_drain_throughput(benchmark):
    """Deadline buffer bulk drain: the index-cursor dequeue.

    Builds a deep backlog and drains it completely; with the old
    ``list.pop(0)`` dequeue this is O(n²) and the benchmark delta
    explodes, with the cursor it stays O(n). Dropping is disabled so the
    bench isolates the queue discipline from the Eq. 14 estimate pass.
    """
    from repro.core.scheduling import DeadlineSenderBuffer, SchedulingParams
    from repro.network.packet import PACKET_PAYLOAD_BYTES, VideoSegment

    N = 4_000

    def run():
        buf = DeadlineSenderBuffer(
            18e6, params=SchedulingParams(enable_dropping=False))
        for k in range(N):
            seg = VideoSegment(
                player_id=k % 20, quality_level=3,
                size_bytes=PACKET_PAYLOAD_BYTES * 8, duration_s=0.1,
                action_time_s=k * 0.005, latency_req_s=10.0,
                loss_tolerance=0.0)
            buf.enqueue(seg, now_s=k * 0.005)
        drained = 0
        while buf.dequeue() is not None:
            drained += 1
        return drained

    assert benchmark(run) == N


def test_propagation_estimator_throughput(benchmark):
    """Eq. 13 estimator: bounded-window record/estimate churn."""
    from repro.core.scheduling import PropagationEstimator

    N = 50_000

    def run():
        est = PropagationEstimator(window=10)
        total = 0.0
        for k in range(N):
            est.record(k % 40, 0.001 * (k % 97))
            if k % 8 == 0:
                total += est.estimate(k % 40)
        return total

    assert benchmark(run) > 0
