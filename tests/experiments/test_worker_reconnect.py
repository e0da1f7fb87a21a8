"""Worker ``--reconnect``: surviving scheduler EOF with backoff.

A dialing worker historically exited the moment its scheduler hung up.
These tests pin the new behaviour — redial under the capped
exponential-backoff-with-jitter curve, reset after every established
connection, exit only on a clean ``bye`` — against a hand-rolled
scheduler on 127.0.0.1 real sockets.
"""

import gc
import os
import socket
import threading

import pytest

from repro.experiments.backends.protocol import recv_frame, send_frame
from repro.experiments.backends.worker import (
    DEFAULT_RECONNECT_BASE_S,
    DEFAULT_RECONNECT_MAX_S,
    reconnect_delay_s,
    run_worker,
)


def _open_fds():
    """How many descriptors this process holds; None without /proc."""
    try:
        return len(os.listdir("/proc/self/fd"))
    except OSError:
        return None


class TestReconnectDelay:
    def test_envelope_doubles_from_the_base(self):
        # Jitter pinned to its ceiling (u=1) exposes the raw envelope.
        assert reconnect_delay_s(1, u=1.0) == DEFAULT_RECONNECT_BASE_S
        assert reconnect_delay_s(2, u=1.0) == 2 * DEFAULT_RECONNECT_BASE_S
        assert reconnect_delay_s(3, u=1.0) == 4 * DEFAULT_RECONNECT_BASE_S

    def test_envelope_caps(self):
        assert reconnect_delay_s(50, u=1.0) == DEFAULT_RECONNECT_MAX_S
        # Attempt counts far past float-overflow territory still clamp.
        assert reconnect_delay_s(2**31, u=1.0) == DEFAULT_RECONNECT_MAX_S

    def test_jitter_spans_half_to_full_envelope(self):
        env = 2 * DEFAULT_RECONNECT_BASE_S
        assert reconnect_delay_s(2, u=0.0) == pytest.approx(env / 2)
        assert reconnect_delay_s(2, u=0.5) == pytest.approx(0.75 * env)
        for _ in range(20):
            d = reconnect_delay_s(2)
            assert env / 2 <= d <= env

    def test_zero_attempts_rejected(self):
        with pytest.raises(ValueError):
            reconnect_delay_s(0)


class TestReconnectLoop:
    def _scheduler(self, behaviours):
        """A fake scheduler: accept one connection per behaviour.

        ``"eof"`` hangs up right after the worker's hello; ``"bye"``
        answers it with a clean goodbye frame.
        """
        srv = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        srv.bind(("127.0.0.1", 0))
        srv.listen(len(behaviours))
        host, port = srv.getsockname()[:2]
        seen = []

        def serve():
            for behaviour in behaviours:
                sock, _ = srv.accept()
                with sock:
                    kind, payload = recv_frame(sock)
                    seen.append((kind, payload.get("worker")))
                    if behaviour == "bye":
                        send_frame(sock, "bye")
            srv.close()

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        return f"{host}:{port}", thread, seen

    def test_exits_without_reconnect_on_eof(self):
        addr, thread, seen = self._scheduler(["eof"])
        rc = run_worker(connect=addr, worker_id="w0", heartbeat_s=30.0)
        thread.join(timeout=5.0)
        assert rc == 0
        assert len(seen) == 1

    def test_redials_after_eof_until_bye(self):
        gc.collect()  # no stray socket gets finalised mid-count
        fds = _open_fds()
        addr, thread, seen = self._scheduler(["eof", "eof", "bye"])
        sleeps = []
        rc = run_worker(connect=addr, worker_id="w1", heartbeat_s=30.0,
                        reconnect=True, reconnect_base_s=0.01,
                        sleep=sleeps.append)
        thread.join(timeout=5.0)
        assert rc == 0
        assert [k for k, _ in seen] == ["hello"] * 3
        # One backoff sleep per redial; each connection was established,
        # so the curve reset and every delay sits on the first rung.
        assert len(sleeps) == 2
        assert all(0.005 <= d <= 0.01 for d in sleeps)
        # Each of the three connections closed every descriptor it
        # opened, its wake pair included.
        assert _open_fds() == fds

    def test_unreachable_scheduler_fails_fast_without_reconnect(self):
        srv = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        srv.bind(("127.0.0.1", 0))
        host, port = srv.getsockname()[:2]
        srv.close()  # nothing listens here any more
        rc = run_worker(connect=f"{host}:{port}", worker_id="w2",
                        dial_retry_s=0.0)
        assert rc == 1

    def test_reconnect_requires_connect_mode(self):
        with pytest.raises(ValueError):
            run_worker(listen="127.0.0.1:0", reconnect=True)
