"""Remote execution backend: loopback fabric integration tests.

Everything here runs against real sockets on 127.0.0.1 — launched
worker subprocesses, dialed worker daemons, and hand-rolled misbehaving
peers — asserting the fabric's two core promises: byte-identical
results versus inline execution, and recovery (requeue through the
``worker-crash`` taxonomy) when workers die or go silent mid-sweep.
"""

import os
import pickle
import re
import signal
import socket
import struct
import subprocess
import sys
import threading
import time

import pytest

from repro import __version__
from repro.experiments import RunConfig, run_named
from repro.experiments.api import ExperimentSpec, SweepTask
from repro.experiments.backends.protocol import (
    MAGIC,
    Channel,
    ProtocolError,
    format_addr,
    parse_addr,
    recv_frame,
    send_frame,
)
from repro.experiments.backends.remote import (
    RemoteBackend,
    RemoteFabricError,
)
from repro.experiments.backends.worker import serve_connection
from repro.experiments.cache import ResultCache
from repro.experiments.parallel import run_spec
from repro.experiments.resilience import ResilienceConfig
from repro.experiments.specs import merge_series_fragments
from repro.obs import Observability, TraceRecorder

SCALE = 0.02
SEED = 11

#: Launcher template whose workers heartbeat fast enough for the tight
#: liveness timeouts the drop tests use.
FAST_LAUNCHER = (f"{sys.executable} -m repro.cli worker "
                 "--connect {addr} --heartbeat-interval 0.2")


def probe_spec(params):
    return ExperimentSpec(
        name="remote-probe", description="d", tags=("t",),
        decompose=lambda scale, seed: [
            SweepTask("remote-probe", (p["index"],), "flaky_probe", p)
            for p in params],
        merge=lambda scale, seed, ordered: merge_series_fragments(ordered))


def clean_params(n=6):
    return [{"index": i, "value": float(i * 3)} for i in range(n)]


def run_bounded(fn, timeout_s=30.0):
    """Run ``fn`` in a thread; fail (instead of hanging the suite) if
    it is still running after ``timeout_s``."""
    box = {}

    def target():
        try:
            box["value"] = fn()
        except BaseException as exc:  # re-raised in the test thread
            box["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout_s)
    assert not thread.is_alive(), f"still blocked after {timeout_s}s"
    if "error" in box:
        raise box["error"]
    return box["value"]


def tree_bytes(root) -> dict:
    """Relative path -> bytes of every file under ``root``."""
    out = {}
    for dirpath, _dirs, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fp:
                out[os.path.relpath(path, root)] = fp.read()
    return out


class _CountingCache(ResultCache):
    """A result cache that counts its entry writes."""

    def __init__(self, root):
        super().__init__(root)
        self.puts = 0

    def put(self, digest, entry):
        self.puts += 1
        return super().put(digest, entry)


def _running(pid: int) -> bool:
    """Whether ``pid`` is a live process (a zombie is not)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="utf-8") as fp:
            return fp.read().rpartition(")")[2].split()[0] != "Z"
    except OSError:
        return False


def listening_worker(*args):
    """Start a ``cloudfog worker --listen`` daemon on an ephemeral port;
    returns the process and the address it printed."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "worker",
         "--listen", "127.0.0.1:0", *args],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    line = proc.stdout.readline()
    match = re.search(r"listening on (\S+)", line)
    if not match:
        proc.kill()
        proc.wait(timeout=10)
        proc.stdout.close()
        pytest.fail(f"no address line from worker: {line!r}")
    return proc, match.group(1)


class TestProtocol:
    def test_parse_and_format_addr(self):
        assert parse_addr("10.0.0.7:781") == ("10.0.0.7", 781)
        assert parse_addr(":7800") == ("127.0.0.1", 7800)
        assert format_addr(("10.0.0.7", 781)) == "10.0.0.7:781"
        with pytest.raises(ValueError):
            parse_addr("no-port")

    def test_ipv6_addr_parse_and_format(self):
        assert parse_addr("[::1]:9000") == ("::1", 9000)
        assert parse_addr("[fe80::2]:81") == ("fe80::2", 81)
        assert format_addr(("::1", 9000)) == "[::1]:9000"
        # format/parse roundtrip on a bracketed literal
        assert parse_addr(format_addr(("fe80::2", 81))) == ("fe80::2", 81)
        with pytest.raises(ValueError, match="bracket it"):
            parse_addr("::1:9000")  # bare IPv6 literal, ambiguous
        with pytest.raises(ValueError, match="empty bracketed"):
            parse_addr("[]:9000")

    def test_channel_meters_both_directions(self):
        a, b = socket.socketpair()
        tx, rx = Channel(a), Channel(b)
        try:
            sent = tx.send("task", {"data": "y" * 4096})
            assert rx.recv() == [("task", {"data": "y" * 4096})]
            assert tx.bytes_out == sent == rx.bytes_in
            assert sent > 4096  # raw on the wire: header + pickle
        finally:
            tx.close()
            rx.close()

    def test_frame_roundtrip(self):
        a, b = socket.socketpair()
        try:
            send_frame(a, "task", {"tid": 3, "params": [1.5, "x"]})
            send_frame(a, "heartbeat")
            assert recv_frame(b) == ("task", {"tid": 3,
                                              "params": [1.5, "x"]})
            assert recv_frame(b) == ("heartbeat", {})
        finally:
            a.close()
            b.close()

    def test_bad_magic_rejected(self):
        a, b = socket.socketpair()
        try:
            a.sendall(b"BOGUS-PROTOCOL-GARBAGE-LONG-ENOUGH")
            with pytest.raises(ProtocolError, match="bad frame magic"):
                recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_clean_eof_at_frame_boundary(self):
        a, b = socket.socketpair()
        a.close()
        try:
            with pytest.raises(EOFError):
                recv_frame(b)
        finally:
            b.close()


class TestLoopbackParity:
    def test_launched_workers_match_inline(self):
        inline = run_named("fig5a", SCALE, SEED)
        with RunConfig(backend="remote", launch=2) as cfg:
            remote = run_named("fig5a", SCALE, SEED, config=cfg)
        assert remote.digest == inline.digest
        assert ([s.to_dict() for s in remote.series]
                == [s.to_dict() for s in inline.series])
        assert remote.metrics == inline.metrics

    def test_traced_run_matches_inline_trace(self):
        def traced(cfg=None):
            obs = Observability(trace=TraceRecorder())
            run_named("fig5a", SCALE, SEED, obs=obs, config=cfg)
            return obs.digest()

        with RunConfig(backend="remote", launch=2) as cfg:
            remote_digest = traced(cfg)
        assert remote_digest == traced()

    def test_fabric_shared_across_runs_and_cache_is_artifact_store(
            self, tmp_path):
        with RunConfig(backend="remote", launch=2,
                       cache_dir=str(tmp_path / "cache")) as cfg:
            first = run_named("fig5a", SCALE, SEED, config=cfg)
            backend = cfg.make_backend()
            second = run_named("fig5b", SCALE, SEED, config=cfg)
            assert cfg.make_backend() is backend  # one fabric, both runs
        assert first.tasks_cached == 0
        # Worker-computed results landed in the scheduler-side cache: a
        # plain inline re-run is served entirely from it.
        warm = run_named(
            "fig5a", SCALE, SEED,
            config=RunConfig(cache_dir=str(tmp_path / "cache")))
        assert warm.tasks_cached == warm.tasks_total
        assert warm.digest == first.digest
        assert second.tasks_total > 0


class TestDialOutWorkers:
    def test_listening_daemons_serve_a_sweep(self):
        procs, addrs = [], []
        try:
            for i in range(2):
                proc = subprocess.Popen(
                    [sys.executable, "-m", "repro.cli", "worker",
                     "--listen", "127.0.0.1:0", "--once", "--id", f"w{i}"],
                    stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                    text=True)
                procs.append(proc)
                line = proc.stdout.readline()
                match = re.search(r"listening on (\S+)", line)
                assert match, f"no address line from worker: {line!r}"
                addrs.append(match.group(1))
            inline = run_named("fig5a", SCALE, SEED)
            with RunConfig(backend="remote",
                           workers=",".join(addrs)) as cfg:
                remote = run_named("fig5a", SCALE, SEED, config=cfg)
            assert remote.digest == inline.digest
            # --once: the bye at close() retires both daemons.
            for proc in procs:
                assert proc.wait(timeout=30) == 0
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()
                proc.stdout.close()


class TestWorkerLoss:
    def test_killed_worker_requeues_onto_survivor(self):
        # One of two launched worker daemons is SIGKILLed mid-sweep with
        # tasks in flight on it: they requeue onto the survivor, and the
        # digest is byte-identical to a run that never lost a worker.
        # Its slot process dies with it instead of holding the dead
        # daemon's connection open.
        backend = RemoteBackend(launch=2, launcher=FAST_LAUNCHER)
        # sleep_s shapes timing only; the payloads match the clean run.
        params = [dict(p, sleep_s=0.3) for p in clean_params(8)]
        clean = run_spec(probe_spec(clean_params(8)), SCALE, SEED)
        obs = Observability()
        slots = []

        def kill_one_worker():
            victim = backend._procs[0]
            deadline = time.monotonic() + 10
            while not slots and time.monotonic() < deadline:
                slots.extend(int(pid) for pid in subprocess.run(
                    ["pgrep", "-P", str(victim.pid)],
                    capture_output=True, text=True).stdout.split())
            victim.kill()

        with RunConfig(backend=backend, resilience=ResilienceConfig(
                max_retries=2, backoff_base_s=0.01)) as cfg:
            backend.start()
            timer = threading.Timer(0.6, kill_one_worker)
            timer.start()
            try:
                result = run_bounded(lambda: run_spec(
                    probe_spec(params), SCALE, SEED, config=cfg, obs=obs))
            finally:
                timer.join(5)
        orphans = [pid for pid in slots if _running(pid)]
        for pid in orphans:
            os.kill(pid, signal.SIGKILL)
        assert slots, "the killed worker had no slot process"
        assert not orphans, "a slot process outlived its daemon"
        assert result.ok
        assert result.tasks_retried >= 1
        assert result.digest == clean.digest
        snap = obs.metrics.snapshot()
        assert snap["harness.workers_lost"]["value"] >= 1

    def test_silent_worker_is_dropped_on_heartbeat_timeout(self):
        # A connected-but-frozen peer: says hello, accepts tasks, then
        # never sends another frame. The scheduler must declare it dead
        # after heartbeat_timeout_s and requeue its task elsewhere.
        self._assert_frozen_peer_dropped(mid_frame=False)

    def test_mid_frame_worker_is_dropped_on_heartbeat_timeout(self):
        # The same, but the peer writes 6 of a frame header's 8 bytes
        # after its first task and stops: the scheduler must not block
        # on the half-sent frame.
        self._assert_frozen_peer_dropped(mid_frame=True)

    def _assert_frozen_peer_dropped(self, mid_frame):
        srv = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        srv.bind(("127.0.0.1", 0))
        srv.listen(1)
        addr = format_addr(srv.getsockname()[:2])
        release = threading.Event()

        def frozen_peer():
            sock, _ = srv.accept()
            with sock:
                send_frame(sock, "hello", {"worker": "frozen", "pid": 0,
                                           "version": __version__,
                                           "slots": 1})
                try:
                    while recv_frame(sock)[0] != "task":
                        pass
                    if mid_frame:
                        sock.sendall(MAGIC + b"\x00\x00")  # 6 of 8 bytes
                        release.wait(60)
                        return
                    while recv_frame(sock):
                        pass  # swallow tasks, never reply
                except (EOFError, ProtocolError, OSError):
                    pass

        thread = threading.Thread(target=frozen_peer, daemon=True)
        thread.start()
        backend = RemoteBackend(
            workers=(addr,), launch=1, launcher=FAST_LAUNCHER,
            heartbeat_timeout_s=1.0)
        clean = run_spec(probe_spec(clean_params()), SCALE, SEED)

        def sweep():
            with RunConfig(
                    backend=backend,
                    resilience=ResilienceConfig(
                        max_retries=2, backoff_base_s=0.01)) as cfg:
                return run_spec(probe_spec(clean_params()), SCALE, SEED,
                                config=cfg)

        try:
            result = run_bounded(sweep)
        finally:
            release.set()
            srv.close()
        assert result.ok
        assert result.tasks_retried >= 1
        assert result.digest == clean.digest

    def test_silent_dial_in_does_not_stall_the_sweep(self):
        # Half a second into a sweep, a client connects to the
        # scheduler's listener and never speaks. It must wait in the
        # select set while the launched workers carry on: a blocking
        # hello read would age both past the 3 s heartbeat deadline.
        backend = RemoteBackend(launch=2, connect_timeout_s=6.0,
                                heartbeat_timeout_s=3.0)
        # sleep_s shapes timing only; the payloads match the clean run.
        params = [dict(p, sleep_s=0.5) for p in clean_params(8)]
        clean = run_spec(probe_spec(clean_params(8)), SCALE, SEED)
        probes = []
        obs = Observability()
        with RunConfig(backend=backend) as cfg:
            backend.start()
            timer = threading.Timer(0.5, lambda: probes.append(
                socket.create_connection(
                    parse_addr(backend.bound_address))))
            timer.start()
            try:
                result = run_bounded(lambda: run_spec(
                    probe_spec(params), SCALE, SEED, config=cfg, obs=obs))
            finally:
                timer.join(5)
                for probe in probes:
                    probe.close()
        assert probes, "the silent client never connected"
        assert result.ok
        assert result.digest == clean.digest
        assert "harness.workers_lost" not in obs.metrics.snapshot()

    def test_slot_crash_requeues_without_losing_daemon(self, tmp_path):
        # Task 2 SIGKILLs its *slot process* inside a one-slot and a
        # two-slot worker. The daemon must survive (pool rebuild),
        # report the in-flight tasks as worker-crash error frames, and
        # the requeued retries must land a digest byte-identical to a
        # crash-free run — without the scheduler ever counting a lost
        # worker.
        clean = run_spec(probe_spec(clean_params()), SCALE, SEED)
        for slots in (1, 2):
            params = clean_params()
            params[2].update({"mode": "crash", "fail_attempts": 1,
                              "state_dir": str(tmp_path / f"state{slots}")})
            launcher = (f"{sys.executable} -m repro.cli worker "
                        f"--connect {{addr}} --slots {slots} "
                        "--heartbeat-interval 0.2")
            obs = Observability()
            with RunConfig(
                    backend="remote", launch=1, launcher=launcher,
                    resilience=ResilienceConfig(max_retries=3,
                                                backoff_base_s=0.01)) as cfg:
                result = run_spec(probe_spec(params), SCALE, SEED,
                                  config=cfg, obs=obs)
            assert result.ok
            assert result.tasks_retried >= 1
            assert result.digest == clean.digest
            snap = obs.metrics.snapshot()
            assert snap["harness.worker_crashes"]["value"] >= 1
            # the daemon itself never died — only a slot inside it
            assert "harness.workers_lost" not in snap, f"slots={slots}"

    def test_version_skewed_worker_is_rejected(self):
        srv = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        srv.bind(("127.0.0.1", 0))
        srv.listen(1)
        addr = format_addr(srv.getsockname()[:2])

        def stale_peer():
            sock, _ = srv.accept()
            with sock:
                send_frame(sock, "hello", {"worker": "stale", "pid": 0,
                                           "version": "0.0.0-ancient",
                                           "slots": 1})
                try:
                    recv_frame(sock)
                except (EOFError, ProtocolError, OSError):
                    pass

        thread = threading.Thread(target=stale_peer, daemon=True)
        thread.start()
        cfg = RunConfig(backend="remote", workers=(addr,))
        try:
            with pytest.raises(RemoteFabricError,
                               match="runs version '0.0.0-ancient'"):
                run_spec(probe_spec(clean_params()), SCALE, SEED,
                         config=cfg)
        finally:
            cfg.close()
            srv.close()


def _ipv6_loopback_available() -> bool:
    if not socket.has_ipv6:
        return False
    try:
        probe = socket.socket(socket.AF_INET6, socket.SOCK_STREAM)
        probe.bind(("::1", 0))
        probe.close()
        return True
    except OSError:
        return False


class TestThroughputFabric:
    """Multi-slot workers, pipelining, cached frames."""

    def test_multislot_matches_inline(self):
        inline = run_named("fig5a", SCALE, SEED)
        backend = RemoteBackend(launch=2, slots=2)
        with RunConfig(backend=backend) as cfg:
            remote = run_named("fig5a", SCALE, SEED, config=cfg)
        assert remote.digest == inline.digest
        assert ([s.to_dict() for s in remote.series]
                == [s.to_dict() for s in inline.series])
        assert remote.metrics == inline.metrics
        stats = backend.wire_stats()
        assert stats["sent"] > 0 and stats["recv"] > 0

    def test_multislot_traced_run_matches_inline_trace(self):
        def traced(cfg=None):
            obs = Observability(trace=TraceRecorder())
            run_named("fig5a", SCALE, SEED, obs=obs, config=cfg)
            return obs.digest()

        with RunConfig(backend="remote", launch=2, slots=2) as cfg:
            remote_digest = traced(cfg)
        assert remote_digest == traced()

    def test_prefetch_zero_matches_inline(self):
        inline = run_named("fig5a", SCALE, SEED)
        with RunConfig(backend="remote", launch=2, prefetch=0) as cfg:
            remote = run_named("fig5a", SCALE, SEED, config=cfg)
        assert remote.digest == inline.digest
        assert remote.metrics == inline.metrics

    def test_results_return_when_the_slot_frees(self):
        # One slot and no prefetch: the scheduler sends each task only
        # once the last result is back, so a result that waits in the
        # worker for a poll costs that poll on every task.
        with RunConfig(backend="remote", launch=1, slots=1,
                       prefetch=0) as cfg:
            run_spec(probe_spec(clean_params(2)), SCALE, SEED, config=cfg)
            t0 = time.perf_counter()
            result = run_spec(probe_spec(clean_params(20)), SCALE, SEED,
                              config=cfg)
            elapsed = time.perf_counter() - t0
        assert result.ok
        assert elapsed < 0.5, f"20 no-op tasks took {elapsed:.3f}s"

    def test_back_to_back_replies_are_not_delayed(self):
        # Two ``have`` frames in one segment get two hash-only replies
        # sent back to back. With Nagle on the worker's side, the second
        # reply waits for the scheduler's delayed ACK of the first.
        srv = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        srv.bind(("127.0.0.1", 0))
        srv.listen(1)
        sched = socket.create_connection(srv.getsockname()[:2], timeout=10)
        conn, _ = srv.accept()
        srv.close()
        sched.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        worker = threading.Thread(target=serve_connection,
                                  args=(conn, "prompt"), daemon=True)
        worker.start()

        def have(index):
            blob = pickle.dumps(("task", {
                "tid": index, "index": index, "task": None,
                "scale": SCALE, "seed": SEED, "capture": False,
                "digest": f"{index:064x}", "have": True}))
            return MAGIC + struct.pack(">I", len(blob)) + blob

        try:
            assert recv_frame(sched)[0] == "hello"
            assert conn.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
            cached = []
            t0 = time.perf_counter()
            for first in range(0, 50, 2):
                sched.sendall(have(first) + have(first + 1))
                while len(cached) < first + 2:
                    kind, payload = recv_frame(sched)
                    if kind == "cached":
                        cached.append(payload["index"])
            elapsed = time.perf_counter() - t0
            send_frame(sched, "bye")
        finally:
            sched.close()
            worker.join(10)
            conn.close()
        assert not worker.is_alive()
        assert cached == list(range(50))
        assert elapsed < 0.5, f"50 cached replies took {elapsed:.3f}s"

    def test_cfw1_peer_is_refused_at_its_first_frame(self):
        # Workers from before the current framing open with a CFW1
        # frame (b"CFW1" + >I length + pickle) or a CFW2 one (b"CFW2" +
        # >B codec + >I length + pickle). Their version string matches,
        # so only the framing can turn them away.
        blob = pickle.dumps(("hello", {"worker": "legacy", "pid": 0,
                                       "version": __version__}))
        for frame in (b"CFW1" + struct.pack(">I", len(blob)) + blob,
                      b"CFW2" + struct.pack(">BI", 0, len(blob)) + blob):
            srv = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            srv.bind(("127.0.0.1", 0))
            srv.listen(1)
            addr = format_addr(srv.getsockname()[:2])

            def legacy_peer(frame=frame, srv=srv):
                sock, _ = srv.accept()
                with sock:
                    sock.settimeout(10)
                    sock.sendall(frame)
                    try:
                        sock.recv(1)  # until the scheduler hangs up
                    except OSError:
                        pass

            thread = threading.Thread(target=legacy_peer, daemon=True)
            thread.start()
            backend = RemoteBackend(workers=(addr,))
            try:
                with pytest.raises(RemoteFabricError,
                                   match=f"bad frame magic {frame[:4]!r}"):
                    backend.start()
            finally:
                backend.close()
                srv.close()
            thread.join(10)
            assert not thread.is_alive()

    def test_dialed_and_launched_workers_match_inline(self, tmp_path):
        # A dialed --listen daemon beside a launched worker: the merged
        # run must stay byte-identical to inline. Each worker banks
        # what it computed in its own --cache-dir, which shows both
        # served tasks.
        dialed_cache = tmp_path / "dialed"
        launched_cache = tmp_path / "launched"
        proc, addr = listening_worker("--id", "dialed",
                                      "--cache-dir", str(dialed_cache))
        try:
            inline = run_named("fig5a", SCALE, SEED)
            backend = RemoteBackend(
                workers=(addr,), launch=1,
                launcher=(f"{sys.executable} -m repro.cli worker "
                          f"--connect {{addr}} --cache-dir {launched_cache}"))
            with RunConfig(backend=backend,
                           cache_dir=str(tmp_path / "store")) as cfg:
                remote = run_named("fig5a", SCALE, SEED, config=cfg)
        finally:
            proc.terminate()
            proc.wait(timeout=10)
            proc.stdout.close()
        assert remote.digest == inline.digest
        assert remote.metrics == inline.metrics
        banked = [len(ResultCache(str(root)))
                  for root in (dialed_cache, launched_cache)]
        assert min(banked) >= 1
        assert sum(banked) == remote.tasks_total

    def test_warm_rerun_ships_hashes_not_blobs(self, tmp_path):
        # Cold run fills the scheduler store; a warm re-run with a
        # metrics-only obs context (cache reads bypassed) dispatches
        # every task with ``have`` set, so workers answer with
        # hash-only cached frames and the response bytes collapse.
        backend = RemoteBackend(launch=2, slots=2)
        with RunConfig(backend=backend,
                       cache_dir=str(tmp_path / "store")) as cfg:
            cold = run_named("fig5a", SCALE, SEED, config=cfg)
            w_cold = backend.wire_stats()
            obs = Observability()
            warm = run_named("fig5a", SCALE, SEED, config=cfg, obs=obs)
            w_warm = backend.wire_stats()
        assert warm.digest == cold.digest
        assert warm.metrics == cold.metrics
        assert warm.tasks_cached == 0  # reads were bypassed, not served
        snap = obs.metrics.snapshot()
        assert (snap["harness.cached_frames"]["value"]
                == warm.tasks_total)
        cold_recv = w_cold["recv"]
        warm_recv = w_warm["recv"] - w_cold["recv"]
        assert warm_recv < cold_recv * 0.6
        assert snap["harness.wire_bytes_recv"]["value"] == warm_recv

    def test_cached_frames_do_not_rewrite_the_store(self, tmp_path):
        # A hash-only reply is redeemed from the scheduler's store, which
        # already holds the entry: the warm re-run writes nothing.
        cache = _CountingCache(str(tmp_path / "store"))
        with RunConfig(backend=RemoteBackend(launch=1, slots=2),
                       cache=cache) as cfg:
            cold = run_named("dynamics", 0.1, 168, config=cfg)
            cold_puts = cache.puts
            obs = Observability()
            warm = run_named("dynamics", 0.1, 168, config=cfg, obs=obs)
        assert cold_puts == cold.tasks_total
        assert cache.puts - cold_puts == 0
        assert warm.digest == cold.digest
        assert warm.metrics == cold.metrics
        snap = obs.metrics.snapshot()
        assert (snap["harness.cached_frames"]["value"]
                == warm.tasks_total)

    def test_worker_local_cache_replays_across_schedulers(self, tmp_path):
        # A --cache-dir worker keeps result cache entries keyed by the
        # scheduler's task digests, in the scheduler's format: a second
        # scheduler with a fresh (empty) store still gets byte-identical
        # results, served from the worker's local cache.
        wcache = tmp_path / "worker-cache"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "worker",
             "--listen", "127.0.0.1:0", "--id", "cachy",
             "--cache-dir", str(wcache)],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        try:
            line = proc.stdout.readline()
            match = re.search(r"listening on (\S+)", line)
            assert match, f"no address line from worker: {line!r}"
            addr = match.group(1)
            with RunConfig(backend="remote", workers=(addr,),
                           cache_dir=str(tmp_path / "s1")) as cfg:
                first = run_named("fig5a", SCALE, SEED, config=cfg)
            banked = tree_bytes(wcache)
            assert len(banked) == first.tasks_total
            # One entry format: the worker's entries are the store's.
            assert banked == tree_bytes(tmp_path / "s1")
            with RunConfig(backend="remote", workers=(addr,),
                           cache_dir=str(tmp_path / "s2")) as cfg:
                second = run_named("fig5a", SCALE, SEED, config=cfg)
            assert second.digest == first.digest
            assert second.metrics == first.metrics
            assert tree_bytes(tmp_path / "s2") == banked
        finally:
            proc.terminate()
            proc.wait(timeout=10)
            proc.stdout.close()

    def test_scheduler_silence_returns_worker_to_accepting(self):
        # A fake scheduler reads the worker's hello, then goes mute
        # without closing the socket. The worker must abandon the
        # connection on its own and return to accepting, where a real
        # scheduler then gets a full sweep.
        self._assert_worker_abandons_stalled_scheduler(half_frame=False)

    def test_half_frame_scheduler_returns_worker_to_accepting(self):
        # The same, but the fake scheduler first writes 6 of a frame
        # header's 8 bytes: the worker must not block on the rest.
        self._assert_worker_abandons_stalled_scheduler(half_frame=True)

    def _assert_worker_abandons_stalled_scheduler(self, half_frame):
        proc, addr = listening_worker(
            "--id", "patient", "--scheduler-timeout", "1.0",
            "--heartbeat-interval", "0.2")
        try:
            fake = socket.create_connection(parse_addr(addr), timeout=10)
            fake.settimeout(10)
            kind, _hello = recv_frame(fake)
            assert kind == "hello"
            if half_frame:
                fake.sendall(MAGIC + b"\x00\x00")
            t0 = time.monotonic()
            dropped = False
            try:
                while time.monotonic() - t0 < 10:
                    recv_frame(fake)  # drain heartbeats until the drop
            except (EOFError, ProtocolError, OSError):
                dropped = True
            fake.close()
            assert dropped, "worker never abandoned the mute scheduler"
            assert time.monotonic() - t0 < 8

            # ...and it is accepting again: a real fabric (pulsing
            # faster than the 1s deadline) completes a sweep.
            inline = run_named("fig5a", SCALE, SEED)
            backend = RemoteBackend(workers=(addr,),
                                    heartbeat_interval_s=0.3)
            with RunConfig(backend=backend) as cfg:
                remote = run_named("fig5a", SCALE, SEED, config=cfg)
            assert remote.digest == inline.digest
        finally:
            proc.terminate()
            proc.wait(timeout=10)
            proc.stdout.close()

    def test_terminated_multislot_worker_reaps_its_slot_pool(self):
        # SIGTERM on a multi-slot daemon (how the scheduler tears down
        # launched workers) must take the slot processes with it —
        # orphans would hold inherited pipes open long after the sweep.
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "worker",
             "--listen", "127.0.0.1:0", "--id", "doomed", "--slots", "2"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        try:
            line = proc.stdout.readline()
            match = re.search(r"listening on (\S+)", line)
            assert match, f"no address line from worker: {line!r}"
            addr = match.group(1)
            # Hand-rolled scheduler: handshake, then park a long task
            # on the daemon so the slot pool actually spawns children.
            fake = socket.create_connection(parse_addr(addr), timeout=10)
            recv_frame(fake)  # the worker's hello
            send_frame(fake, "task", {
                "tid": 1, "index": 0,
                "task": SweepTask("doom", (0,), "flaky_probe",
                                  {"index": 0, "sleep_s": 30}),
                "scale": 0.05, "seed": SEED, "capture": False,
                "digest": None, "have": False})
            time.sleep(1.5)  # let the pool spawn and adopt the task
            assert subprocess.run(
                ["pgrep", "-f", "id doomed"],
                capture_output=True).stdout.count(b"\n") >= 2
            proc.terminate()
            assert proc.wait(timeout=10) != 0  # SystemExit(143) path
            fake.close()
            deadline = time.monotonic() + 10
            alive = True
            while time.monotonic() < deadline:
                alive = subprocess.run(
                    ["pgrep", "-f", "id doomed"],
                    capture_output=True).returncode == 0
                if not alive:
                    break
                time.sleep(0.2)
            assert not alive, "slot processes outlived their daemon"
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.stdout.close()

    @pytest.mark.skipif(not _ipv6_loopback_available(),
                        reason="no IPv6 loopback")
    def test_ipv6_loopback_fabric(self):
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "worker",
             "--listen", "[::1]:0", "--once", "--id", "v6"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        try:
            line = proc.stdout.readline()
            match = re.search(r"listening on (\S+)", line)
            assert match, f"no address line from worker: {line!r}"
            addr = match.group(1)
            assert addr.startswith("[")  # bracketed, parse_addr-ready
            inline = run_named("fig5a", SCALE, SEED)
            with RunConfig(backend="remote", workers=(addr,)) as cfg:
                remote = run_named("fig5a", SCALE, SEED, config=cfg)
            assert remote.digest == inline.digest
            assert proc.wait(timeout=30) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.stdout.close()
