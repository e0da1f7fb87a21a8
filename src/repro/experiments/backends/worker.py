"""Sweep worker daemon: executes pickled tasks for a remote scheduler.

Two connection modes, mirroring the scheduler's
(:class:`~repro.experiments.backends.remote.RemoteBackend`):

* ``run_worker(connect="HOST:PORT")`` — dial the scheduler (retrying
  briefly so workers may start before it listens), serve that one
  scheduler, exit when it closes the connection. This is what the
  scheduler's worker launcher spawns. With ``reconnect=True`` the
  worker survives the scheduler instead: on EOF or silence it redials
  with capped exponential backoff plus jitter (the
  :class:`~repro.experiments.resilience.ResilienceConfig` backoff
  curve), resets the backoff after every established connection, and
  only exits on a clean ``bye``. Long-lived fleet workers use this to
  ride out scheduler restarts.
* ``run_worker(listen="HOST:PORT")`` — bind, print the bound address
  (``worker <id> listening on HOST:PORT``) and serve schedulers one
  connection at a time; with ``once=True`` exit after the first
  scheduler disconnects (CI smoke daemons clean themselves up).

**Slots.** Every task runs in the worker's pool of ``slots`` slot
processes (:class:`~repro.experiments.resilience.PoolManager`, the
same slot pool the pool backend drives; ``slots=1`` is a one-process
pool). The worker advertises the count in its hello so the scheduler
keeps every slot busy, and sends each result back the moment its slot
finishes: every slot future writes a byte to a socket pair that the
select loop waits on beside the scheduler's socket. The connection
runs with ``TCP_NODELAY``, as on the scheduler's side, so a reply sent
right after another does not wait for a delayed ACK. Every task runs
through :func:`~repro.experiments.backends.base.execute_task` — the same
function the inline and pool backends call, which is half of the
determinism argument (the other half is the scheduler's task-order
merge). A slot process that dies (SIGKILL, OOM) breaks the slot pool:
tasks that finished first are still sent back, the rest are reported
as ``worker-crash`` error frames, and the pool is rebuilt — the
daemon itself survives. Slot processes die on SIGTERM, not through
the daemon's SystemExit handler, so a terminated daemon reaps them.

**Local result cache.** With ``cache_dir=`` the worker keeps a
:class:`~repro.experiments.cache.ResultCache` keyed by the
scheduler-computed task digest, in the scheduler's entry format: a
warm worker replays a task it computed before from disk instead of
recomputing it, and its entry for a digest is byte-identical to the
scheduler's. Independently of that cache, when the task frame says the
scheduler's own store already holds the result (``have``), the worker
answers with a hash-only ``cached`` frame — warm re-runs ship hashes,
not megabytes. Trace-capturing tasks bypass both (a cached payload
cannot carry another run's trace events).

**Liveness, both directions.** The select loop never blocks on a task:
it blocks until a frame arrives, a slot finishes or a heartbeat is
due. So it heartbeats worker → scheduler every ``heartbeat_s`` and the
scheduler can tell "busy with a long task" from "frozen". The
scheduler pulses back, which feeds the worker's *scheduler-silence
deadline*: it runs from the moment the connection opens, and if no
bytes at all arrive within ``scheduler_timeout_s`` the worker declares
the scheduler dead, abandons the connection and (under ``--listen``)
returns to accepting — instead of hanging on a socket whose peer
vanished without a FIN, stalled mid-frame, or connected and never
spoke. Frames are read through :meth:`Channel.recv`, which buffers a
partial frame, so the select loop never blocks on one.

A task that raises is reported as an ``error`` frame (the scheduler
maps it onto the ``exception`` failure kind and retries elsewhere); a
task that kills its slot process is reported as ``worker-crash`` — the
pool backend's taxonomy. A worker process that dies drops the
connection, which the scheduler also maps onto ``worker-crash``.
"""

from __future__ import annotations

import os
import random
import select
import signal
import socket
import sys
import time
from typing import Optional

from repro import __version__
from repro.experiments.backends.base import execute_task
from repro.experiments.backends.protocol import (
    Channel,
    ProtocolError,
    format_addr,
    parse_addr,
)
from repro.experiments.cache import ResultCache
from repro.experiments.resilience import PoolManager, ResilienceConfig

#: Seconds between heartbeat frames while serving a scheduler.
DEFAULT_HEARTBEAT_S = 2.0

#: How long a dialing worker keeps retrying an unreachable scheduler.
DEFAULT_DIAL_RETRY_S = 15.0

#: Scheduler-silence deadline: tripped when no bytes arrive from the
#: scheduler for this long, counted from the moment the connection
#: opens.
DEFAULT_SCHEDULER_TIMEOUT_S = 30.0

#: Reconnect backoff (``--reconnect``): first delay, doubling per
#: consecutive failure up to the cap.
DEFAULT_RECONNECT_BASE_S = 0.5
DEFAULT_RECONNECT_MAX_S = 30.0


def reconnect_delay_s(failures: int,
                      base_s: float = DEFAULT_RECONNECT_BASE_S,
                      cap_s: float = DEFAULT_RECONNECT_MAX_S,
                      u: Optional[float] = None) -> float:
    """Delay before reconnect attempt ``failures`` (1-based), jittered.

    The deterministic envelope is the sweep retry curve
    (:meth:`ResilienceConfig.backoff_s`) capped at ``cap_s``; equal
    jitter then draws uniformly from ``[envelope/2, envelope]`` so a
    fleet of workers orphaned by one scheduler crash does not redial in
    lockstep. ``u`` pins the uniform draw for tests.
    """
    if failures < 1:
        raise ValueError("failures must be >= 1")
    policy = ResilienceConfig(backoff_base_s=base_s, backoff_factor=2.0)
    try:
        envelope = min(policy.backoff_s(failures), cap_s)
    except OverflowError:
        envelope = cap_s
    if u is None:
        u = random.random()
    return envelope * (0.5 + 0.5 * u)


def _log(message: str) -> None:
    print(f"[worker] {message}", file=sys.stderr, flush=True)


def serve_connection(sock: socket.socket, worker_id: str,
                     heartbeat_s: float = DEFAULT_HEARTBEAT_S,
                     slots: int = 1,
                     cache: Optional[ResultCache] = None,
                     scheduler_timeout_s: float =
                     DEFAULT_SCHEDULER_TIMEOUT_S) -> str:
    """Serve one scheduler over ``sock`` until it disconnects.

    Returns a short reason string (``"bye"`` / ``"eof"`` /
    ``"silent"``).
    """
    slots = max(1, int(slots))
    # Small frames leave at once: without this a reply sent right after
    # another waits for the scheduler's delayed ACK (Nagle).
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    channel = Channel(sock)
    channel.send("hello", {
        "worker": worker_id,
        "pid": os.getpid(),
        "version": __version__,
        "slots": slots,
    })

    pool = PoolManager(slots)
    inflight: dict = {}  # future -> task frame payload
    # Every slot future writes a byte to ``waker`` as it finishes, so
    # the select loop wakes the moment a result exists.
    wake, waker = socket.socketpair()
    wake.setblocking(False)
    waker.setblocking(False)
    last_heard = time.monotonic()
    next_beat = last_heard + heartbeat_s

    def reply(payload: dict) -> Optional[tuple[str, dict]]:
        """Resolve a task frame without executing, if possible."""
        head = {"tid": payload["tid"], "index": payload["index"]}
        digest = payload.get("digest")
        if not digest or payload.get("capture"):
            return None
        if payload.get("have"):
            # The scheduler's store already holds this digest's result:
            # confirm by hash, ship nothing.
            return "cached", {**head, "digest": digest}
        if cache is not None:
            hit = cache.get_payload(digest)
            if hit is not None:
                return "result", {**head, "payload": hit}
        return None

    def outcome(payload: dict, failure: Optional[str],
                value) -> tuple[str, dict]:
        """Package a finished task: its result, warming the local cache,
        or — ``failure`` naming the kind — an error frame."""
        head = {"tid": payload["tid"], "index": payload["index"]}
        if failure is not None:
            return "error", {**head, "kind": failure, "message": value}
        digest = payload.get("digest")
        if digest and cache is not None and not payload.get("capture"):
            cache.put_payload(digest, value)
        return "result", {**head, "payload": value}

    def ring(_future) -> None:
        try:
            waker.send(b"\0")
        except OSError:  # full: a wake is already pending
            pass

    def pump_pool() -> None:
        """Stream finished slot results back. A dead slot process breaks
        the pool: ``collect`` salvages what finished, reports the rest as
        ``worker-crash`` and rebuilds — the daemon itself survives."""
        for fut, failure, value in pool.collect(list(inflight), 0.0):
            if failure == "worker-crash":
                value += f" on worker {worker_id}"
            channel.send(*outcome(inflight.pop(fut), failure, value))

    try:
        while True:
            if inflight:
                pump_pool()
            nowm = time.monotonic()
            if nowm >= next_beat:
                channel.send("heartbeat")
                next_beat = nowm + heartbeat_s
            try:
                readable, _, _ = select.select(
                    [sock, wake], [], [], min(0.25, next_beat - nowm))
            except OSError:
                return "eof"
            if wake in readable:
                wake.recv(4096)  # a slot finished: pump it next pass
            if sock not in readable:
                # Checked only after a wait the scheduler was quiet
                # through: bytes that queued while the loop was busy
                # are not silence.
                if (scheduler_timeout_s
                        and time.monotonic() - last_heard
                        > scheduler_timeout_s):
                    return "silent"
                continue
            try:
                frames = channel.recv()
            except (EOFError, ProtocolError, OSError):
                return "eof"
            last_heard = time.monotonic()
            for kind, payload in frames:
                if kind == "bye":
                    return "bye"
                if kind != "task":
                    continue  # heartbeat / future frame kinds
                resolved = reply(payload)
                if resolved is not None:
                    channel.send(*resolved)
                else:
                    future = pool.submit(
                        execute_task, payload["task"], payload["scale"],
                        payload["seed"], payload.get("capture", False))
                    future.add_done_callback(ring)
                    inflight[future] = payload
    except OSError:
        return "eof"
    finally:
        # The shutdown joins the executor's thread, which runs ``ring``:
        # no callback can write to the pair once it is closed.
        pool.shutdown(terminate=True)
        wake.close()
        waker.close()


def _exit_on_sigterm(signum, frame):  # pragma: no cover - signal path
    raise SystemExit(128 + signum)


def _dial(addr: tuple[str, int], retry_s: float) -> socket.socket:
    deadline = time.monotonic() + retry_s
    while True:
        try:
            return socket.create_connection(addr, timeout=5.0)
        except OSError:
            if time.monotonic() >= deadline:
                raise
            time.sleep(0.2)


def run_worker(connect: Optional[str] = None,
               listen: Optional[str] = None,
               worker_id: Optional[str] = None,
               once: bool = False,
               heartbeat_s: float = DEFAULT_HEARTBEAT_S,
               dial_retry_s: float = DEFAULT_DIAL_RETRY_S,
               slots: int = 1,
               cache_dir: Optional[str] = None,
               scheduler_timeout_s: float =
               DEFAULT_SCHEDULER_TIMEOUT_S,
               reconnect: bool = False,
               reconnect_base_s: float = DEFAULT_RECONNECT_BASE_S,
               reconnect_max_s: float = DEFAULT_RECONNECT_MAX_S,
               sleep=time.sleep) -> int:
    """Run a worker daemon; returns a process exit code.

    Exactly one of ``connect`` (dial the scheduler) and ``listen``
    (await schedulers) must be given. ``slots`` sizes the worker's
    slot pool; ``cache_dir`` enables the local result cache;
    ``scheduler_timeout_s`` is the scheduler-silence deadline (0
    disables it). With ``reconnect=True`` a ``connect`` worker redials
    after EOF/silence under :func:`reconnect_delay_s` backoff and only
    exits on a clean ``bye``; ``sleep`` is injectable for tests.
    """
    if bool(connect) == bool(listen):
        raise ValueError("pass exactly one of connect= or listen=")
    if slots < 1:
        raise ValueError(f"slots must be >= 1, got {slots}")
    if reconnect and not connect:
        raise ValueError("reconnect requires connect= mode")
    worker_id = worker_id or f"{socket.gethostname()}-{os.getpid()}"
    cache = ResultCache(cache_dir) if cache_dir else None

    # Die *through* the cleanup path on SIGTERM: the scheduler tears
    # launched workers down with terminate(), and a daemon killed
    # mid-serve would otherwise orphan its slot processes —
    # which keep inherited stdout/stderr pipes open long after the
    # sweep, wedging any pipeline the scheduler's process ran under.
    try:
        signal.signal(signal.SIGTERM, _exit_on_sigterm)
    except (ValueError, OSError):  # non-main thread or odd platform
        pass

    def serve(sock: socket.socket) -> str:
        sock.settimeout(None)
        return serve_connection(
            sock, worker_id, heartbeat_s, slots=slots, cache=cache,
            scheduler_timeout_s=scheduler_timeout_s)

    if connect:
        addr = parse_addr(connect)
        failures = 0
        while True:
            try:
                sock = _dial(addr, dial_retry_s)
            except OSError as exc:
                _log(f"{worker_id}: cannot reach scheduler at "
                     f"{format_addr(addr)}: {exc}")
                if not reconnect:
                    return 1
                failures += 1
                delay = reconnect_delay_s(
                    failures, reconnect_base_s, reconnect_max_s)
                _log(f"{worker_id}: redial #{failures} in {delay:.2f}s")
                sleep(delay)
                continue
            failures = 0  # an established connection resets the curve
            with sock:
                reason = serve(sock)
            _log(f"{worker_id}: scheduler at {format_addr(addr)} "
                 f"disconnected ({reason})")
            if not reconnect or reason == "bye":
                return 0
            failures += 1
            delay = reconnect_delay_s(
                failures, reconnect_base_s, reconnect_max_s)
            _log(f"{worker_id}: reconnecting in {delay:.2f}s")
            sleep(delay)

    host, port = parse_addr(listen)
    srv = socket.socket(
        socket.AF_INET6 if ":" in host else socket.AF_INET,
        socket.SOCK_STREAM)
    srv.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    srv.bind((host, port))
    srv.listen(1)
    bound = srv.getsockname()[:2]
    # The parseable line launchers and tests discover the port from.
    print(f"worker {worker_id} listening on {format_addr(bound)}",
          flush=True)
    try:
        while True:
            sock, peer = srv.accept()
            with sock:
                reason = serve(sock)
            _log(f"{worker_id}: scheduler "
                 f"{format_addr(peer[:2])} disconnected ({reason})")
            if once:
                return 0
    except KeyboardInterrupt:  # pragma: no cover - interactive stop
        return 130
    finally:
        srv.close()
