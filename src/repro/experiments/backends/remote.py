"""Socket scheduler dispatching sweep tasks to remote worker daemons.

Workers come three ways, combinable freely: ``workers=("host:port",
...)`` dials daemons already listening (``cloudfog worker --listen``);
``listen="host:port"`` accepts dial-in workers (``cloudfog worker
--connect``), mid-run joiners included; ``launch=N`` spawns N workers
through ``launcher`` — by default this interpreter running ``repro.cli
worker --connect <addr>`` against an ephemeral loopback listener, or a
template such as ``"ssh gpu1 cloudfog worker --connect {addr}"``.

The transport is a single-threaded ``select`` loop. Each worker holds
up to ``slots + prefetch`` tasks, so a freed slot finds its next task
already queued instead of one round-trip away. The loop never blocks
on one peer: a frame arriving in pieces waits in its channel's buffer
(:meth:`Channel.recv`), and a dial-in waits in the select set until
its hello is complete (closed after ``connect_timeout_s``). Task
frames (see :mod:`~repro.experiments.backends.protocol`) carry the
task's content-address digest; when the scheduler's store already
holds the blob the frame says so (``have``) and the worker answers
with a hash-only ``cached`` frame. Results are written
through ``plan.record``, the same atomic cache path every backend
uses, so a run killed under one backend is finished by a re-run under
any other.

Liveness: a dead worker closes its socket (EOF); a frozen one — or one
stalled mid-frame — is dropped when no bytes at all arrive within
``heartbeat_timeout_s``; and a pump thread pulses every worker, also
between :meth:`execute` calls, to feed the workers' scheduler-silence
deadlines.

Retries, backoff and per-task deadlines are the
:class:`~repro.experiments.backends.base.SchedulerCore` the pool
backend drives too, with one worker connection as the unit. A dropped
worker's in-flight tasks requeue as ``worker-crash``; a task past
``timeout_s`` fails as ``timeout``, its worker is dropped and the
worker's other tasks requeue penalty-free. The deadline runs from
dispatch, so with ``prefetch > 0`` it also covers time queued on the
worker — use ``prefetch=0`` under tight timeouts. A dropped worker
this scheduler launched — its hello ``pid`` is one of the launched
processes, as with the default launcher or a template that execs the
worker directly — is terminated and replaced by a fresh launch, so a
hung task cannot starve the fabric. A worker behind ``ssh`` reports a
remote pid and is not replaced.

The fabric persists across :meth:`execute` calls (one worker set
serves a whole ``run_all``); :meth:`close` says bye to dialed daemons
and terminates launched ones.
"""

from __future__ import annotations

import os
import select
import shlex
import socket
import subprocess
import sys
import threading
import time
from typing import Optional

import repro
from repro import __version__
from repro.experiments.backends.base import (
    ExecutionBackend,
    SchedulerCore,
    SweepPlan,
)
from repro.experiments.backends.protocol import (
    Channel,
    ProtocolError,
    format_addr,
    parse_addr,
    recv_frame,
)

#: Default pipelining depth: tasks queued on a worker beyond its
#: executing slots, hiding one dispatch round-trip per slot.
DEFAULT_PREFETCH = 2


class RemoteFabricError(RuntimeError):
    """The worker fabric cannot make progress (no workers reachable, or
    every worker died with tasks outstanding and none can rejoin)."""


class _Worker:
    """Scheduler-side state for one connected worker."""

    __slots__ = ("channel", "id", "pid", "slots", "last_seen")

    def __init__(self, channel: Channel, hello: dict):
        self.channel = channel
        self.id = str(hello.get("worker", "?"))
        self.pid = hello.get("pid")
        self.slots = max(1, int(hello.get("slots", 1)))
        self.last_seen = time.monotonic()

    def __str__(self) -> str:
        return f"worker {self.id}"

    @property
    def sock(self) -> socket.socket:
        return self.channel.sock


class RemoteBackend(ExecutionBackend):
    """Dispatch sweep tasks to worker daemons over the wire."""

    name = "remote"

    def __init__(self, workers=(), listen: Optional[str] = None,
                 launch: int = 0, launcher: Optional[str] = None,
                 slots: int = 1,
                 prefetch: int = DEFAULT_PREFETCH,
                 connect_timeout_s: float = 30.0,
                 heartbeat_timeout_s: float = 15.0,
                 heartbeat_interval_s: float = 2.0):
        if not (workers or listen or launch):
            raise ValueError("remote backend needs workers=, listen= "
                             "or launch=")
        if slots < 1:
            raise ValueError(f"slots must be >= 1, got {slots}")
        if prefetch < 0:
            raise ValueError(f"prefetch must be >= 0, got {prefetch}")
        self.addresses = tuple(workers)
        self.listen = listen
        self.launch = int(launch)
        self.launcher = launcher
        self.slots = int(slots)
        self.prefetch = int(prefetch)
        self.connect_timeout_s = connect_timeout_s
        self.heartbeat_timeout_s = heartbeat_timeout_s
        self.heartbeat_interval_s = heartbeat_interval_s

        self._listener: Optional[socket.socket] = None
        self._workers: dict[socket.socket, _Worker] = {}
        #: Dial-ins awaiting their hello: socket -> (channel, peer
        #: address, monotonic deadline).
        self._joining: dict[socket.socket, tuple[Channel, str, float]] = {}
        self._procs: list[subprocess.Popen] = []
        self._tid = 0
        self._started = False
        self._pump_stop: Optional[threading.Event] = None
        self._pump_thread: Optional[threading.Thread] = None
        #: Wire bytes of connections already torn down; live channels
        #: are added on top by :meth:`wire_stats`.
        self._bytes_sent_closed = 0
        self._bytes_recv_closed = 0

    # ------------------------------------------------------------------
    # Fabric lifecycle
    # ------------------------------------------------------------------

    @property
    def bound_address(self) -> Optional[str]:
        """The listener's actual ``host:port`` (after :meth:`start`)."""
        if self._listener is None:
            return None
        return format_addr(self._listener.getsockname()[:2])

    def wire_stats(self) -> dict[str, int]:
        """Total fabric wire bytes, both directions, including closed
        connections — what the fabric benchmarks difference."""
        sent = self._bytes_sent_closed
        recv = self._bytes_recv_closed
        for worker in list(self._workers.values()):
            sent += worker.channel.bytes_out
            recv += worker.channel.bytes_in
        return {"sent": sent, "recv": recv}

    def start(self) -> None:
        """Stand up the fabric: bind, launch, dial, await hellos."""
        if self._started:
            return
        if self.listen or self.launch:
            host, port = parse_addr(self.listen or "127.0.0.1:0")
            srv = socket.socket(
                socket.AF_INET6 if ":" in host else socket.AF_INET,
                socket.SOCK_STREAM)
            srv.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            srv.bind((host, port))
            srv.listen(64)
            srv.setblocking(False)
            self._listener = srv
        for _ in range(self.launch):
            self._procs.append(self._spawn(self.bound_address))
        for addr in self.addresses:
            self._dial(addr)
        # Launched workers dial back in; an explicit listen address
        # must attract at least one worker before dispatch can start.
        want_dial_ins = self.launch or (1 if self.listen else 0)
        deadline = time.monotonic() + self.connect_timeout_s
        joined = 0
        while joined < want_dial_ins:
            self._reap_dead_launches()
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                self.close()
                raise RemoteFabricError(
                    f"only {joined}/{want_dial_ins} worker(s) joined "
                    f"within {self.connect_timeout_s}s")
            readable, _, _ = select.select(
                [self._listener, *self._joining], [], [],
                min(0.2, remaining))
            joined += self._admit(readable)
        self._start_pump()
        self._started = True

    def _start_pump(self) -> None:
        """Pulse every worker so their scheduler-silence deadlines
        never trip while the fabric is healthy — including the idle
        stretches between ``execute`` calls, when no select loop runs."""
        if self._pump_thread is not None:
            return
        stop = threading.Event()

        def pump() -> None:
            while not stop.wait(self.heartbeat_interval_s):
                for worker in list(self._workers.values()):
                    try:
                        worker.channel.send("heartbeat")
                    except OSError:
                        pass  # the select loop will see the EOF

        thread = threading.Thread(target=pump, daemon=True,
                                  name="fabric-heartbeat")
        thread.start()
        self._pump_stop, self._pump_thread = stop, thread

    def close(self) -> None:
        """Dismiss the fabric: bye to daemons, reap launched workers."""
        if self._pump_stop is not None:
            self._pump_stop.set()
            self._pump_thread.join(timeout=2.0)
            self._pump_stop = self._pump_thread = None
        for worker in list(self._workers.values()):
            try:
                worker.channel.send("bye")
            except OSError:
                pass
            self._retire_channel(worker.channel)
        self._workers.clear()
        for channel, _where, _deadline in self._joining.values():
            self._retire_channel(channel)
        self._joining.clear()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
            self._listener = None
        for proc in self._procs:
            if proc.poll() is None:
                proc.terminate()
        for proc in self._procs:
            try:
                proc.wait(timeout=5.0)
            except subprocess.TimeoutExpired:  # pragma: no cover
                proc.kill()
                proc.wait(timeout=5.0)
        self._procs.clear()
        self._started = False

    def _retire_channel(self, channel: Channel) -> None:
        """Close a connection, folding its byte meters into the
        fabric totals."""
        self._bytes_sent_closed += channel.bytes_out
        self._bytes_recv_closed += channel.bytes_in
        channel.close()

    def __del__(self):  # pragma: no cover - best-effort cleanup
        try:
            self.close()
        except Exception:
            pass

    def _spawn(self, addr: str) -> subprocess.Popen:
        host, port = parse_addr(addr)
        if self.launcher:
            cmd = shlex.split(
                self.launcher.format(addr=addr, host=host, port=port))
        else:
            cmd = [sys.executable, "-m", "repro.cli", "worker",
                   "--connect", addr]
            if self.slots > 1:
                cmd += ["--slots", str(self.slots)]
        env = os.environ.copy()
        src = os.path.dirname(os.path.dirname(
            os.path.abspath(repro.__file__)))
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        return subprocess.Popen(cmd, env=env)

    def _replace(self, worker: _Worker) -> None:
        """Terminate a dropped worker this scheduler launched and launch
        a replacement, which dials back in like the original. Dialed
        workers, dial-ins and ssh launches match no local pid."""
        for proc in [p for p in self._procs if p.pid == worker.pid]:
            proc.terminate()
            # poll() reaps exited launches: a recycled pid never matches.
            self._procs = [p for p in self._procs if p.poll() is None]
            self._procs.append(self._spawn(self.bound_address))

    def _reap_dead_launches(self) -> None:
        dead = [p for p in self._procs if p.poll() is not None]
        if dead:
            self._procs = [p for p in self._procs if p.poll() is None]
            raise RemoteFabricError(
                f"launched worker exited with code {dead[0].returncode} "
                f"before joining (cmd: {' '.join(map(str, dead[0].args))})")

    def _dial(self, addr: str) -> None:
        """Connect out to a listening worker daemon and register it."""
        try:
            sock = socket.create_connection(
                parse_addr(addr), timeout=self.connect_timeout_s)
        except OSError as exc:
            self.close()
            raise RemoteFabricError(
                f"cannot reach worker at {addr}: {exc}") from exc
        try:
            kind, hello = recv_frame(sock)
        except (EOFError, ProtocolError, OSError) as exc:
            sock.close()
            raise RemoteFabricError(
                f"no hello from worker at {addr}: {exc}") from exc
        self._register(Channel(sock), kind, hello, where=addr)

    def _admit(self, readable) -> int:
        """Accept dial-ins and read their hellos; returns how many
        workers joined.

        A new connection waits in :attr:`_joining` (and so in the
        select set) until its hello is complete. One that closes, sends
        a refused hello, or is still silent ``connect_timeout_s`` after
        connecting is closed and skipped.
        """
        joined = 0
        for sock in readable:
            if sock is self._listener:
                try:
                    conn, peer = self._listener.accept()
                except OSError:
                    continue
                self._joining[conn] = (
                    Channel(conn), format_addr(peer[:2]),
                    time.monotonic() + self.connect_timeout_s)
                continue
            if sock not in self._joining:
                continue
            channel, where, _deadline = self._joining[sock]
            try:
                frames = channel.recv()
            except (EOFError, ProtocolError, OSError):
                del self._joining[sock]
                self._retire_channel(channel)
                continue
            if not frames:
                continue  # hello still arriving
            del self._joining[sock]
            try:
                self._register(channel, *frames[0], where=where)
            except RemoteFabricError:
                continue  # refuse the bad joiner, carry on
            joined += 1
        nowm = time.monotonic()
        for sock, (channel, _where, deadline) in list(
                self._joining.items()):
            if nowm >= deadline:
                del self._joining[sock]
                self._retire_channel(channel)
        return joined

    def _register(self, channel: Channel, kind: str, hello: dict,
                  where: str) -> None:
        """Validate a new connection's hello and adopt the worker."""
        if kind != "hello":
            self._retire_channel(channel)
            raise RemoteFabricError(
                f"worker at {where} opened with {kind!r}, expected hello")
        if hello.get("version") != __version__:
            # A version-skewed worker would compute payloads the cache
            # material says belong to a different code version.
            try:
                channel.send("bye")
            except OSError:
                pass
            self._retire_channel(channel)
            raise RemoteFabricError(
                f"worker {hello.get('worker')!r} at {where} runs version "
                f"{hello.get('version')!r}, scheduler runs {__version__!r}")
        sock = channel.sock
        sock.settimeout(None)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._workers[sock] = _Worker(channel, hello)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def execute(self, plan: SweepPlan) -> None:
        self.start()
        core = SchedulerCore(plan)
        stats = plan.stats
        #: Indices whose "scheduler has the blob" promise failed to
        #: redeem (entry torn/evicted between probe and cached frame):
        #: redispatched with the full-result path.
        distrust: set[int] = set()
        wire0 = self.wire_stats()
        stats["workers_joined"] = (stats.get("workers_joined", 0)
                                   + len(self._workers))

        def drop(worker: _Worker, failure: Optional[str] = None,
                 message: str = "") -> None:
            """Forget a worker: fail its in-flight tasks as ``failure``
            (penalty-free requeue when None), replace it if launched."""
            core.condemn(worker, failure, message)
            self._workers.pop(worker.sock, None)
            self._retire_channel(worker.channel)
            stats["workers_lost"] = stats.get("workers_lost", 0) + 1
            self._replace(worker)

        def fill(worker: _Worker) -> None:
            # Fill the executing slots plus the prefetch queue, so a
            # freed slot always finds its next task already on the
            # worker instead of one round-trip away.
            while (core.pending
                   and core.load(worker) < worker.slots + self.prefetch):
                i, attempt = core.pending.popleft()
                self._tid += 1
                core.start(worker, self._tid, i, attempt)
                try:
                    worker.channel.send("task", {
                        "tid": self._tid, "index": i,
                        "task": plan.tasks[i],
                        "scale": plan.scale, "seed": plan.seed,
                        "capture": plan.capture,
                        "digest": (plan.digests[i]
                                   if plan.digests is not None else None),
                        "have": (plan.known is not None
                                 and i in plan.known
                                 and i not in distrust),
                    })
                except OSError:
                    drop(worker, "worker-crash",
                         f"{worker} dropped the connection at dispatch")
                    return

        def read(worker: _Worker) -> None:
            try:
                frames = worker.channel.recv()
            except (EOFError, ProtocolError, OSError):
                drop(worker, "worker-crash", f"{worker} died "
                                             "(connection lost)")
                return
            # Any bytes count as life: a large frame arriving slowly
            # keeps its worker, one stalled mid-frame does not.
            worker.last_seen = time.monotonic()
            for kind, payload in frames:
                if kind == "result":
                    core.resolve(worker, payload.get("tid"), None,
                                 payload["payload"])
                elif kind == "error":
                    core.resolve(worker, payload.get("tid"),
                                 payload.get("kind", "exception"),
                                 payload.get("message", "worker error"))
                elif kind == "cached":
                    # Hash-only confirmation: serve the payload from our
                    # own store. A broken promise (entry vanished since
                    # the probe) redispatches the task penalty-free
                    # with the full-result path forced.
                    entry = core.take(worker, payload.get("tid"))
                    if entry is None:
                        continue
                    if plan.restore is not None and plan.restore(entry[0]):
                        stats["cached_frames"] = (
                            stats.get("cached_frames", 0) + 1)
                    else:
                        distrust.add(entry[0])
                        core.pending.append(entry)

        lost_since: Optional[float] = None
        try:
            with core:
                while core.busy():
                    core.release()
                    if self._workers:
                        lost_since = None
                    elif self._listener is None:
                        raise RemoteFabricError(
                            "all remote workers died with tasks "
                            "outstanding and no listener is open for "
                            "replacements")
                    elif lost_since is None:
                        lost_since = time.monotonic()
                    elif (time.monotonic() - lost_since
                          > self.connect_timeout_s):
                        raise RemoteFabricError(
                            f"all remote workers died; none rejoined "
                            f"within {self.connect_timeout_s}s")
                    for worker in list(self._workers.values()):
                        fill(worker)
                    rlist = [*self._workers, *self._joining]
                    if self._listener is not None:
                        rlist.append(self._listener)
                    readable, _, _ = select.select(rlist, [], [],
                                                   core.wait_s())
                    for sock in readable:
                        worker = self._workers.get(sock)
                        if worker is not None:
                            read(worker)
                    # Joiners after workers: one adopted here has
                    # already had this round's read.
                    stats["workers_joined"] += self._admit(readable)
                    core.expire(drop)
                    nowm = time.monotonic()
                    for worker in list(self._workers.values()):
                        if nowm - worker.last_seen > self.heartbeat_timeout_s:
                            drop(worker, "worker-crash",
                                 f"{worker} missed heartbeats for "
                                 f"{self.heartbeat_timeout_s:g}s")
        except BaseException:
            # Run-fatal exit (SweepFailure, fabric loss, interrupt):
            # tear the fabric down so launched workers never outlive a
            # failed scheduler. Completed tasks were already recorded
            # (and cached) through plan.record.
            self.close()
            raise
        finally:
            wire1 = self.wire_stats()
            stats["wire_bytes_sent"] = (stats.get("wire_bytes_sent", 0)
                                        + wire1["sent"] - wire0["sent"])
            stats["wire_bytes_recv"] = (stats.get("wire_bytes_recv", 0)
                                        + wire1["recv"] - wire0["recv"])
