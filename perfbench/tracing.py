"""Outside-in layer spans: wrap public calls of each layer, from here.

Nothing under ``src/`` knows about these spans. :class:`Patched` swaps
a timing wrapper onto each target in :data:`SPANS` (a class method or
a module-level function, looked up where the caller looks it up) and
restores the original objects on exit, so untraced repetitions run
the unpatched program.

Spans record wall time with ``time.perf_counter``. Self time is a
span's duration minus the part its child spans cover: each finished
span adds its duration to its parent's child time, so nested spans of
any depth subtract exactly once. Spans are aggregated per (parent
name, name) in memory and reported when the run ends. Only the main
thread is traced; calls from helper threads (the fabric's heartbeat
pump) run the original code unrecorded, which keeps counts
deterministic.
"""

from __future__ import annotations

import importlib
import threading
import time
from dataclasses import dataclass

#: (span name, module, qualified attribute). Several targets may share
#: one span name (``sim.queue`` is push and pop).
SPANS: tuple[tuple[str, str, str], ...] = (
    ("sim.run", "repro.sim.engine", "Environment.run"),
    ("sim.queue", "repro.sim.calendar", "CalendarQueue.push"),
    ("sim.queue", "repro.sim.calendar", "CalendarQueue.pop"),
    ("obs.counter", "repro.obs.metrics", "Counter.inc"),
    ("obs.emit", "repro.obs", "Observability.emit"),
    ("workload.build", "repro.experiments.scenarios", "Scenario.build"),
    ("session.build", "repro.core.infrastructure", "GamingSession.__init__"),
    ("assignment.assign", "repro.core.assignment",
     "SupernodeAssignment.assign"),
    ("server.render", "repro.core.server", "StreamingServer.render_and_send"),
    ("streaming.encode", "repro.streaming.encoder",
     "SegmentEncoder.encode_segment"),
    ("sched.enqueue", "repro.core.scheduling", "DeadlineSenderBuffer.enqueue"),
    ("sched.dequeue", "repro.core.scheduling", "DeadlineSenderBuffer.dequeue"),
    ("fifo.enqueue", "repro.streaming.sender_buffer",
     "FifoSenderBuffer.enqueue"),
    ("fifo.dequeue", "repro.streaming.sender_buffer",
     "FifoSenderBuffer.dequeue"),
    ("player.deliver", "repro.core.player", "PlayerEndpoint.deliver"),
    ("playback.arrival", "repro.streaming.playback",
     "PlaybackBuffer.on_segment_arrival"),
    ("adapt.observe", "repro.core.adaptation",
     "RateAdaptationController.observe"),
    ("cohort.build", "repro.core.cohort", "CohortKernel.__init__"),
    ("dynamics.compile", "repro.dynamics.kernel", "compile_plan"),
    ("cohort.batch_advance", "repro.core.player", "PlayerCohort.advance"),
    ("cohort.player_advance", "repro.core.player",
     "MaterialisedPlayer.advance"),
    ("latency.gather", "repro.network.latency", "RegionalLatency.gather_s"),
    # The counter RNG as the advance calls it: the names bound in the
    # player module, vector and scalar form.
    ("rng.counter_u01", "repro.core.player", "counter_u01"),
    ("rng.counter_u01", "repro.core.player", "counter_u01_one"),
    ("failover.migrate", "repro.faults.failover",
     "FailoverController.on_server_down"),
    ("dynamics.invariants", "repro.dynamics.kernel",
     "DynamicsKernel.check_invariants"),
    ("fabric.execute", "repro.experiments.backends.remote",
     "RemoteBackend.execute"),
    ("fabric.send", "repro.experiments.backends.protocol", "Channel.send"),
    ("fabric.recv", "repro.experiments.backends.protocol", "Channel.recv"),
    ("cache.put", "repro.experiments.cache", "ResultCache.put"),
    ("cache.get", "repro.experiments.cache", "ResultCache.get"),
)

#: Counts taken from a wrapped call's arguments: span target ->
#: (count name, fn(*args, **kwargs) -> number).
ARG_COUNTS = {
    "PlayerCohort.advance": (
        "cohort.batch_players", lambda self, idx, tick: int(idx.size)),
}

SPAN_NAMES: tuple[str, ...] = tuple(dict.fromkeys(n for n, _, _ in SPANS))
COUNT_NAMES: tuple[str, ...] = tuple(n for n, _ in ARG_COUNTS.values())

#: Attribute marking a tracing wrapper (its value is the span name).
SPAN_MARK = "_perfbench_span"


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    child_s: float = 0.0

    @property
    def self_s(self) -> float:
        return self.total_s - self.child_s


class Tracer:
    """Aggregates nested spans per (parent name, name)."""

    def __init__(self) -> None:
        self.spans: dict[tuple[str | None, str], SpanStats] = {}
        self.counts: dict[str, float] = {}
        #: Open spans, innermost last: [name, child seconds so far].
        self._stack: list[list] = []
        self._thread = threading.get_ident()

    def enter(self, name: str) -> None:
        self._stack.append([name, 0.0])

    def exit(self, duration_s: float) -> None:
        name, child_s = self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[1] += duration_s
        key = (parent[0] if parent is not None else None, name)
        stats = self.spans.get(key)
        if stats is None:
            stats = self.spans[key] = SpanStats()
        stats.calls += 1
        stats.total_s += duration_s
        stats.child_s += child_s

    def count(self, name: str, amount: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, name: str, fn, counter=None):
        """A wrapper of ``fn`` recording span ``name`` on this thread."""
        clock = time.perf_counter
        get_ident = threading.get_ident
        thread = self._thread
        enter, exit_ = self.enter, self.exit

        def traced(*args, **kwargs):
            if get_ident() != thread:
                return fn(*args, **kwargs)
            if counter is not None:
                self.count(counter[0], counter[1](*args, **kwargs))
            enter(name)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(clock() - t0)

        setattr(traced, SPAN_MARK, name)
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        return traced

    def by_name(self) -> dict[str, SpanStats]:
        """Span statistics summed over parents."""
        out = {n: SpanStats() for n in SPAN_NAMES}
        for (_parent, name), s in self.spans.items():
            agg = out.setdefault(name, SpanStats())
            agg.calls += s.calls
            agg.total_s += s.total_s
            agg.child_s += s.child_s
        return out


def resolve(module: str, qualname: str):
    """(owner, attribute) for ``module:qualname``."""
    owner = importlib.import_module(module)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


class Patched:
    """Context manager installing a tracer's wrappers on every target,
    and setting each target back to the exact object it held on exit."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> Tracer:
        try:
            for name, module, qualname in SPANS:
                owner, attr = resolve(module, qualname)
                original = vars(owner)[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self.tracer.wrap(
                    name, original, ARG_COUNTS.get(qualname)))
        except BaseException:
            self.restore()
            raise
        return self.tracer

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def still_patched() -> list[str]:
    """Targets that currently hold a tracing wrapper (should be none)."""
    return [f"{module}.{qualname}" for _name, module, qualname in SPANS
            if hasattr(getattr(*resolve(module, qualname)), SPAN_MARK)]
