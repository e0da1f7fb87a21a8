"""The four benchmark workloads.

Every workload is closed-loop: one repetition starts when the previous
one ends, and the workload seed (``--seed``) is the only input the
benchmark chooses. A repetition consists of one or more timed *slots*
(a single call into the program each); the harness in ``run.py`` times
the slots and checks every operation's output.

``fig9a``
    The ``get_spec("fig9a")`` sweep at ``scale=0.02`` as the inline
    backend runs it: ``execute_task`` for each of its 12 tasks (4
    systems x 19/28/38 online players, one slot each), then the
    spec's merge and series digest (one slot). Each task rebuilds its
    population and runs one packet-level ``GamingSession`` for 15
    simulated seconds. About 301,000 kernel events per sweep (300,768
    at seed 42). The digest must equal ``run_spec``'s, which is what
    is pinned. ``run_spec``'s own bookkeeping around the tasks is not
    timed: with the whole ``run_spec`` call as one 2-s slot, the
    calibration block after it tracked the host's speed phases less
    well: in two interleaved rounds of six seeds each, the spread of
    ``wall_s`` (quartile distance over median) was 7% and 12% for the
    single slot and 4% and 6% for the per-task slots.

    Why: the only workload on the packet-level path that draws the
    paper's figures. Loads kernel dispatch (``repro.sim``, heap queue),
    the obs probes on every event (``repro.obs``), ``repro.workload``
    population builds, assignment, rendering/encoding, the EDF and FIFO
    sender buffers, playback and rate adaptation (``repro.core``
    session path). Bypasses the cohort kernel, the calendar queue,
    ``repro.dynamics`` and the sweep fabric.

``cohort-outage``
    Eight ``CohortKernel(ScaleSpec(n_players=6_250, n_regions=8,
    n_ticks=120, faults="outage", seed=8*seed+j)).run()`` calls, one
    per slot (50,000 players and 6.0M player-ticks per repetition;
    198,029 kernel events and 5,027 materialisations at seed 0).

    Why: region 0 goes offline for the middle third of the run and
    about a tenth of the players diverge, so the vectorised batch
    advance, the per-player materialised chains, the calendar queue,
    the latency gather and the counter RNG (``repro.core`` cohort path,
    ``repro.sim``, ``repro.network.latency``) all do real work.
    Bypasses obs, sessions, membership and the fabric. Eight
    independent topologies per repetition keep the work size within
    about 2% across seeds; one topology varies by about 6%.

``launch-day``
    Four ``DynamicsKernel(DynamicsSpec(base=ScaleSpec(6_250, 8, 120,
    faults="none", seed=4*seed+j), plan=preset_dynamics("launch-day",
    ..., intensity=4, seed=4*seed+j), initial_fraction=0.5))
    .run_dynamics()`` calls, one per slot: 3.0M player-ticks, 76,310
    events, 28,983 joins, 37,533 leaves, 2,665 refused sessions and
    1,786 mobility migrations per repetition at seed 0, with clean
    invariants.

    Why: the same cohort kernel driven through membership instead of
    faults (``repro.dynamics``). Joins and leaves run as Python loops
    once per tick and migrations go through ``FailoverController``
    (``repro.faults.failover``), so a materialisation change that helps
    ``cohort-outage`` but slows membership shows up here. Bypasses
    obs, sessions and the fabric.

``sweep-fabric``
    ``run_spec(get_spec("dynamics"), scale=0.1, seed=4*seed+j)`` for
    j = 0..3 (19 tasks of 800-player cohort/dynamics runs each) on
    ``RemoteBackend(launch=1, slots=2)``; the worker is launched during
    set-up. Each repetition starts a fresh result store; per seed it
    times a cold sweep into the store (slot ``cold<j>``, in ``wall_s``),
    then a warm re-run with a metrics-only ``Observability`` whose task
    frames carry ``have``, so the worker answers hash-only (slot
    ``warm<j>``, reported as ``fabric.warm_s``): 152 task operations
    per repetition. The work of one seed's sweep varies by about 14%
    across seeds; four sweeps per repetition average most of that out.

    Why: the only workload through ``repro.experiments.backends`` and
    the result cache. The cold slots write the cache and the warm slots
    read it. The simulations run in the worker's slot processes, so
    the scheduler's own layers (dispatch, wire, cache, journal) are
    what this process spends its time on. Bypasses the packet-level
    session path in this process.

The sizes are smaller than a 100k-player run so that a 30-second
measuring window holds several repetitions of every workload, each
slot followed by its calibration block, on a two-vCPU machine.
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import dataclass, field


@dataclass
class Outcome:
    """The checked result of one operation of a repetition.

    ``key`` names the operation within the repetition (stable across
    repetitions), ``digest`` is the program's output fingerprint,
    ``problems`` lists violated invariants and ``ops`` is how many
    operations the outcome stands for (tasks of a sweep phase).
    """

    key: str
    digest: str | None
    problems: list[str] = field(default_factory=list)
    ops: int = 1


class Workload:
    """Base class: set-up, per-repetition preparation, timed slots.

    ``setup`` does the once-per-process work (imports, specs, fabric
    launch) and ``prepare`` builds one repetition's inputs (kernels, a
    fresh store); together they are what ``setup_s`` measures.
    ``repetition(clock)`` runs the prepared repetition, timing each
    program call through ``clock(slot, fn)``, and returns one
    :class:`Outcome` per operation. ``counts`` returns the
    program-reported work counts of the last repetition.
    """

    name = ""
    default_seed = 0
    #: Outcome key -> digest at the default seed.
    pinned: dict[str, str] = {}
    #: Operations one repetition attempts (failed wholesale on a raise).
    ops_per_rep = 1

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        raise NotImplementedError

    def prepare(self) -> None:
        pass

    def repetition(self, clock) -> list[Outcome]:
        raise NotImplementedError

    def counts(self) -> dict[str, float]:
        return {}

    def close(self) -> None:
        pass


class Fig9a(Workload):
    name = "fig9a"
    default_seed = 42
    pinned = {"sweep": "ddcb838c168cf9f478b671ca5accc4af"
                       "36669f0013d631e1b5017030b17de2dd"}
    scale = 0.02

    def setup(self) -> None:
        from repro.experiments.api import series_digest
        from repro.experiments.backends.base import execute_task
        from repro.experiments.specs import get_spec
        self._execute = execute_task
        self._series_digest = series_digest
        self._spec = get_spec("fig9a")
        self._tasks = self._spec.decompose(self.scale, self.seed)
        self._events = 0

    def repetition(self, clock) -> list[Outcome]:
        # What the inline backend does, one timed slot per task: each
        # short slot gets its own calibration block (see module doc).
        payloads = [
            clock(f"task{i}", lambda t=task: self._execute(
                t, self.scale, self.seed))
            for i, task in enumerate(self._tasks)]
        digest = clock("merge", lambda: self._series_digest(
            self._spec.merge(self.scale, self.seed, [
                (t.key, p[0]) for t, p in zip(self._tasks, payloads)])))
        self._events = sum(
            p[1].get("sim.events_processed", {}).get("value", 0)
            for p in payloads)
        return [Outcome("sweep", digest)]

    def counts(self) -> dict[str, float]:
        return {"sim.events": self._events}


class KernelBatch(Workload):
    """``kernels`` independent cohort-kernel runs per repetition, with
    seeds ``kernels * seed + j``: one timed slot each."""

    kernels = 1

    @property
    def ops_per_rep(self) -> int:
        return self.kernels

    def build(self, seed: int):
        raise NotImplementedError

    def run_kernel(self, kernel):
        """Run a built kernel; returns (scale report, report, problems)."""
        raise NotImplementedError

    def prepare(self) -> None:
        self._kernels = [self.build(self.kernels * self.seed + j)
                         for j in range(self.kernels)]

    def repetition(self, clock) -> list[Outcome]:
        kernels, self._kernels = self._kernels, []
        self._results = [clock(f"kernel{j}", lambda k=k: self.run_kernel(k))
                         for j, k in enumerate(kernels)]
        return [Outcome(f"kernel{j}", scale.digest, problems)
                for j, (scale, _report, problems)
                in enumerate(self._results)]

    def counts(self) -> dict[str, float]:
        scales = [r[0] for r in self._results]
        return {
            "sim.events": sum(r.events_scheduled for r in scales),
            "cohort.materialisations": sum(r.materialisations
                                           for r in scales),
            "cohort.reabsorptions": sum(r.reabsorptions for r in scales),
        }


class CohortOutage(KernelBatch):
    name = "cohort-outage"
    default_seed = 0
    kernels = 8
    pinned = {f"kernel{j}": digest for j, digest in enumerate((
        "d812d63a98962ac38ac80ea94b1387bfe98334cad6cf129d3374c9e0168b7e2a",
        "9c151f2481b74864a8bd56cc9a4314f79ad7575b621fa7840d7101c57d665c2a",
        "50fbdc8fc4c571c6d5e4b83b6380b59df124281ffa60bd786826e91e3e6e8711",
        "757c71cbd394a0803c68885aaf422234727113960b019a1db485a12b9418d6c9",
        "a4ea65c2993d7dca961d59010b983e8e4c83ea18f53efa1869fd0c98c811bd94",
        "83bf9e61f707f95bd19d6aef0dc3516a866a54a8658064288401ff4331c26fb6",
        "87cfe0dec00c4abb903cdf365327eddc0ecbc4dee327f48617ea80c0ad7c4fd4",
        "c0149c9eea711c4bb9451a93e40bbe90e179a7332f9362d1a9dcb9314f2d94ed"))}

    def setup(self) -> None:
        from repro.core.cohort import CohortKernel, ScaleSpec
        self._kernel, self._spec = CohortKernel, ScaleSpec

    def build(self, seed: int):
        return self._kernel(self._spec(
            n_players=6_250, n_regions=8, n_ticks=120, faults="outage",
            seed=seed))

    def run_kernel(self, kernel):
        return kernel.run(), None, []


class LaunchDay(KernelBatch):
    name = "launch-day"
    default_seed = 0
    kernels = 4
    pinned = {f"kernel{j}": digest for j, digest in enumerate((
        "c3142bae5e3188ee3debf4ecb32532afc261414411be4213613ed1a7aae95680",
        "01703a884a11f84ad973a88fec2ec5dbf0e1953b69a13f3240a87cf4bfc4036a",
        "ebff3291682b7b83bf16c32d165a8653924a8482b74c40aeaf7fa07ae15969b5",
        "f782de04ab56aba04a5bd6d2019543a8032c614086002c6d4f425af97ced5cf8"))}

    def setup(self) -> None:
        from repro.core.cohort import ScaleSpec
        from repro.dynamics import (
            DynamicsKernel,
            DynamicsSpec,
            preset_dynamics,
        )
        self._kernel, self._spec = DynamicsKernel, DynamicsSpec
        self._base, self._plan = ScaleSpec, preset_dynamics

    def build(self, seed: int):
        base = self._base(6_250, 8, 120, faults="none", seed=seed)
        plan = self._plan(
            "launch-day", horizon_s=base.n_ticks * base.params.tick_s,
            n_players=base.n_players, n_regions=base.n_regions,
            intensity=4, seed=seed)
        return self._kernel(self._spec(base=base, plan=plan,
                                       initial_fraction=0.5))

    def run_kernel(self, kernel):
        report = kernel.run_dynamics()
        return report.scale, report, list(report.invariants)

    def counts(self) -> dict[str, float]:
        out = super().counts()
        reports = [r[1] for r in self._results]
        for field_ in ("joins", "leaves", "refused", "shed", "evicted",
                       "moves"):
            out[f"dynamics.{field_}"] = sum(getattr(r, field_)
                                            for r in reports)
        return out


class SweepFabric(Workload):
    name = "sweep-fabric"
    default_seed = 42
    scale = 0.1
    slots = 2
    sweeps = 4
    #: Both phases of sweep j must reproduce the inline run's digest
    #: (inline run of seed 4 * 42 + j).
    pinned = {f"{phase}{j}": digest
              for j, digest in enumerate((
                  "2f42dfae3087db2ec9ab9dc44ca0d26c"
                  "767cd1709edc784cd4c803ba48103bc6",
                  "dd6df31b40cd12a5cb43df82842b9d31"
                  "7fd0e24710eba725c8f9942c61581218",
                  "0482a34ad08bc9cee92ee3c08b6c8a8f"
                  "76d6558b55559ac06671ca097a489f4f",
                  "d66709d9086c50624c76cf513a24c7a4"
                  "c51daef2a79c270ff9d12d330164a391"))
              for phase in ("cold", "warm")}

    def setup(self) -> None:
        from repro.experiments import RunConfig
        from repro.experiments.backends.remote import RemoteBackend
        from repro.experiments.parallel import run_spec
        from repro.experiments.specs import get_spec
        from repro.obs import Observability
        self._config = RunConfig
        self._run_spec = run_spec
        self._obs = Observability
        self._spec = get_spec("dynamics")
        self._seeds = [self.sweeps * self.seed + j for j in range(self.sweeps)]
        self.ops_per_rep = 2 * sum(
            len(self._spec.decompose(self.scale, s)) for s in self._seeds)
        self._store = os.path.join(self.workdir, f"store-{os.getpid()}")
        self._counts: dict[str, float] = {}
        self.backend = RemoteBackend(launch=1, slots=self.slots)
        self.backend.start()

    def prepare(self) -> None:
        shutil.rmtree(self._store, ignore_errors=True)
        self._run_config = self._config(backend=self.backend,
                                        cache_dir=self._store)

    def _sweep(self, seed: int, obs=None):
        return self._run_spec(self._spec, scale=self.scale, seed=seed,
                              config=self._run_config, obs=obs)

    def repetition(self, clock) -> list[Outcome]:
        wire0 = self.backend.wire_stats()
        outcomes = []
        cached_total = 0
        for j, seed in enumerate(self._seeds):
            cold = clock(f"cold{j}", lambda s=seed: self._sweep(s))
            obs = self._obs()
            warm = clock(f"warm{j}", lambda s=seed: self._sweep(s, obs))
            cached = obs.metrics.snapshot().get(
                "harness.cached_frames", {}).get("value", 0)
            cached_total += cached
            cold_problems = [] if cold.ok else [f"{cold.tasks_failed} failed"]
            warm_problems = [] if warm.ok else [f"{warm.tasks_failed} failed"]
            if warm.digest != cold.digest:
                warm_problems.append("warm digest differs from cold")
            if warm.metrics != cold.metrics:
                warm_problems.append("warm metrics differ from cold")
            if cached != warm.tasks_total:
                warm_problems.append(
                    f"{cached} cached frames for {warm.tasks_total} tasks")
            outcomes += [
                Outcome(f"cold{j}", cold.digest, cold_problems,
                        cold.tasks_total),
                Outcome(f"warm{j}", warm.digest, warm_problems,
                        warm.tasks_total)]
        wire1 = self.backend.wire_stats()
        self._counts = {
            "fabric.sent_bytes": wire1["sent"] - wire0["sent"],
            "fabric.recv_bytes": wire1["recv"] - wire0["recv"],
            "fabric.cached_frames": cached_total,
        }
        return outcomes

    def counts(self) -> dict[str, float]:
        # Worker-reported task seconds, from the entries the cold sweeps
        # stored (the store lives until the next repetition's prepare).
        exec_s = 0.0
        for dirpath, _dirs, files in os.walk(self._store):
            for name in files:
                if name.endswith(".json"):
                    with open(os.path.join(dirpath, name),
                              encoding="utf-8") as fp:
                        exec_s += json.load(fp).get("elapsed_s", 0.0)
        return {**self._counts, "fabric.task_exec_s": exec_s}

    def close(self) -> None:
        if hasattr(self, "backend"):
            self.backend.close()
            shutil.rmtree(self._store, ignore_errors=True)


WORKLOADS = {w.name: w for w in (Fig9a, CohortOutage, LaunchDay, SweepFabric)}
