"""CloudFog reproduction benchmark: four closed-loop workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cohort-outage --seed 0 \\
        --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off, in
*reference seconds*: each timed call is followed by a calibration
block, the fixed pure-Python loop :func:`calib_loop` run for about as
long as the call took, and the call's seconds are scaled by
``REF_CALIB_S`` over the block's mean loop time (see
:class:`Calibration`). On a two-vCPU host whose raw timings of the
same code swung by 20-60% for minutes at a time, ten-seed sets of
``wall_s`` spread by 3-12% (quartile distance over median, four sets
per workload), where the sum of each call's fastest raw time spread
by 14-40%.

* ``wall_s`` -- the program calls one repetition makes (``fig9a``'s
  tasks and merge, ``.run()``, ``.run_dynamics()``, and for
  ``sweep-fabric`` the cold ``run_spec`` sweeps only), garbage
  collected between repetitions. Each timed call
  (*slot*) takes its median over the repetitions after a warm-up, and
  ``wall_s`` sums the slots.
* ``setup_s`` -- the median over seven fresh interpreter processes,
  spread over the measuring window and each followed by its own
  calibration block, of the time from process spawn until the first
  repetition could begin (imports, spec, kernel or plan construction,
  worker launch). The median, not the fastest: a calibrated time errs
  both ways (a probe in a slow phase and its block in a fast one reads
  high, the reverse reads low), so the fastest probe is the luckiest
  mismatch. Over the same runs, the ten-seed median of the fastest
  probe moved by up to 29% between two sets, that of the median probe
  by up to 17%.
* ``peak_rss_mb`` -- peak resident memory of this process.

A calibration block reads slow while work the program left running
(threads, worker processes) still competes for the CPUs, which would
flatter such a program; the workloads here leave none.

``--trace 1`` runs untraced and traced repetitions alternately, without
calibration blocks, and reports per-layer spans (see ``tracing.py``)
of the fastest traced repetition in plain seconds: calls, self seconds
and share of that repetition, program-reported work counts, and the
tracing overhead.

Every repetition's output is checked: at a workload's default seed
against the digests pinned in ``workloads.py``, at any other seed
against the first repetition. Invariant violations and exceptions
count as failed operations.
Each run also prints a host witness (code identity, CPU, versions and
``host.calib_s``, the best time of a fixed pure-Python loop) so a slow
machine phase can be told from a regression. The last line of standard
output is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import select
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import tracing  # noqa: E402

#: Fresh processes whose median set-up time is ``setup_s``.
SETUP_PROBES = 7

#: Seconds :func:`calib_loop` takes on the reference host (a quiet
#: stretch of a two-vCPU Intel Xeon VM, Python 3.11, numpy 2.4): timings
#: are reported in seconds of that host.
REF_CALIB_S = 0.0125

#: Prefix of the slots that re-run a sweep against a filled cache
#: (``sweep-fabric``). Their time is ``fabric.warm_s``, not part of
#: ``wall_s``: on one input it jumps between about 7 and 30 ms.
WARM = "warm"

#: Longest a set-up probe may take to say it is ready.
SETUP_TIMEOUT_S = 120

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"))

#: Program-reported counts and phase times (traced run only).
LAYER_COUNTS = (
    ("sim.events", "count"),
    ("cohort.materialisations", "count"),
    ("cohort.reabsorptions", "count"),
    ("dynamics.joins", "count"),
    ("dynamics.leaves", "count"),
    ("dynamics.refused", "count"),
    ("dynamics.shed", "count"),
    ("dynamics.evicted", "count"),
    ("dynamics.moves", "count"),
    ("fabric.sent_bytes", "bytes"),
    ("fabric.recv_bytes", "bytes"),
    ("fabric.cached_frames", "count"),
    ("fabric.task_exec_s", "s"),
    ("fabric.cold_s", "s"),
    ("fabric.warm_s", "s"),
    ("fabric.overhead_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
)


def per_layer_metrics() -> list[tuple[str, str]]:
    """(name, unit) of every metric a traced run reports."""
    out = []
    for span in tracing.SPAN_NAMES:
        out += [(f"{span}.calls", "count"), (f"{span}.self_s", "s"),
                (f"{span}.share", "%")]
    out += [(name, "count") for name in tracing.COUNT_NAMES]
    return out + list(LAYER_COUNTS)


# -- timing statistics -------------------------------------------------------

def slot_sum(samples: list[dict[str, float]], warm: bool = False) -> float:
    """The sum over slots of each slot's median over the repetitions,
    over the warm slots if ``warm``, else over the others."""
    slots = {k for sample in samples for k in sample
             if k.startswith(WARM) == warm}
    return sum(statistics.median(s[k] for s in samples if k in s)
               for k in slots)


def calib_loop() -> int:
    """A fixed pure-Python loop no change to the program can affect."""
    s = 0
    for i in range(200_000):
        s += i * i % 7
    return s


class Calibration:
    """Converts seconds just spent into reference seconds.

    After a timed call, :meth:`reference` runs :func:`calib_loop` for
    about as long as the call took and divides the call's time by the
    loop's mean time in that block. A host that shares its CPUs slows
    the call and the block that follows it alike, so the ratio holds
    while raw times swing by 20-60% for minutes. ``best`` is the loop's
    fastest time seen (``host.calib_s``).
    """

    def __init__(self) -> None:
        self.best = float("inf")
        #: Mean loop time in the last block.
        self.loop_s = REF_CALIB_S

    def block(self, seconds: float) -> float:
        """Run the loop for about ``seconds``; its mean time per run."""
        n = max(1, round(seconds / self.loop_s))
        start = time.perf_counter()
        for _ in range(n):
            t0 = time.perf_counter()
            calib_loop()
            self.best = min(self.best, time.perf_counter() - t0)
        self.loop_s = (time.perf_counter() - start) / n
        return self.loop_s

    def reference(self, seconds: float) -> float:
        """``seconds`` of the call just made, in reference seconds."""
        return seconds * REF_CALIB_S / self.block(seconds)


# -- output checks -----------------------------------------------------------

class Checker:
    """Counts operations and checks each outcome's digest.

    With ``reference`` (digests pinned per outcome key) every outcome
    must match it; keys missing from it take the first digest seen, so
    all repetitions must agree.
    """

    def __init__(self, reference: dict[str, str] | None = None):
        self.reference = dict(reference or {})
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, outcomes) -> None:
        for o in outcomes:
            self.attempted += o.ops
            problems = list(o.problems)
            want = self.reference.setdefault(o.key, o.digest)
            if o.digest != want:
                problems.append(f"digest {o.digest} != expected {want}")
            if problems:
                self.failed += o.ops
                self.messages.append(f"{o.key}: {'; '.join(problems)}")

    def raised(self, ops: int, exc: BaseException) -> None:
        self.attempted += ops
        self.failed += ops
        self.messages.append(f"repetition raised {type(exc).__name__}: {exc}")

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0


def repetition(workload, checker: Checker,
               calib: Calibration | None = None):
    """Prepare and run one repetition; returns (slot times, seconds the
    whole repetition took), with ``None`` slot times if it raised. With
    ``calib`` the slot times are in reference seconds."""
    gc.collect()
    slots: dict[str, float] = {}

    def clock(slot, fn):
        t0 = time.perf_counter()
        out = fn()
        seconds = time.perf_counter() - t0
        slots[slot] = calib.reference(seconds) if calib else seconds
        return out

    t0 = time.perf_counter()
    try:
        workload.prepare()
        outcomes = workload.repetition(clock)
    except Exception as exc:  # a failed operation, not a crashed run
        traceback.print_exc()
        checker.raised(workload.ops_per_rep, exc)
        return None, time.perf_counter() - t0
    total = time.perf_counter() - t0
    checker.check(outcomes)
    return slots, total


# -- modes -------------------------------------------------------------------

def setup_probe(name: str, seed: int, workdir: str) -> int:
    """Child process: set the workload up, say ready, tear down."""
    import workloads
    workload = workloads.WORKLOADS[name](seed, workdir)
    try:
        workload.setup()
        workload.prepare()
        print("ready", flush=True)
    finally:
        workload.close()
    return 0


def time_setup(name: str, seed: int, workdir: str) -> float:
    """Seconds a fresh interpreter process takes from its spawn until
    the workload is ready to time."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", name, "--seed", str(seed), "--setup-probe", workdir]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        readable, _, _ = select.select([proc.stdout], [], [],
                                       SETUP_TIMEOUT_S)
        line = proc.stdout.readline() if readable else ""
        elapsed = time.perf_counter() - t0
        proc.stdout.close()
        code = proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed (exit {code})")
    return elapsed


def run_loop(workload, checker, seconds, step, reserve=lambda: 0.0):
    """Warm up, then call ``step(n)`` until ``seconds`` have passed
    (always at least once), keeping back the ``reserve()`` seconds of
    work still owed after the loop. ``step`` returns the seconds it
    took."""
    start = time.perf_counter()
    _slots, last = repetition(workload, checker)
    print(f"warm-up {last:.4f} s", flush=True)
    n = 0
    while n == 0 or (time.perf_counter() - start + last + reserve()
                     <= seconds):
        last = step(n)
        n += 1
        if checker.failed and n >= 3 and checker.failed == checker.attempted:
            break  # nothing works; do not spin until the deadline


def measure(workload, checker, calib, seconds, probe) -> dict[str, float]:
    """End-to-end metrics in reference seconds. The set-up probes are
    spread over the measuring window, one per repetition; those still
    owed when the repetitions end are counted into the window."""
    samples: list[dict[str, float]] = []
    setup_times: list[float] = []
    probe_cost = [0.0]  # last probe plus its calibration block, seconds

    def time_probe():
        t0 = time.perf_counter()
        setup_times.append(calib.reference(probe()))
        probe_cost[0] = time.perf_counter() - t0

    def reserve():  # probes the next step would still leave owed
        return max(0, SETUP_PROBES - len(setup_times) - 1) * probe_cost[0]

    def step(n):
        t0 = time.perf_counter()
        slots, _total = repetition(workload, checker, calib)
        if slots is not None:
            samples.append(slots)
            detail = " ".join(f"{k}={v:.4f}" for k, v in slots.items())
            print(f"rep {n} [{detail}] ref s, loop {calib.loop_s:.5f} s",
                  flush=True)
        if len(setup_times) < SETUP_PROBES:
            time_probe()
        return time.perf_counter() - t0

    time_probe()
    run_loop(workload, checker, seconds, step, reserve)
    while len(setup_times) < SETUP_PROBES:
        time_probe()
    print("setup probes " + " ".join(f"{t:.4f}" for t in setup_times)
          + " ref s", flush=True)
    if not samples:
        raise RuntimeError("no repetition completed; nothing measured")
    return {"wall_s": slot_sum(samples),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def trace(workload, checker, seconds) -> dict[str, float]:
    untraced: list[float] = []
    untraced_slots: list[dict[str, float]] = []
    untraced_counts: list[dict[str, float]] = []
    traced: list[tuple[float, tracing.Tracer, dict]] = []

    def step(n):
        slots, total = repetition(workload, checker)
        if slots is not None:
            untraced.append(total)
            untraced_slots.append(slots)
            untraced_counts.append(workload.counts())
        t0 = time.perf_counter()
        with tracing.Patched(tracing.Tracer()) as tracer:
            slots, total = repetition(workload, checker)
        leftover = tracing.still_patched()
        if leftover:
            raise RuntimeError(f"wrappers left installed: {leftover}")
        if slots is not None:
            traced.append((total, tracer, workload.counts()))
            print(f"pair {n}: untraced {untraced[-1]:.4f} s, traced "
                  f"{total:.4f} s", flush=True)
        return time.perf_counter() - t0 + (untraced[-1] if untraced else 0)

    run_loop(workload, checker, seconds, step)
    if not traced or not untraced:
        raise RuntimeError("no traced repetition completed")
    total, tracer, counts = min(traced, key=lambda t: t[0])
    return layer_report(tracer, counts, total, min(untraced),
                        untraced_slots, untraced_counts, workload)


def layer_report(tracer, counts, traced_s, untraced_s, samples,
                 sample_counts, workload) -> dict[str, float]:
    """Per-layer metrics of the fastest traced repetition, and a table
    of spans per (parent, name) printed before the result. ``samples``
    and ``sample_counts`` are the untraced repetitions' slot times and
    work counts."""
    out = {name: 0 for name, _unit in per_layer_metrics()}
    print(f"{'span':<24}{'parent':<24}{'calls':>10}{'self_s':>11}"
          f"{'share':>8}")
    for (parent, name), s in sorted(tracer.spans.items(),
                                    key=lambda kv: -kv[1].self_s):
        print(f"{name:<24}{parent or '-':<24}{s.calls:>10}"
              f"{s.self_s:>11.4f}{100 * s.self_s / traced_s:>7.2f}%")
    for name, s in tracer.by_name().items():
        out[f"{name}.calls"] = s.calls
        out[f"{name}.self_s"] = s.self_s
        out[f"{name}.share"] = 100.0 * s.self_s / traced_s
    out.update(tracer.counts)
    out.update(counts)
    if any(k.startswith(WARM) for k in samples[0]):
        out["fabric.cold_s"] = slot_sum(samples)
        out["fabric.warm_s"] = slot_sum(samples, warm=True)
        # Each repetition's cold sweeps less its own tasks' worker time.
        out["fabric.overhead_s"] = statistics.median(
            slot_sum([s]) - c["fabric.task_exec_s"] / workload.slots
            for s, c in zip(samples, sample_counts))
    out["trace.wall_s"] = traced_s
    out["trace.overhead_s"] = traced_s - untraced_s
    return out


# -- host witness ------------------------------------------------------------

def host_witness(calib_s: float) -> dict:
    """What ran where: code identity, machine, interpreter."""
    import numpy
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10,
                check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            sha = None
    h = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fp:
            for line in fp:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"git_sha": sha, "src_sha256": h.hexdigest(),
            "nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(),
            "numpy": numpy.__version__, "host.calib_s": calib_s}


# -- entry point -------------------------------------------------------------

def parse_args(argv=None):
    import workloads
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=None,
                   help="workload seed (default: the workload's own)")
    p.add_argument("--seconds", type=float, default=30.0,
                   help="length of the measuring window")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", metavar="WORKDIR",
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed is None:
        args.seed = workloads.WORKLOADS[args.workload].default_seed
    if not 0 <= args.seed < 2 ** 31:
        p.error("--seed must lie in [0, 2**31)")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    args = parse_args(argv)
    if args.setup_probe:
        return setup_probe(args.workload, args.seed, args.setup_probe)

    import workloads
    workdir = ROOT / ".perfbench-work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return run(args, workloads.WORKLOADS[args.workload], str(workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass


def run(args, cls, workdir: str) -> int:
    calib = Calibration()
    calib.block(0.2)
    workload = cls(args.seed, workdir)
    try:
        workload.setup()
        checker = Checker(workload.pinned
                          if args.seed == workload.default_seed else None)
        if args.trace:
            values = trace(workload, checker, args.seconds)
            units = dict(per_layer_metrics())
        else:
            values = measure(
                workload, checker, calib, args.seconds,
                lambda: time_setup(args.workload, args.seed, workdir))
            units = dict(END_TO_END)
    finally:
        workload.close()
    for message in checker.messages[:20]:
        print(f"check failed: {message}", flush=True)
    print("host " + json.dumps(host_witness(calib.best), sort_keys=True))
    result = {
        "correct": checker.correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
