"""Tests of the benchmark's own code.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import Outcome, Workload  # noqa: E402


# -- self time ---------------------------------------------------------------

def test_self_time_subtracts_each_child_once():
    # a(10) > [b(4) > c(1)], a > c(2); then a top-level c(3).
    t = tracing.Tracer()
    t.enter("a")
    t.enter("b")
    t.enter("c")
    t.exit(1.0)
    t.exit(4.0)
    t.enter("c")
    t.exit(2.0)
    t.exit(10.0)
    t.enter("c")
    t.exit(3.0)

    s = t.spans
    assert s[(None, "a")].self_s == pytest.approx(10.0 - 4.0 - 2.0)
    assert s[("a", "b")].self_s == pytest.approx(3.0)
    assert s[("b", "c")].self_s == pytest.approx(1.0)
    assert s[("a", "c")].self_s == pytest.approx(2.0)
    assert s[(None, "c")].calls == 1
    by_name = t.by_name()
    assert by_name["c"].calls == 3
    assert by_name["c"].total_s == pytest.approx(6.0)
    # Self times partition the top-level spans' total exactly.
    assert sum(x.self_s for x in s.values()) == pytest.approx(10.0 + 3.0)


def test_wrapper_records_nesting_and_argument_counts():
    t = tracing.Tracer()

    def inner(x):
        return x + 1

    wrapped_inner = t.wrap("inner", inner,
                           counter=("inner.arg", lambda x: x))

    def outer(x):
        return wrapped_inner(x) * 2

    assert t.wrap("outer", outer)(3) == 8
    assert t.spans[("outer", "inner")].calls == 1
    assert t.spans[(None, "outer")].child_s == pytest.approx(
        t.spans[("outer", "inner")].total_s)
    assert t.counts == {"inner.arg": 3}


def test_patched_restores_every_original_object():
    before = {(m, q): tracing.resolve(m, q) for _n, m, q in tracing.SPANS}
    originals = {k: vars(owner)[attr] for k, (owner, attr) in before.items()}
    with tracing.Patched(tracing.Tracer()):
        assert len(tracing.still_patched()) == len(tracing.SPANS)
    assert tracing.still_patched() == []
    for key, (owner, attr) in before.items():
        assert vars(owner)[attr] is originals[key]


def test_traced_kernel_reproduces_the_untraced_digest():
    from repro.core.cohort import CohortKernel, ScaleSpec
    spec = ScaleSpec(n_players=300, n_regions=4, n_ticks=12,
                     faults="outage", seed=5)
    plain = CohortKernel(spec).run()
    with tracing.Patched(tracing.Tracer()) as tracer:
        traced = CohortKernel(spec).run()
    assert traced.digest == plain.digest
    spans = tracer.by_name()
    assert spans["cohort.build"].calls == 1
    assert spans["sim.run"].calls == 1
    assert spans["cohort.batch_advance"].calls >= 1
    assert tracer.counts["cohort.batch_players"] > 0


# -- timing statistic --------------------------------------------------------

def test_slot_sum_adds_each_slots_median_and_keeps_warm_slots_apart():
    samples = [{"a": 3.0, "b": 5.0, "warm0": 0.05},
               {"a": 2.0, "b": 9.0, "warm0": 0.01},
               {"a": 4.0, "b": 4.0, "warm0": 0.06}]
    assert run.slot_sum(samples) == pytest.approx(3.0 + 5.0)
    assert run.slot_sum(samples, warm=True) == pytest.approx(0.05)
    assert run.slot_sum([{"x": 1.5}]) == 1.5


def test_reference_seconds_scale_by_the_block_that_follows(monkeypatch):
    now = [0.0]
    loops = []

    class FakeTime:
        @staticmethod
        def perf_counter():
            return now[0]

    def slow_loop():  # a host at half the reference host's speed
        loops.append(1)
        now[0] += 2 * run.REF_CALIB_S

    monkeypatch.setattr(run, "time", FakeTime)
    monkeypatch.setattr(run, "calib_loop", slow_loop)
    calib = run.Calibration()
    assert calib.reference(1.0) == pytest.approx(0.5)
    assert calib.best == pytest.approx(2 * run.REF_CALIB_S)
    # The first block is sized by the reference loop time, later ones by
    # the loop time measured, so each lasts about as long as the call.
    assert len(loops) == round(1.0 / run.REF_CALIB_S)
    loops.clear()
    assert calib.reference(1.0) == pytest.approx(0.5)
    assert len(loops) == round(1.0 / (2 * run.REF_CALIB_S))


# -- checks ------------------------------------------------------------------

class FakeWorkload(Workload):
    """Returns scripted digests; raises when the script says so."""

    name = "fake"
    pinned = {"op": "good"}
    ops_per_rep = 2

    def __init__(self, script):
        super().__init__(0, ".")
        self.script = list(script)

    def setup(self):
        pass

    def repetition(self, clock):
        digest = clock("slot", lambda: self.script.pop(0))
        if digest == "raise":
            raise ValueError("boom")
        return [Outcome("op", digest, ops=2)]


def test_wrong_pinned_digest_is_a_failed_operation_not_a_crash():
    workload = FakeWorkload(["good", "bad", "raise", "good"])
    checker = run.Checker(workload.pinned)
    results = [run.repetition(workload, checker) for _ in range(4)]
    assert [r[0] is None for r in results] == [False, False, True, False]
    assert checker.attempted == 8
    assert checker.failed == 4
    assert not checker.correct
    assert any("bad != expected good" in m for m in checker.messages)


def test_unpinned_repetitions_must_agree_with_the_first():
    checker = run.Checker(None)
    checker.check([Outcome("op", "x")])
    checker.check([Outcome("op", "x")])
    assert checker.correct
    checker.check([Outcome("op", "y", problems=["invariant broken"])])
    assert checker.failed == 1
    assert "invariant broken" in checker.messages[0]


def test_measure_reports_failures_and_still_returns_metrics():
    script = ["good", "bad", "good"] * 100
    workload = FakeWorkload(script)
    checker = run.Checker(workload.pinned)
    values = run.measure(workload, checker, run.Calibration(), 0.1,
                         probe=lambda: 0.25)
    assert set(values) == {name for name, _unit in run.END_TO_END}
    assert values["setup_s"] > 0
    consumed = script[:len(script) - len(workload.script)]
    assert consumed.count("bad") >= 1
    assert checker.attempted == 2 * len(consumed)
    assert checker.failed == 2 * consumed.count("bad")


def test_setup_s_is_the_median_probe():
    class PlainSeconds:
        loop_s = run.REF_CALIB_S

        def reference(self, seconds):
            return seconds

    probes = iter([0.5, 0.3, 0.6, 0.4, 0.35, 0.7, 0.45])
    workload = FakeWorkload(["good"] * 100)
    values = run.measure(workload, run.Checker(workload.pinned),
                         PlainSeconds(), 0.05, probe=lambda: next(probes))
    assert values["setup_s"] == 0.45


# -- contract ----------------------------------------------------------------

def test_benchmark_json_lists_exactly_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] \
        == run.per_layer_metrics()
    import workloads
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_missing_program_source_exits_nonzero(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    code = run.main(["--workload", "fig9a", "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""
