"""End-to-end chaos: presets against the full session simulation.

Everything runs at a tiny scale under live invariant checking — a fault
plan may degrade QoE, but it must never break packet conservation, EDF
order, playback accounting or the clock.
"""

import pytest

import repro.obs as obs_mod
from repro.experiments.chaos import ChaosConfig, run_chaos
from repro.faults.plan import PlanBuilder
from repro.obs import Observability, TraceRecorder, default_checkers

SCALE = 0.02
SEED = 5


def checked_chaos(preset="crash-recover", intensity=1, plan=None):
    obs = Observability(trace=TraceRecorder(), checkers=default_checkers())
    with obs_mod.use(obs):
        report = run_chaos(SCALE, SEED, preset=preset, intensity=intensity,
                           plan=plan)
    return report, obs


@pytest.fixture(scope="module")
def crash_recover():
    return checked_chaos("crash-recover")


class TestCrashRecover:
    def test_fault_injected_and_cleared(self, crash_recover):
        report, _ = crash_recover
        fs = report["fault_stats"]
        assert fs["injected"] == 1
        assert fs["cleared"] == 1
        assert fs["skipped"] == 0

    def test_players_recover_in_finite_time(self, crash_recover):
        report, _ = crash_recover
        fs = report["fault_stats"]
        assert fs["detections"] > 0
        assert fs["recoveries"] == fs["detections"]
        assert fs["in_progress"] == 0
        assert 0.0 < fs["mean_recovery_time_s"] < 5.0

    def test_invariants_hold_under_faults(self, crash_recover):
        # The checkers ran live inside checked_chaos; reaching this
        # point means no InvariantViolation was raised. Confirm they
        # actually saw the run.
        _, obs = crash_recover
        assert len(obs.trace) > 0
        assert len(obs.checkers) == 5

    def test_failover_instruments_recorded(self, crash_recover):
        _, obs = crash_recover
        snap = obs.metrics.snapshot()
        assert snap["failover.detections"]["value"] > 0
        assert snap["failover.recoveries"]["value"] > 0
        assert snap["failover.recovery_time_s"]["count"] > 0

    def test_mean_latency_skips_players_without_segments(self, monkeypatch):
        import repro.experiments.chaos as chaos_mod

        sessions = []
        real = chaos_mod.simulate_sessions

        def spy(*args, **kwargs):
            sessions.append(real(*args, **kwargs))
            return sessions[-1]

        monkeypatch.setattr(chaos_mod, "simulate_sessions", spy)
        report = run_chaos(SCALE, SEED)
        (result,) = sessions
        # A player that received no segment has no latency to average.
        assert any(o.segments_received == 0 for o in result.outcomes)
        assert report["mean_latency_s"] == result.mean_latency_s

    def test_same_seed_reproducible(self, crash_recover):
        _, obs_a = crash_recover
        _, obs_b = checked_chaos("crash-recover")
        assert obs_a.digest() == obs_b.digest()
        assert obs_a.metrics.snapshot() == obs_b.metrics.snapshot()


class TestPartitionHeals:
    def test_traffic_lost_during_window_then_resumes(self):
        report, _ = checked_chaos("partition", intensity=2)
        fs = report["fault_stats"]
        assert fs["injected"] == 1
        assert fs["cleared"] == 1
        assert fs["segments_lost_to_faults"] > 0
        # The partition heals well before the horizon: players keep
        # playing (degraded, not dead).
        assert 0.0 < report["continuity"] < 1.0

    def test_partition_degrades_qoe_vs_baseline(self):
        baseline, _ = checked_chaos("partition", intensity=0)
        partition, _ = checked_chaos("partition", intensity=2)
        assert partition["continuity"] < baseline["continuity"]


class TestStorm:
    def test_compound_faults_degrade_not_crash(self):
        report, _ = checked_chaos("storm")
        fs = report["fault_stats"]
        assert fs["injected"] == 4
        assert report["continuity"] > 0.0
        assert fs["recoveries"] > 0


class TestExplicitPlan:
    def test_custom_plan_overrides_preset(self):
        plan = (PlanBuilder(seed=SEED)
                .loss_burst(at_s=4.0, duration_s=2.0, loss_fraction=0.5)
                .build())
        report, _ = checked_chaos(plan=plan)
        fs = report["fault_stats"]
        assert report["n_faults"] == 1
        assert fs["injected"] == 1
        assert fs["segments_lost_to_faults"] > 0
        assert fs["detections"] == 0  # loss burst: no crash, no failover

    def test_longer_duration_config(self):
        report = run_chaos(SCALE, SEED, preset="crash",
                           config=ChaosConfig(duration_s=8.0))
        assert report["fault_stats"]["injected"] == 1


class TestChaosSpec:
    def test_registered_with_runner(self):
        from repro.experiments.specs import SPECS
        assert "chaos" in SPECS

    def test_decomposes_into_preset_x_intensity_grid(self):
        from repro.experiments.specs import get_spec
        tasks = get_spec("chaos").decompose(0.02, 5)
        assert len(tasks) == 12
        assert all(t.runner == "chaos_point" for t in tasks)

    def test_series_anchored_at_no_fault_baseline(self):
        from repro.experiments.runner import run_experiment
        series = run_experiment("chaos", scale=SCALE, seed=SEED)
        assert len(series) == 4
        baselines = {s.y[0] for s in series}
        # Intensity 0 is the same empty plan for every preset.
        assert len(baselines) == 1


class TestChaosCli:
    def test_cli_reports_recoveries_and_invariants(self, capsys):
        from repro.cli import main
        assert main(["chaos", "--scale", "0.02", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "recoveries:" in out
        assert "invariants:  passed" in out
        assert "digest:" in out

    def test_cli_plan_file_and_json_report(self, tmp_path, capsys):
        import json
        from repro.cli import main
        plan = (PlanBuilder()
                .crash(at_s=4.0, recover_after_s=3.0)
                .build())
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(plan.to_dict()))
        report_path = tmp_path / "report.json"
        assert main(["chaos", "--scale", "0.02", "--seed", "5",
                     "--plan", str(plan_path),
                     "--json", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert report["n_faults"] == 1
        assert report["fault_stats"]["injected"] == 1
