"""Tests for the experiment runner and CLI."""

import json
import re

import pytest

from repro.cli import SUBCOMMANDS, build_parser, main
from repro.experiments.runner import resolve_experiments, run_experiment
from repro.experiments.specs import SPECS


class TestRunner:
    def test_all_figures_registered(self):
        expected = {"fig5a", "fig5b", "fig6a", "fig6b", "fig7a", "fig7b",
                    "fig8a", "fig8b", "fig9a", "fig9b", "fig10", "fig11",
                    "economics", "churn", "cooperation", "gameworld",
                    "security", "dynamic", "chaos", "scale",
                    "orchestration", "dynamics"}
        assert set(SPECS) == expected

    def test_gameworld_runs_tiny(self):
        series = run_experiment("gameworld", scale=0.05, seed=1)
        labels = [s.label for s in series]
        assert "kd-tree (median splits)" in labels
        assert any(l.startswith("AOI=") for l in labels)

    def test_unknown_experiment(self):
        with pytest.raises(ValueError, match="unknown experiment"):
            run_experiment("fig99")

    def test_fig5a_runs_tiny(self):
        series = run_experiment("fig5a", scale=0.01, seed=1)
        assert len(series) == 5  # one per latency requirement
        for s in series:
            assert len(s.x) == len(s.y) > 0

    def test_economics_runs_tiny(self):
        series = run_experiment("economics", scale=0.02, seed=1)
        assert len(series) == 3


class TestCli:
    def test_parser_accepts_experiments(self):
        parser = build_parser()
        args = parser.parse_args(["fig5a", "--scale", "0.2", "--seed", "7"])
        assert args.experiment == "fig5a"
        assert args.scale == 0.2
        assert args.seed == 7

    def test_ladder_command(self, capsys):
        assert main(["ladder"]) == 0
        out = capsys.readouterr().out
        assert "1800kbps" in out
        assert "110 ms" in out

    def test_experiment_prints_series(self, capsys):
        assert main(["fig5a", "--scale", "0.01"]) == 0
        out = capsys.readouterr().out
        assert "req=30ms" in out
        assert "fig5a" in out

    def test_json_output(self, capsys):
        assert main(["fig5a", "--scale", "0.01", "--json"]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out)
        assert "fig5a" in payload
        assert payload["fig5a"][0]["label"] == "req=30ms"

    @pytest.mark.parametrize("argv", [
        ["dynamics", "--players", "300", "--regions", "3", "--ticks", "10",
         "--json", "-"],
        ["chaos", "--scale", "0.02", "--duration", "2", "--json", "-"],
        ["orchestrate", "--scale", "0.02", "--duration", "2", "--json", "-"],
        # A bare --json means stdout for every command.
        ["chaos", "--scale", "0.02", "--duration", "2", "--json"],
        ["orchestrate", "--scale", "0.02", "--duration", "2", "--json"],
    ])
    def test_json_stdout_is_one_document(self, argv, capsys):
        # The text report goes to stderr, so stdout parses whole.
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert isinstance(json.loads(captured.out), dict)
        assert "digest" in captured.err

    def test_runner_choices_exclude_subcommands(self):
        parser = build_parser()
        for name in sorted(set(SPECS) - set(SUBCOMMANDS)):
            assert parser.parse_args([name]).experiment == name
        for name in SUBCOMMANDS:
            with pytest.raises(SystemExit):
                parser.parse_args([name])

    def test_shadowed_sweep_runs_under_trace(self, capsys):
        assert main(["trace", "--figure", "dynamics", "--scale", "0.02"]) == 0
        assert "experiments: dynamics" in capsys.readouterr().out

    def test_trace_without_events_is_not_checked(self, capsys):
        assert main(["trace", "--figure", "fig5a", "--scale", "0.02"]) == 0
        out = capsys.readouterr().out
        assert "events:      0\n" in out
        assert "invariants:  not checked (no events recorded)" in out

    @pytest.mark.parametrize("figure", ["fig10", "dynamic"])
    def test_trace_checks_microcosm_events(self, figure, capsys):
        assert main(["trace", "--figure", figure, "--scale", "0.02"]) == 0
        out = capsys.readouterr().out
        assert int(re.search(r"events:\s+(\d+)", out).group(1)) > 0
        assert "invariants:  passed" in out

    def test_rejects_unknown(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figXX"])

    def test_plot_output(self, capsys):
        assert main(["fig5a", "--scale", "0.01", "--plot"]) == 0
        out = capsys.readouterr().out
        assert "user coverage" in out
        assert "o = req=30ms" in out
        assert "|" in out  # chart canvas

    def test_extensions_runnable_from_cli(self, capsys):
        assert main(["security", "--scale", "0.02"]) == 0
        out = capsys.readouterr().out
        assert "with reputation + eviction" in out


class TestResolveExperiments:
    def test_exact_key(self):
        assert resolve_experiments("fig5a") == ["fig5a"]
        assert resolve_experiments("economics") == ["economics"]

    def test_whole_figure_prefix_expands_to_panels(self):
        assert resolve_experiments("fig5") == ["fig5a", "fig5b"]
        assert resolve_experiments("fig8") == ["fig8a", "fig8b"]

    def test_ambiguous_numeric_prefix_rejected(self):
        # "fig1" used to silently expand to fig10 + fig11; now it must
        # error and point at the exact keys instead.
        with pytest.raises(ValueError, match="fig10"):
            resolve_experiments("fig1")

    def test_unknown_name_suggests_close_matches(self):
        with pytest.raises(ValueError, match="did you mean.*fig5a"):
            resolve_experiments("fig5A")

    def test_unrelated_name_still_errors(self):
        with pytest.raises(ValueError, match="unknown experiment"):
            resolve_experiments("bogus")


class TestCliParallelFlags:
    def test_defaults(self):
        args = build_parser().parse_args(["fig5a"])
        assert args.jobs == 1
        assert args.cache_dir is None
        assert args.json is None

    def test_jobs_and_cache_flags(self):
        args = build_parser().parse_args(
            ["all", "--jobs", "4", "--cache-dir", "/tmp/cf"])
        assert args.jobs == 4
        assert args.cache_dir == "/tmp/cf"

    def test_json_optional_path(self):
        assert build_parser().parse_args(["fig5a", "--json"]).json == "-"
        args = build_parser().parse_args(["fig5a", "--json", "out.json"])
        assert args.json == "out.json"

    def test_json_file_output(self, tmp_path, capsys):
        out = tmp_path / "fig5a.json"
        assert main(["fig5a", "--scale", "0.01", "--json", str(out)]) == 0
        assert f"to {out}" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert payload["fig5a"][0]["label"] == "req=30ms"
        assert set(payload["fig5a"][0]) == {
            "label", "x_label", "y_label", "x", "y"}

    def test_parallel_run_from_cli(self, capsys):
        assert main(["fig5a", "--scale", "0.01", "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "req=30ms" in out
        assert "jobs=2" in out

    def test_cache_dir_round_trip(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        argv = ["fig5a", "--scale", "0.01", "--cache-dir", cache_dir]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "[cache] 0 hits, 5 misses" in cold
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "[cache] 5 hits, 0 misses" in warm

    def test_negative_jobs_rejected_at_parser(self, capsys):
        # A clear argparse error, not a ValueError traceback out of
        # resolve_jobs.
        with pytest.raises(SystemExit) as exc_info:
            main(["fig5a", "--scale", "0.01", "--jobs", "-2"])
        assert exc_info.value.code == 2
        err = capsys.readouterr().err
        assert "--jobs" in err
        assert "0 = all cores" in err

    def test_non_integer_jobs_rejected_at_parser(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["fig5a", "--jobs", "many"])
        assert exc_info.value.code == 2
        assert "expected an integer" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command", ["scale", "dynamics", "chaos", "orchestrate"])
    def test_single_run_subcommands_reject_execution_flags(
            self, command, capsys):
        # These run one simulation, not a sweep: an execution flag
        # would be silently ignored, so the parser refuses it.
        with pytest.raises(SystemExit) as exc_info:
            main([command, "--jobs", "4", "--launch", "2"])
        assert exc_info.value.code == 2
        assert ("unrecognized arguments: --jobs 4 --launch 2"
                in capsys.readouterr().err)
