"""Tests for the ``scale`` experiment spec and the ``cloudfog scale`` CLI."""

import json

import pytest

from repro.cli import main
from repro.experiments.specs import (
    SPECS,
    TASK_RUNNERS,
    _decompose_scale,
    _merge_scale,
)

ARGS = ["scale", "--players", "800", "--regions", "3", "--ticks", "30"]


class TestScaleCli:
    def test_prints_percentiles_and_digest(self, capsys):
        assert main(ARGS) == 0
        out = capsys.readouterr().out
        assert "P50" in out and "P95" in out and "P99" in out
        assert "digest" in out
        assert "800 players" in out
        assert "region   0" in out  # per-region breakdown

    def test_modes_print_identical_digest(self, capsys):
        assert main(ARGS + ["--mode", "cohort"]) == 0
        cohort = capsys.readouterr().out
        assert main(ARGS + ["--mode", "per-player"]) == 0
        per_player = capsys.readouterr().out
        pick = lambda text: [ln for ln in text.splitlines()
                             if "digest" in ln]
        assert pick(cohort) == pick(per_player)

    def test_json_output(self, capsys):
        assert main(ARGS + ["--json"]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out)
        assert payload["n_players"] == 800
        assert payload["p99_ms"] >= payload["p95_ms"] >= payload["p50_ms"]
        assert len(payload["regions"]) == 3

    @pytest.mark.parametrize("argv", [
        ARGS,
        ["dynamics", "--players", "300", "--regions", "3", "--ticks", "10"],
    ])
    def test_json_file_is_byte_identical_across_runs(self, argv, tmp_path):
        # No wall-clock field: a same-seed report is the same file.
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            assert main(argv + ["--json", str(path)]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_rejects_bad_spec(self, capsys):
        with pytest.raises(SystemExit):
            main(["scale", "--players", "0"])

    def test_one_tick_run(self, capsys):
        assert main(["scale", "--players", "50", "--regions", "3",
                     "--ticks", "1"]) == 0
        out = capsys.readouterr().out
        assert "50 player-ticks" in out


class TestScaleSpec:
    def test_registered(self):
        assert "scale" in SPECS
        assert "scale_point" in TASK_RUNNERS

    def test_decompose_covers_both_modes(self):
        tasks = _decompose_scale(0.05, 3)
        modes = {t.params["mode"] for t in tasks}
        assert modes == {"cohort", "per-player"}
        # The per-player cross-check runs at the smallest population.
        pp = [t for t in tasks if t.params["mode"] == "per-player"]
        assert len(pp) == 1
        assert pp[0].params["n_players"] == min(
            t.params["n_players"] for t in tasks)

    def test_merge_rejects_digest_mismatch(self):
        tasks = _decompose_scale(0.05, 3)
        point = {"digest": "aaa", "p50_ms": 1.0, "p95_ms": 2.0,
                 "p99_ms": 3.0, "satisfied": 1.0}
        ordered = [(t.key, dict(point)) for t in tasks]
        ordered[-1][1]["digest"] = "bbb"  # the per-player cross-check
        with pytest.raises(AssertionError, match="digest mismatch"):
            _merge_scale(0.05, 3, ordered)

    def test_merge_produces_series(self):
        tasks = _decompose_scale(0.05, 3)
        point = {"digest": "aaa", "p50_ms": 1.0, "p95_ms": 2.0,
                 "p99_ms": 3.0, "satisfied": 0.99}
        series = _merge_scale(0.05, 3, [(t.key, point) for t in tasks])
        labels = [s.label for s in series]
        assert labels == ["P50", "P95", "P99", "satisfied"]
        assert all(len(s.x) == 3 for s in series)
