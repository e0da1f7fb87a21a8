"""Seed-equivalence pins for the assignment-strategy refactor (PR 9).

``strategy="greedy"`` must be byte-identical to the pre-refactor seed
behaviour: these digests and aggregates were captured on the seed code
*before* ``AssignmentStrategy``/``make_assignment`` existed. Any drift
in the greedy path — candidate ordering, capacity accounting, RNG
draws — shows up here first. If a change is intentional, regenerate:

    PYTHONPATH=src python - <<'EOF'
    from repro.experiments.runner import run_results
    for fig in ("fig5a", "fig8a"):
        (r,) = run_results(fig, scale=0.02, seed=11).values()
        print(fig, r.digest)
    EOF

(and analogously for the chaos trace digest and session aggregates
below — see each test's parameters).
"""

import hashlib
import json

import pytest

#: RunResult series digests at scale=0.02, seed=11. fig5a and fig8a
#: exercise the greedy assignment protocol (captured pre-refactor); the
#: other five pin the microcosm drivers' series: Figs. 10/11, churn and
#: cooperation on ``repro.experiments.neighbourhood``, dynamic on
#: ``DynamicSimulation``.
GOLDEN_SERIES = {
    "fig5a": "5e7ea70dac21e994c7f5954c90b1a8e76bb67a0d1943059ceb80a338ff61859a",
    "fig8a": "6f78e3be579b2e7cd7c488fdac789f1d05f553eaf14dc6cf86e4a4682df7732a",
    "fig10": "01f31385efca16594f27eebee73518a699505043620b390222be47f8a350cb3c",
    "fig11": "4ab9d25e545afaa9900f2261c8f3f27ba54722415493da7911e46d9c81b29d2e",
    "churn": "1db736e4e2b813cbea2e653a29145bbdf981c4b6fa008e361522528674059451",
    "cooperation": (
        "ceadc7b5dd2a947a099f6421baef911d9c9c77107254c5218e4864dee2ba82c8"),
    "dynamic": "f7e76242c42c9df0ddb05e2d7c4995916803533edc4ede46a07098a81d4cdb6e",
}

#: Chaos trace digest (crash-recover preset: exercises mark_failed,
#: migration via re-assignment, and release) at scale=0.02, seed=5,
#: intensity=1, duration 12 s — captured pre-refactor.
GOLDEN_CHAOS_TRACE = (
    "af985d367de4b7038f9f6500e4f11ee856d44bf4ac0b7197ad55fe0a393c1c09")

#: Kernel events that session schedules (and processes).
GOLDEN_SIM_EVENTS = 55_572

#: SHA-256 of that session's whole metrics snapshot
#: (``json.dumps(snapshot, sort_keys=True)``), so a counter increment or
#: histogram observation that goes missing fails as surely as a changed
#: event count.
GOLDEN_SESSION_METRICS_SHA256 = (
    "7ad07647b02494ac13ab6c36421fd3292e01471226f3f2bb3ec71f6043bc499b")

#: SessionResult aggregates of a CloudFog/A session (peersim scale=0.05,
#: seed=42, duration 15 s, warmup 2 s) — captured pre-refactor.
GOLDEN_SESSION = {
    "n_players": 95,
    "mean_continuity": 0.8421052631578947,
    "mean_latency_s": 0.07563168326204649,
    "satisfied_fraction": 0.8421052631578947,
    "cloud_update_bytes": 6040000.0,
    "cloud_stream_bytes": 570000,
    "supernode_bytes": 48718750,
    "served_supernode": 0.8315789473684211,
}


class TestGreedySeedEquivalence:
    @pytest.mark.parametrize("figure", sorted(GOLDEN_SERIES))
    def test_pinned_series_digest(self, figure):
        from repro.experiments.runner import run_results

        (result,) = run_results(figure, scale=0.02, seed=11).values()
        assert result.digest == GOLDEN_SERIES[figure]

    def test_pinned_chaos_trace_digest(self):
        """The failover path (mark_failed → migrate → release) through
        the strategy surface is byte-identical to the seed code."""
        import repro.obs as obs_mod
        from repro.obs import Observability, TraceRecorder, default_checkers
        from repro.experiments.chaos import ChaosConfig, run_chaos

        obs = Observability(trace=TraceRecorder(),
                            checkers=default_checkers())
        with obs_mod.use(obs):
            run_chaos(0.02, 5, preset="crash-recover", intensity=1,
                      config=ChaosConfig(duration_s=12.0))
        assert obs.digest() == GOLDEN_CHAOS_TRACE

    def test_pinned_session_aggregates(self):
        """SessionResult equality with the pre-refactor seed figures."""
        from repro.core.infrastructure import (
            SessionConfig,
            SystemVariant,
            simulate_sessions,
        )
        from repro.experiments.scenarios import peersim_scenario
        from repro.obs import Observability

        scen = peersim_scenario(0.05, seed=42)
        pop = scen.build()
        online = scen.online_sample(pop)
        obs = Observability()
        res = simulate_sessions(
            pop, SystemVariant.CLOUDFOG_A, online,
            SessionConfig(duration_s=15.0, warmup_s=2.0), obs=obs)
        got = {
            "n_players": res.n_players,
            "mean_continuity": res.mean_continuity,
            "mean_latency_s": res.mean_latency_s,
            "satisfied_fraction": res.satisfied_fraction,
            "cloud_update_bytes": res.cloud_update_bytes,
            "cloud_stream_bytes": res.cloud_stream_bytes,
            "supernode_bytes": res.supernode_bytes,
            "served_supernode": res.fraction_served_by("supernode"),
        }
        assert got == GOLDEN_SESSION
        # The kernel's run-end counts: every queued event was processed,
        # and the two counters lead the snapshot.
        snap = obs.metrics.snapshot()
        assert list(snap)[:2] == ["sim.events_scheduled",
                                  "sim.events_processed"]
        assert snap["sim.events_scheduled"]["value"] == GOLDEN_SIM_EVENTS
        assert snap["sim.events_processed"]["value"] == GOLDEN_SIM_EVENTS
        assert hashlib.sha256(json.dumps(
            snap, sort_keys=True).encode()).hexdigest() == (
                GOLDEN_SESSION_METRICS_SHA256)
        # The refactor *adds* load indices without touching the QoE
        # envelope: greedy sessions now report them too.
        assert res.load_indices is not None
        assert res.load_indices["strategy"] == "greedy"

    def test_default_params_select_greedy(self):
        from repro.core.assignment import (
            AssignmentParams,
            SupernodeAssignment,
            make_assignment,
        )
        import numpy as np
        from repro.network.latency import LatencyModel, LatencyParams

        rng = np.random.default_rng(0)
        positions = rng.uniform(0, 10, size=(4, 2))
        lat = LatencyModel(positions, rng,
                           LatencyParams(jitter_scale_s=0.0),
                           metro_ids=np.zeros(4, dtype=int))
        service = make_assignment(
            lat, np.array([1, 2]), np.array([3, 3]), np.array([0]))
        assert type(service) is SupernodeAssignment
        assert AssignmentParams().strategy == "greedy"
