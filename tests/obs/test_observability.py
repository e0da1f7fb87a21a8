"""Events are built only for a listener; metrics are recorded always."""

import pytest

from repro.core.infrastructure import (
    SessionConfig,
    SystemVariant,
    simulate_sessions,
)
from repro.experiments.scenarios import peersim_scenario
from repro.obs import Observability, TraceRecorder, default_checkers


class CountingObservability(Observability):
    """Records the kind of every event a component emits."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.kinds = []

    def emit(self, t, component, kind, **data):
        self.kinds.append(kind)
        super().emit(t, component, kind, **data)


def run_session(variant, obs):
    scen = peersim_scenario(0.02, seed=3)
    pop = scen.build()
    simulate_sessions(pop, variant, scen.online_sample(pop),
                      SessionConfig(duration_s=6.0, warmup_s=1.0), obs=obs)


VARIANTS = [SystemVariant.CLOUD, SystemVariant.CLOUDFOG_A]


class TestListening:
    def test_trace_or_checker_listens(self):
        assert not Observability().listening
        assert Observability(trace=TraceRecorder()).listening
        assert Observability(checkers=default_checkers()).listening

    @pytest.mark.parametrize("variant", VARIANTS, ids=lambda v: v.value)
    def test_metrics_only_session_emits_only_its_start(self, variant):
        obs = CountingObservability()
        run_session(variant, obs)
        assert obs.kinds == ["session.start"]

    @pytest.mark.parametrize("variant", VARIANTS, ids=lambda v: v.value)
    def test_metrics_do_not_depend_on_listeners(self, variant):
        quiet = CountingObservability()
        loud = CountingObservability(trace=TraceRecorder(),
                                     checkers=default_checkers())
        run_session(variant, quiet)
        run_session(variant, loud)
        assert len(loud.kinds) > 1_000
        assert quiet.metrics.snapshot() == loud.metrics.snapshot()
