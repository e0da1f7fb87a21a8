"""Golden-digest regression fixtures for the event kernel.

Two pins:

* The cohort kernel's trace digest for four small pinned configurations.
  Any change to the state math, the event ordering, the counter RNG, or
  the hash layout shows up here first — deliberately, since downstream
  equivalence tests compare runs *to each other* and would both drift.
  The kernel uses only IEEE-754-exact operations (add/sub/mul/div/
  min/max/sqrt, integer counters), so these digests are identical across
  platforms and numpy builds. If a change is intentional, regenerate:

      PYTHONPATH=src python -c "
      from repro.core.cohort import ScaleSpec, run_scale
      for seed, faults in [(0,'mixed'),(1,'outage'),(2,'none'),
                           (3,'crashes')]:
          print(seed, faults, run_scale(ScaleSpec(
              n_players=250, n_regions=3, n_ticks=40, seed=seed,
              mode='cohort', faults=faults)).digest)"

* Queue-kind neutrality: the pinned cohort run and the *seed figures*
  produce byte-identical digests whether the discrete-event kernel runs
  on the binary heap or the calendar queue. Each simulator builds its
  own ``Environment`` (sessions on the heap, the cohort kernel on the
  calendar), so the tests swap the other kind in.
"""

from functools import partial

import pytest

from repro.core.cohort import CohortKernel, ScaleSpec, run_scale
from repro.sim.engine import Environment

GOLDEN = {
    (0, "mixed"): "ac914652e02f01841b5f245cb1f5b083d6f247165624c0b2b9ecc3ab1a28dbfb",
    (1, "outage"): "773a0df5907c378bdbf3b90628f7cd2ca5fb4c7088d4c580d33c6c7163ca8fc2",
    (2, "none"): "71d110b700d511692133e950b9f0b14eb81612779c269082e2561c82ed4a5608",
    (3, "crashes"): "df038652abe3d50453c35b169c97eefc2bc1ca2a61bcafb7acbd4f5c1bbd3313",
}


class TestGoldenScaleDigests:
    @pytest.mark.parametrize("seed,faults", sorted(GOLDEN))
    def test_pinned_digest(self, seed, faults):
        report = run_scale(ScaleSpec(
            n_players=250, n_regions=3, n_ticks=40, seed=seed,
            mode="cohort", faults=faults))
        assert report.digest == GOLDEN[(seed, faults)]

    @pytest.mark.parametrize("queue", ["heap", "calendar"])
    def test_pinned_digest_queue_independent(self, queue):
        kernel = CohortKernel(ScaleSpec(
            n_players=250, n_regions=3, n_ticks=40, seed=0,
            mode="per-player", faults="mixed"))
        kernel.env = Environment(queue=queue)
        assert kernel.run().digest == GOLDEN[(0, "mixed")]


class TestSeedFigureQueueNeutrality:
    @pytest.mark.parametrize("figure", ["fig5a", "fig8a"])
    def test_heap_and_calendar_agree(self, figure, monkeypatch):
        import repro.core.infrastructure as infrastructure
        from repro.experiments.runner import run_results

        digests = {}
        for kind in ("heap", "calendar"):
            monkeypatch.setattr(infrastructure, "Environment",
                                partial(Environment, queue=kind))
            (result,) = run_results(figure, scale=0.02, seed=11).values()
            digests[kind] = result.digest
        assert digests["heap"] == digests["calendar"]
