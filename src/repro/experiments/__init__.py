"""Experiment drivers: one module per paper figure.

Each figure is a spec in :mod:`repro.experiments.specs` that decomposes
its sweep into tasks over the point functions below and merges their
payloads into :class:`~repro.metrics.series.FigureSeries` objects (the
plotted lines). ``cloudfog`` and the benchmarks under ``benchmarks/``
run the specs.

===========  =====================================================
paper item   point function
===========  =====================================================
Figure 2     :data:`repro.streaming.video.QUALITY_LADDER`
Figure 5(a)  :func:`repro.experiments.coverage.coverage_vs_datacenters`
Figure 5(b)  :func:`repro.experiments.coverage.coverage_vs_supernodes`
Figure 6(a)  same drivers with the PlanetLab scenario
Figure 6(b)  same drivers with the PlanetLab scenario
Figure 7     :func:`repro.experiments.bandwidth.bandwidth_vs_players`
Figure 8     :func:`repro.experiments.qoe.latency_point`
Figure 9     :func:`repro.experiments.qoe.continuity_point`
Figure 10    :func:`repro.experiments.satisfaction.simulate_supernode_load`
Figure 11    :func:`repro.experiments.satisfaction.simulate_supernode_load`
§III-A econ  :func:`repro.experiments.economics_exp.incentive_sweep`
===========  =====================================================

Figs. 10/11 and the churn and cooperation extensions share one
microcosm harness, :class:`repro.experiments.neighbourhood.Neighbourhood`.

The execution surface re-exports from here (resolved lazily so the
simulation stack only imports when actually used)::

    from repro.experiments import RunConfig, run_spec, run_named

    run_named("fig5a", 0.1, 42, config=RunConfig(jobs=4))
    run_named("fig5a", 0.1, 42,
              config=RunConfig(backend="remote", launch=2))
"""

import importlib

from repro.experiments.scenarios import Scenario, peersim_scenario, planetlab_scenario

#: Lazily re-exported execution API: name -> defining module.
_EXPORTS = {
    "RunConfig": "repro.experiments.config",
    "resolve_jobs": "repro.experiments.config",
    "run_spec": "repro.experiments.parallel",
    "run_named": "repro.experiments.parallel",
    "run_results": "repro.experiments.runner",
    "run_experiment": "repro.experiments.runner",
    "run_all": "repro.experiments.runner",
    "resolve_experiments": "repro.experiments.runner",
    "ExperimentSpec": "repro.experiments.api",
    "SweepTask": "repro.experiments.api",
    "RunResult": "repro.experiments.api",
    "ResultCache": "repro.experiments.cache",
    "ResilienceConfig": "repro.experiments.resilience",
    "SweepFailure": "repro.experiments.resilience",
    "TaskFailure": "repro.experiments.resilience",
    "ExecutionBackend": "repro.experiments.backends",
    "InlineBackend": "repro.experiments.backends",
    "PoolBackend": "repro.experiments.backends",
    "RemoteBackend": "repro.experiments.backends",
}

__all__ = ["Scenario", "peersim_scenario", "planetlab_scenario",
           *sorted(_EXPORTS)]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value  # cache for subsequent lookups
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
