"""One-stop experiment runner over the typed spec registry.

The experiment catalogue lives in typed
:class:`~repro.experiments.api.ExperimentSpec` entries
(:data:`repro.experiments.specs.SPECS`) executed by the
backend-agnostic sweep scheduler (:mod:`repro.experiments.parallel`).
This module resolves user-facing names onto those keys and runs them:

* :func:`resolve_experiments` — an exact key, or a whole-figure prefix
  (``"fig8"`` → ``fig8a``, ``fig8b``);
* :func:`run_results` — typed :class:`RunResult` per key (what the CLI
  uses);
* :func:`run_experiment` / :func:`run_all` — the plotted
  :class:`FigureSeries` only.

Execution options are one :class:`~repro.experiments.config.RunConfig`
passed as ``config=`` (``None`` = ``RunConfig()``).
"""

from __future__ import annotations

import difflib
from typing import Optional

import repro.obs as obs_mod
from repro.experiments.api import RunResult
from repro.experiments.config import RunConfig
from repro.experiments.parallel import run_spec
from repro.experiments.specs import SPECS, get_spec
from repro.metrics.series import FigureSeries


def resolve_experiments(name: str) -> list[str]:
    """Expand ``name`` into experiment keys.

    An exact key resolves to itself; a whole-figure prefix (``"fig8"``)
    resolves to its lettered panels (``fig8a``, ``fig8b``). Anything
    else — including ambiguous numeric prefixes like ``"fig1"``, which
    used to silently expand to fig10+fig11 — raises with suggestions.
    """
    if name in SPECS:
        return [name]
    panels = sorted(
        k for k in SPECS
        if len(k) == len(name) + 1 and k.startswith(name)
        and k[-1].isalpha()
    )
    if panels:
        return panels
    candidates = sorted(SPECS)
    suggestions = difflib.get_close_matches(name, candidates, n=3,
                                            cutoff=0.4)
    suggestions.extend(k for k in candidates
                       if k.startswith(name) and k not in suggestions)
    hint = (f"; did you mean {', '.join(sorted(set(suggestions)))}?"
            if suggestions else "")
    raise ValueError(
        f"unknown experiment {name!r}{hint} (choose an exact key from "
        f"{candidates} or a whole-figure prefix like 'fig5')")


def run_results(
    name: str, scale: float = 0.1, seed: int = 42,
    obs: Optional["obs_mod.Observability"] = None,
    *,
    config: Optional[RunConfig] = None,
) -> dict[str, RunResult]:
    """Run ``name`` (exact key or whole-figure prefix) and return the
    full typed :class:`RunResult` per experiment key.

    This is the surface the CLI uses: unlike :func:`run_experiment` it
    preserves task accounting, digests and — in keep-going mode — the
    structured :class:`~repro.experiments.resilience.TaskFailure` list
    for partial results. All experiment keys share ``config``'s cache
    and backend (a remote fabric's workers serve every key).
    """
    keys = resolve_experiments(name)
    results: dict[str, RunResult] = {}
    for key in keys:
        results[key] = run_spec(get_spec(key), scale, seed,
                                config=config, obs=obs)
    if obs is not None:
        obs.finish()
    return results


def run_experiment(
    name: str, scale: float = 0.1, seed: int = 42,
    obs: Optional["obs_mod.Observability"] = None,
    *,
    config: Optional[RunConfig] = None,
) -> list[FigureSeries]:
    """Regenerate one figure's data; ``name`` is a key of ``SPECS``
    or a whole-figure prefix (``"fig8"`` runs fig8a + fig8b).

    With ``obs`` given, it is installed as the run's observability
    context: every task's events are folded into it in deterministic
    task order, its metrics registry collects the merged per-task
    snapshots, and any attached invariant checkers validate the event
    stream. ``config`` picks the execution backend, parallelism, cache
    and resilience policy; the result (series, digests, metrics) is
    byte-identical whichever backend runs it.
    """
    results = run_results(name, scale, seed, obs, config=config)
    series: list[FigureSeries] = []
    for result in results.values():
        series.extend(result.series)
    return series


def run_all(
    scale: float = 0.1, seed: int = 42,
    *,
    config: Optional[RunConfig] = None,
) -> dict[str, list[FigureSeries]]:
    """Regenerate every figure's data (optionally parallel and cached)."""
    return {
        name: run_experiment(name, scale, seed, config=config)
        for name in SPECS
    }
