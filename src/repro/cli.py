"""Command-line interface: ``cloudfog <experiment> [--scale S] [--seed N]``.

Examples
--------
::

    cloudfog fig5a --scale 0.2        # coverage vs datacenters, PeerSim
    cloudfog fig10 --scale 0.3        # rate-adaptation satisfaction sweep
    cloudfog all --scale 0.05         # quick pass over every figure
    cloudfog all --scale 0.05 --jobs 4 --cache-dir ~/.cache/cloudfog
                                      # parallel sweep tasks + result
                                      # cache: warm re-runs are ~free and
                                      # byte-identical to --jobs 1
    cloudfog fig8a --json out.json    # stable JSON schema for plotting
    cloudfog ladder                   # print the Figure 2 quality ladder
    cloudfog trace --figure fig8 --out trace.jsonl
                                      # run with telemetry + invariant
                                      # checks, dump the JSONL trace and
                                      # print the run digest
    cloudfog chaos --preset crash-recover --scale 0.05
                                      # seed-deterministic fault
                                      # injection: crash the busiest
                                      # supernode, report failover and
                                      # QoE under live invariant checks
    cloudfog orchestrate --skew skewed --scale 0.05
                                      # assignment strategies head to
                                      # head: greedy vs DRAGON-style
                                      # distributed negotiation, with
                                      # Gini/Herfindahl/variation
                                      # load-distribution indices
    cloudfog all --cache-dir ~/.cache/cloudfog
                                      # run again to finish an
                                      # interrupted sweep: every task
                                      # already cached is skipped
    cloudfog fig9a --jobs 4 --task-timeout 120 --keep-going
                                      # watchdog + salvage: hung tasks
                                      # are cancelled and retried;
                                      # persistent failures are
                                      # reported, completed points kept
    cloudfog worker --listen 0.0.0.0:7800
                                      # start a worker daemon; then on
                                      # the scheduler host:
    cloudfog all --backend remote --workers host1:7800,host2:7800
                                      # distribute sweep tasks over the
                                      # worker fabric — results are
                                      # byte-identical to --backend
                                      # inline
    cloudfog fig5a --backend remote --launch 4
                                      # or spawn 4 loopback workers
    cloudfog all --backend remote --launch 2 --slots 4
                                      # throughput fabric: 2 daemons x
                                      # 4 task slots each, pipelined
                                      # dispatch
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.experiments.config import BACKEND_NAMES, RunConfig
from repro.experiments.runner import run_experiment, run_results
from repro.experiments.specs import SPECS
from repro.metrics.series import print_series
from repro.streaming.video import QUALITY_LADDER


def _jobs_arg(value: str) -> int:
    """argparse type for --jobs: a non-negative int (0 = all cores)."""
    try:
        jobs = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer, got {value!r}")
    if jobs < 0:
        raise argparse.ArgumentTypeError(
            f"must be >= 0 (0 = all cores), got {jobs}")
    return jobs


def add_execution_args(parser: argparse.ArgumentParser) -> None:
    """Install the shared execution flags (backend, parallelism, cache,
    resilience) on ``parser``.

    The two sweep-running commands — the figure runner and ``trace`` —
    get the identical option surface;
    :meth:`repro.experiments.config.RunConfig.from_args` turns the
    parsed namespace into a :class:`RunConfig`. The single-run
    subcommands (``scale``, ``dynamics``, ``chaos``, ``orchestrate``)
    run no sweep and take none of these flags.
    """
    group = parser.add_argument_group(
        "execution",
        "where and how sweep tasks run; results are byte-identical "
        "whichever backend/parallelism executes them")
    group.add_argument(
        "--backend", choices=BACKEND_NAMES, default="auto",
        help="execution backend: inline (serial), pool (local worker "
             "processes), remote (worker-daemon fabric); auto picks "
             "inline for --jobs 1 and pool otherwise (default auto)")
    group.add_argument(
        "--jobs", type=_jobs_arg, default=1, metavar="N",
        help="run sweep tasks on N worker processes (0 = all cores); "
             "results are byte-identical to --jobs 1 (default 1)")
    group.add_argument(
        "--workers", default="", metavar="HOST:PORT,...",
        help="comma-separated addresses of listening worker daemons "
             "(cloudfog worker --listen ...) to dial; implies "
             "--backend remote")
    group.add_argument(
        "--listen", default=None, metavar="HOST:PORT",
        help="bind the remote scheduler here and accept dial-in "
             "workers (cloudfog worker --connect ...); implies "
             "--backend remote")
    group.add_argument(
        "--launch", type=int, default=0, metavar="N",
        help="spawn N loopback worker daemons for the remote backend; "
             "implies --backend remote")
    group.add_argument(
        "--launcher", default=None, metavar="CMD",
        help="worker launch command template for --launch; {addr} (or "
             "{host}/{port}) is substituted — SSH works: "
             "'ssh gpu1 cloudfog worker --connect {addr}'")
    group.add_argument(
        "--slots", type=int, default=1, metavar="N",
        help="task slots per launched worker daemon: each daemon runs "
             "N slot processes and streams results as slots free up "
             "(default 1; daemons started by hand set their own "
             "cloudfog worker --slots)")
    group.add_argument(
        "--prefetch", type=int, default=2, metavar="N",
        help="pipelining depth: tasks queued on each worker beyond "
             "its executing slots, hiding the dispatch round-trip "
             "(default 2; 0 = stop-and-wait per slot — prefer that "
             "under tight --task-timeout budgets)")
    group.add_argument(
        "--cache-dir", default=None, metavar="PATH",
        help="content-addressed result cache directory; re-runs skip "
             "sweep points already computed for the same parameters, "
             "so re-running an interrupted sweep finishes it")
    group.add_argument(
        "--retries", type=int, default=2, metavar="N",
        help="retry a crashed/raising/hung sweep task up to N times "
             "with exponential backoff (default 2; 0 = fail fast)")
    group.add_argument(
        "--task-timeout", type=float, default=None, metavar="S",
        help="per-task wall-clock budget: the pool and remote backends "
             "terminate hung workers and reschedule their tasks "
             "(default: no timeout)")
    group.add_argument(
        "--keep-going", action="store_true",
        help="on task failure, salvage completed sweep points and "
             "report the failed ones instead of aborting the run")


def _config_from_args(parser: argparse.ArgumentParser,
                      args: argparse.Namespace) -> RunConfig:
    """Build the run's :class:`RunConfig`, mapping validation errors to
    ``parser.error``."""
    try:
        return RunConfig.from_args(args)
    except ValueError as exc:
        parser.error(str(exc))


def _print_ladder() -> None:
    print("Figure 2 — video parameters for different quality levels")
    print(f"{'level':>5} {'resolution':>12} {'bitrate':>10} "
          f"{'latency req':>12} {'tolerance':>10}")
    for ql in reversed(QUALITY_LADDER):
        res = f"{ql.resolution[0]}x{ql.resolution[1]}"
        print(f"{ql.level:>5} {res:>12} {ql.bitrate_bps/1000:>7.0f}kbps "
              f"{ql.latency_req_s*1000:>9.0f} ms {ql.latency_tolerance:>10.1f}")


def _text_stream(json_path: str | None):
    """Where a command prints its text: stderr when ``--json -`` puts
    the JSON document on stdout, so stdout parses as that one
    document."""
    return sys.stderr if json_path == "-" else sys.stdout


def _write_json(path: str, payload, what: str, *,
                sort_keys: bool = True) -> None:
    """Write ``payload`` as indented JSON to ``path`` (``-`` = stdout)."""
    if path == "-":
        json.dump(payload, sys.stdout, indent=2, sort_keys=sort_keys)
        print()
        return
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(payload, fp, indent=2, sort_keys=sort_keys)
    print(f"wrote {what} to {path}")


def _add_json_arg(parser: argparse.ArgumentParser, what: str) -> None:
    """The one ``--json [PATH]`` option: a bare ``--json`` is ``-``."""
    parser.add_argument(
        "--json", nargs="?", const="-", default=None, metavar="PATH",
        help=f"emit {what} as JSON to PATH, or to stdout when PATH is "
             "omitted or '-'")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cloudfog",
        description="CloudFog (ICPP 2015) reproduction — experiment runner",
    )
    # A spec sharing a subcommand's name is only reachable as part of
    # ``all`` or through ``trace --figure``: ``main`` routes the word to
    # the subcommand first.
    shadowed = sorted(set(SPECS) & set(SUBCOMMANDS))
    parser.add_argument(
        "experiment",
        choices=sorted(set(SPECS) - set(SUBCOMMANDS)) + ["all", "ladder"],
        help="which paper figure to regenerate (the sweeps named like "
             f"a subcommand, {', '.join(shadowed)}, run under 'cloudfog "
             "all' or 'cloudfog trace --figure NAME')",
    )
    parser.add_argument(
        "--scale", type=float, default=0.1,
        help="population scale factor in (0, 1]; 1.0 = paper scale "
             "(default 0.1)",
    )
    parser.add_argument(
        "--seed", type=int, default=42, help="master RNG seed")
    add_execution_args(parser)
    _add_json_arg(parser, "the series (stable to_dict schema)")
    parser.add_argument(
        "--plot", action="store_true",
        help="render series as ASCII charts instead of tables")
    return parser


def build_trace_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cloudfog trace",
        description="Run one experiment with full telemetry: structured "
                    "JSONL trace, metrics registry export, live invariant "
                    "checking, and a reproducibility digest.",
    )
    parser.add_argument(
        "--figure", default="fig8",
        help="experiment key or figure prefix (e.g. fig8 = fig8a+fig8b; "
             "default fig8)")
    parser.add_argument(
        "--scale", type=float, default=0.05,
        help="population scale factor in (0, 1] (default 0.05)")
    parser.add_argument(
        "--seed", type=int, default=42, help="master RNG seed")
    parser.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the trace as JSONL to PATH")
    parser.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="write the aggregated metrics snapshot as JSON to PATH")
    parser.add_argument(
        "--no-check", action="store_true",
        help="skip the live invariant checkers")
    add_execution_args(parser)
    return parser


def trace_main(argv: list[str] | None = None) -> int:
    """``cloudfog trace``: run an experiment under full observability."""
    from repro.obs import Observability, TraceRecorder, default_checkers
    from repro.experiments.runner import resolve_experiments

    parser = build_trace_parser()
    args = parser.parse_args(argv)
    try:
        keys = resolve_experiments(args.figure)  # fail fast on bad names
    except ValueError as exc:
        parser.error(str(exc))
    cfg = _config_from_args(parser, args)
    obs = Observability(
        trace=TraceRecorder(),
        checkers=[] if args.no_check else default_checkers(),
    )
    t0 = time.perf_counter()
    try:
        run_experiment(args.figure, scale=args.scale, seed=args.seed,
                       obs=obs, config=cfg)
    finally:
        cfg.close()
    elapsed = time.perf_counter() - t0

    if args.out:
        n = obs.trace.save(args.out)
        print(f"wrote {n} events to {args.out}")
    snapshot = obs.metrics.snapshot()
    if args.metrics_out:
        with open(args.metrics_out, "w", encoding="utf-8") as fp:
            json.dump(snapshot, fp, indent=2, sort_keys=True)
        print(f"wrote {len(snapshot)} metrics to {args.metrics_out}")

    print(f"experiments: {' '.join(keys)}")
    print(f"events:      {len(obs.trace)}")
    print(f"digest:      {obs.digest()}")
    if args.no_check:
        checks = "skipped"
    elif not len(obs.trace):
        # Checkers judge events; a run that emits none proves nothing.
        checks = "not checked (no events recorded)"
    else:
        checks = f"passed ({len(obs.checkers)} checkers)"
    print(f"invariants:  {checks}")
    for name in sorted(snapshot):
        entry = snapshot[name]
        if entry["kind"] == "histogram":
            print(f"  {name}: n={entry['count']} mean={entry['mean']:.4g}")
        else:
            print(f"  {name}: {entry['value']}")
    print(f"[{elapsed:.1f}s, scale={args.scale}, seed={args.seed}]")
    return 0


def build_chaos_parser() -> argparse.ArgumentParser:
    from repro.faults.plan import PRESETS

    parser = argparse.ArgumentParser(
        prog="cloudfog chaos",
        description="Run one session under a deterministic fault plan: "
                    "crash/recover supernodes, degrade links, partition "
                    "regions — with live invariant checking and a "
                    "failover/recovery report.",
    )
    parser.add_argument(
        "--preset", default="crash-recover", choices=PRESETS,
        help="fault plan preset (default crash-recover)")
    parser.add_argument(
        "--intensity", type=int, default=1,
        help="preset intensity: 0 = empty plan (baseline), higher = "
             "more/larger faults (default 1)")
    parser.add_argument(
        "--plan", default=None, metavar="PATH",
        help="load a FaultPlan from a JSON file instead of a preset")
    parser.add_argument(
        "--scale", type=float, default=0.05,
        help="population scale factor in (0, 1] (default 0.05)")
    parser.add_argument(
        "--seed", type=int, default=42, help="master RNG seed")
    parser.add_argument(
        "--duration", type=float, default=12.0, metavar="S",
        help="session horizon in seconds (default 12)")
    parser.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the trace as JSONL to PATH")
    _add_json_arg(parser, "the chaos report")
    parser.add_argument(
        "--no-check", action="store_true",
        help="skip the live invariant checkers")
    return parser


def chaos_main(argv: list[str] | None = None) -> int:
    """``cloudfog chaos``: fault injection + failover under telemetry."""
    import repro.obs as obs_mod
    from repro.obs import Observability, TraceRecorder, default_checkers
    from repro.experiments.chaos import ChaosConfig, run_chaos
    from repro.faults.plan import FaultPlan

    parser = build_chaos_parser()
    args = parser.parse_args(argv)
    plan = None
    if args.plan:
        with open(args.plan, encoding="utf-8") as fp:
            plan = FaultPlan.from_dict(json.load(fp))
    obs = Observability(
        trace=TraceRecorder(),
        checkers=[] if args.no_check else default_checkers(),
    )
    t0 = time.perf_counter()
    with obs_mod.use(obs):
        report = run_chaos(
            args.scale, args.seed, preset=args.preset,
            intensity=args.intensity, plan=plan,
            config=ChaosConfig(duration_s=args.duration))
    elapsed = time.perf_counter() - t0

    out = _text_stream(args.json)
    if args.out:
        n = obs.trace.save(args.out)
        print(f"wrote {n} events to {args.out}", file=out)
    if args.json is not None:
        _write_json(args.json, report, "chaos report")

    fs = report["fault_stats"] or {}
    plan_desc = (args.plan if args.plan
                 else f"{args.preset} @ intensity {args.intensity}")
    print(f"plan:        {plan_desc} ({report['n_faults']} faults)",
          file=out)
    print(f"players:     {report['n_players']} "
          f"({report['served_supernode']:.0%} on supernodes)", file=out)
    print(f"continuity:  {report['continuity']:.4f}", file=out)
    print(f"satisfied:   {report['satisfied']:.4f}", file=out)
    print(f"injected:    {fs.get('injected', 0)} "
          f"(cleared {fs.get('cleared', 0)}, "
          f"skipped {fs.get('skipped', 0)})", file=out)
    print(f"recoveries:  {fs.get('recoveries', 0)} "
          f"(reconnects {fs.get('reconnects', 0)}, "
          f"migrations {fs.get('migrations', 0)}, "
          f"cloud fallbacks {fs.get('cloud_fallbacks', 0)})", file=out)
    mean_rt = fs.get("mean_recovery_time_s")
    if mean_rt is not None:
        print(f"recovery:    mean {mean_rt * 1000:.0f} ms, "
              f"max {fs.get('max_recovery_time_s', 0) * 1000:.0f} ms",
              file=out)
    print(f"lost:        {fs.get('segments_lost_to_faults', 0)} segments "
          f"to faults, {fs.get('stale_suppressed', 0)} stale suppressed",
          file=out)
    print(f"digest:      {obs.digest()}", file=out)
    checks = "skipped" if args.no_check else (
        f"passed ({len(obs.checkers)} checkers)")
    print(f"invariants:  {checks}", file=out)
    print(f"[{elapsed:.1f}s, scale={args.scale}, seed={args.seed}]",
          file=out)
    return 0


def build_orchestrate_parser() -> argparse.ArgumentParser:
    from repro.core.assignment import STRATEGY_NAMES
    from repro.experiments.orchestration import CHURN_MODES, SKEW_EXPONENTS

    parser = argparse.ArgumentParser(
        prog="cloudfog orchestrate",
        description="Run the assignment strategies head to head on one "
                    "scenario and report per-strategy QoE plus the "
                    "load-distribution indices (Gini, Herfindahl, "
                    "coefficient of variation) that show when the "
                    "DRAGON-style distributed negotiation beats the "
                    "paper's greedy placement.",
    )
    parser.add_argument(
        "--strategies", default=",".join(STRATEGY_NAMES),
        metavar="A,B,...",
        help="comma-separated strategies to compare "
             f"(default {','.join(STRATEGY_NAMES)})")
    parser.add_argument(
        "--skew", default="skewed", choices=sorted(SKEW_EXPONENTS),
        help="population load skew scenario (default skewed)")
    parser.add_argument(
        "--churn", default="none", choices=CHURN_MODES,
        help="supernode churn: none, or the crash-recover fault preset "
             "(default none)")
    parser.add_argument(
        "--scale", type=float, default=0.05,
        help="population scale factor in (0, 1] (default 0.05)")
    parser.add_argument(
        "--seed", type=int, default=42, help="master RNG seed")
    parser.add_argument(
        "--duration", type=float, default=12.0, metavar="S",
        help="session horizon in seconds (default 12)")
    _add_json_arg(parser, "the per-strategy report")
    parser.add_argument(
        "--no-check", action="store_true",
        help="skip the live invariant checkers")
    return parser


def orchestrate_main(argv: list[str] | None = None) -> int:
    """``cloudfog orchestrate``: strategy comparison under telemetry."""
    import repro.obs as obs_mod
    from repro.obs import Observability, TraceRecorder, default_checkers
    from repro.core.assignment import STRATEGY_NAMES
    from repro.experiments.orchestration import (
        OrchestrationConfig,
        run_orchestration,
    )

    parser = build_orchestrate_parser()
    args = parser.parse_args(argv)
    strategies = [s.strip() for s in args.strategies.split(",") if s.strip()]
    for s in strategies:
        if s not in STRATEGY_NAMES:
            parser.error(f"unknown strategy {s!r}; "
                         f"choose from {STRATEGY_NAMES}")
    cfg = OrchestrationConfig(duration_s=args.duration)

    t0 = time.perf_counter()
    reports: dict[str, dict] = {}
    digests: dict[str, str] = {}
    for strategy in strategies:
        obs = Observability(
            trace=TraceRecorder(),
            checkers=[] if args.no_check else default_checkers(),
        )
        with obs_mod.use(obs):
            reports[strategy] = run_orchestration(
                args.scale, args.seed, strategy=strategy,
                skew=args.skew, churn=args.churn, config=cfg)
        digests[strategy] = obs.digest()
    elapsed = time.perf_counter() - t0

    out = _text_stream(args.json)
    if args.json is not None:
        payload = {
            "scenario": {"skew": args.skew, "churn": args.churn,
                         "scale": args.scale, "seed": args.seed,
                         "duration_s": args.duration},
            "strategies": reports,
            "digests": digests,
        }
        _write_json(args.json, payload, "orchestration report")

    first = reports[strategies[0]]
    print(f"scenario:    skew={args.skew} churn={args.churn} "
          f"({first['n_players']} players)", file=out)
    header = (f"{'strategy':<13} {'contin':>7} {'satisf':>7} {'lat ms':>7} "
              f"{'sn %':>5} {'gini':>6} {'hhi':>6} {'cv':>6} "
              f"{'rounds':>6} {'max':>4}")
    print(header, file=out)
    for strategy in strategies:
        rep = reports[strategy]
        li = rep["load_indices"] or {}
        neg = li.get("negotiation") or {}
        rounds = (f"{neg['mean_rounds']:.2f}" if neg else "-")
        max_r = (str(neg["max_rounds_seen"]) if neg else "-")
        print(f"{strategy:<13} {rep['continuity']:>7.4f} "
              f"{rep['satisfied']:>7.4f} "
              f"{rep['mean_latency_s'] * 1000:>7.1f} "
              f"{rep['served_supernode'] * 100:>5.1f} "
              f"{li.get('gini_users', 0.0):>6.3f} "
              f"{li.get('herfindahl_users', 0.0):>6.3f} "
              f"{li.get('cv_users', 0.0):>6.3f} "
              f"{rounds:>6} {max_r:>4}", file=out)
    for strategy in strategies:
        print(f"digest[{strategy}]: {digests[strategy]}", file=out)
    checks = "skipped" if args.no_check else "passed"
    print(f"invariants:  {checks}", file=out)
    print(f"[{elapsed:.1f}s, scale={args.scale}, seed={args.seed}]",
          file=out)
    return 0


def build_scale_parser() -> argparse.ArgumentParser:
    from repro.core.cohort import FAULT_PRESETS

    parser = argparse.ArgumentParser(
        prog="cloudfog scale",
        description="Run the cohort-vectorised million-player kernel: "
                    "one deterministic multi-region run, reporting "
                    "P50/P95/P99 response latency, satisfaction, and "
                    "kernel statistics.",
    )
    parser.add_argument(
        "--players", type=int, default=100_000,
        help="population size (default 100000; 1000000 works)")
    parser.add_argument(
        "--regions", type=int, default=8,
        help="number of supernode regions (default 8)")
    parser.add_argument(
        "--ticks", type=int, default=120,
        help="simulated playback ticks (default 120)")
    parser.add_argument(
        "--seed", type=int, default=0, help="master RNG seed")
    parser.add_argument(
        "--mode", choices=("cohort", "per-player"), default="cohort",
        help="execution mode; traces are byte-identical (default cohort)")
    parser.add_argument(
        "--faults", choices=FAULT_PRESETS, default="outage",
        help="fault preset (default outage: one region fails over "
             "for the middle third of the run)")
    _add_json_arg(parser, "the report")
    return parser


def scale_main(argv: list[str] | None = None) -> int:
    """``cloudfog scale``: one cohort-kernel run with a latency report."""
    from repro.core.cohort import ScaleSpec, run_scale

    parser = build_scale_parser()
    args = parser.parse_args(argv)
    try:
        spec = ScaleSpec(
            n_players=args.players, n_regions=args.regions,
            n_ticks=args.ticks, seed=args.seed, mode=args.mode,
            faults=args.faults)
    except ValueError as exc:
        parser.error(str(exc))
    t0 = time.perf_counter()
    report = run_scale(spec)
    elapsed = time.perf_counter() - t0
    out = _text_stream(args.json)
    if args.json is not None:
        _write_json(args.json, report.to_dict(), "scale report")
    print(report.format_text(), file=out)
    print(_throughput_line(report, elapsed), file=out)
    return 0


def _throughput_line(report, elapsed: float) -> str:
    """Wall time and player-ticks/s of a scale run (cohort mode
    schedules about one event per tick, so events/s would not measure
    its work)."""
    return (f"[{elapsed:.1f}s, {report.player_ticks:,} player-ticks, "
            f"{report.player_ticks / max(elapsed, 1e-9):,.0f} "
            f"player-ticks/s]")


def build_dynamics_parser() -> argparse.ArgumentParser:
    from repro.core.cohort import FAULT_PRESETS
    from repro.dynamics import DYNAMICS_PRESETS, DYNAMICS_STRATEGIES

    parser = argparse.ArgumentParser(
        prog="cloudfog dynamics",
        description="Run the cohort kernel under a deterministic "
                    "population-dynamics plan: join/leave churn, "
                    "regional flash crowds, diurnal load and mobility, "
                    "with overload-graceful supernodes that refuse, "
                    "shed and evict sessions before collapsing.",
    )
    parser.add_argument(
        "--preset", default="flash-crowd", choices=DYNAMICS_PRESETS,
        help="dynamics plan preset (default flash-crowd)")
    parser.add_argument(
        "--intensity", type=int, default=1,
        help="preset intensity: 0 = empty plan (baseline), higher = "
             "more churn / larger surges (default 1)")
    parser.add_argument(
        "--plan", default=None, metavar="PATH",
        help="load a DynamicsPlan from a JSON file instead of a preset")
    parser.add_argument(
        "--players", type=int, default=20_000,
        help="population size (default 20000; 100000+ works)")
    parser.add_argument(
        "--regions", type=int, default=8,
        help="number of supernode regions (default 8)")
    parser.add_argument(
        "--ticks", type=int, default=120,
        help="simulated playback ticks (default 120)")
    parser.add_argument(
        "--seed", type=int, default=0, help="master RNG seed")
    parser.add_argument(
        "--mode", choices=("cohort", "per-player"), default="cohort",
        help="execution mode; traces are byte-identical (default cohort)")
    parser.add_argument(
        "--faults", choices=FAULT_PRESETS, default="none",
        help="fault preset layered under the dynamics (default none)")
    parser.add_argument(
        "--initial-fraction", type=float, default=0.5, metavar="F",
        help="fraction of the population online at tick 0; the rest "
             "join through the plan (default 0.5; 1.0 with an empty "
             "plan reproduces the static baseline byte-for-byte)")
    parser.add_argument(
        "--strategy", default="graceful", choices=DYNAMICS_STRATEGIES,
        help="overload strategy: graceful = admission control + "
             "quality-ladder shedding, none = serve everyone at full "
             "tier and let queues grow (default graceful)")
    _add_json_arg(parser, "the report")
    return parser


def dynamics_main(argv: list[str] | None = None) -> int:
    """``cloudfog dynamics``: population churn + overload degradation."""
    import repro.obs as obs_mod
    from repro.obs import Observability
    from repro.core.cohort import ScaleSpec
    from repro.dynamics import (
        DynamicsPlan,
        DynamicsSpec,
        preset_dynamics,
        run_dynamics,
    )

    parser = build_dynamics_parser()
    args = parser.parse_args(argv)
    try:
        base = ScaleSpec(
            n_players=args.players, n_regions=args.regions,
            n_ticks=args.ticks, seed=args.seed, mode=args.mode,
            faults=args.faults)
        if args.plan:
            with open(args.plan, encoding="utf-8") as fp:
                plan = DynamicsPlan.from_dict(json.load(fp))
        else:
            plan = preset_dynamics(
                args.preset, horizon_s=args.ticks * base.params.tick_s,
                n_players=args.players, n_regions=args.regions,
                intensity=args.intensity, seed=args.seed)
        initial = (1.0 if plan.is_empty else args.initial_fraction)
        dspec = DynamicsSpec(base=base, plan=plan,
                             initial_fraction=initial,
                             strategy=args.strategy)
    except (ValueError, OSError) as exc:
        parser.error(str(exc))
    obs = Observability()
    t0 = time.perf_counter()
    with obs_mod.use(obs):
        report = run_dynamics(dspec, obs=obs)
    elapsed = time.perf_counter() - t0
    out = _text_stream(args.json)
    if args.json is not None:
        _write_json(args.json, report.to_dict(), "dynamics report")
    plan_desc = (args.plan if args.plan
                 else f"{args.preset} @ intensity {args.intensity}")
    print(f"plan:       {plan_desc} ({len(plan)} sources)", file=out)
    print(report.format_text(), file=out)
    print(_throughput_line(report.scale, elapsed), file=out)
    return 1 if report.invariants else 0


def build_worker_parser() -> argparse.ArgumentParser:
    from repro.experiments.backends.worker import (
        DEFAULT_HEARTBEAT_S,
        DEFAULT_RECONNECT_MAX_S,
        DEFAULT_SCHEDULER_TIMEOUT_S,
    )

    parser = argparse.ArgumentParser(
        prog="cloudfog worker",
        description="Run a sweep worker daemon for the remote execution "
                    "backend. Workers execute pickled sweep tasks with "
                    "the same function the inline backend uses, so a "
                    "remote run's digests are byte-identical to a local "
                    "one. The protocol trusts its peers (pickle): bind "
                    "to loopback or a private network only.",
    )
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument(
        "--connect", default=None, metavar="HOST:PORT",
        help="dial a scheduler (cloudfog ... --backend remote --listen "
             "HOST:PORT) and serve it until it disconnects")
    mode.add_argument(
        "--listen", default=None, metavar="HOST:PORT",
        help="bind here (port 0 = ephemeral; the bound address is "
             "printed) and serve schedulers that dial in via --workers")
    parser.add_argument(
        "--id", default=None, metavar="NAME",
        help="worker id reported to schedulers (default host-pid)")
    parser.add_argument(
        "--once", action="store_true",
        help="with --listen: exit after the first scheduler disconnects")
    parser.add_argument(
        "--reconnect", action="store_true",
        help="with --connect: survive scheduler EOF/silence by "
             "redialling under capped exponential backoff with jitter; "
             "exit only on a clean bye")
    parser.add_argument(
        "--reconnect-max", type=float, default=DEFAULT_RECONNECT_MAX_S,
        metavar="S",
        help="cap on the reconnect backoff delay (default "
             f"{DEFAULT_RECONNECT_MAX_S:g})")
    parser.add_argument(
        "--heartbeat-interval", type=float, default=DEFAULT_HEARTBEAT_S,
        metavar="S",
        help="seconds between liveness heartbeats (default "
             f"{DEFAULT_HEARTBEAT_S:g})")
    parser.add_argument(
        "--slots", type=int, default=1, metavar="N",
        help="execute up to N tasks concurrently in a pool of N slot "
             "processes, streaming results as slots free up "
             "(default 1)")
    parser.add_argument(
        "--cache-dir", default=None, metavar="PATH",
        help="local result cache keyed by task digest, in the "
             "scheduler's entry format: tasks this worker computed "
             "before replay from disk")
    parser.add_argument(
        "--scheduler-timeout", type=float,
        default=DEFAULT_SCHEDULER_TIMEOUT_S, metavar="S",
        help="declare a vanished scheduler dead after S seconds of "
             "wire silence and (with --listen) return to accepting "
             "(default "
             f"{DEFAULT_SCHEDULER_TIMEOUT_S:g}; 0 disables)")
    return parser


def worker_main(argv: list[str] | None = None) -> int:
    """``cloudfog worker``: serve sweep tasks for a remote scheduler."""
    from repro.experiments.backends.worker import run_worker

    parser = build_worker_parser()
    args = parser.parse_args(argv)
    try:
        return run_worker(connect=args.connect, listen=args.listen,
                          worker_id=args.id, once=args.once,
                          heartbeat_s=args.heartbeat_interval,
                          slots=args.slots, cache_dir=args.cache_dir,
                          scheduler_timeout_s=args.scheduler_timeout,
                          reconnect=args.reconnect,
                          reconnect_max_s=args.reconnect_max)
    except ValueError as exc:
        parser.error(str(exc))


#: Subcommands with their own parsers: ``main`` hands them ``argv[1:]``.
SUBCOMMANDS = {
    "trace": trace_main,
    "chaos": chaos_main,
    "orchestrate": orchestrate_main,
    "scale": scale_main,
    "dynamics": dynamics_main,
    "worker": worker_main,
}


def _recovery_hint(cache, then: str = "") -> str:
    """What a stopped sweep kept of its completed tasks, and what to do
    next: with a cache, re-running the command finishes the sweep."""
    if cache is None:
        return ("completed tasks were not kept; re-run with --cache-dir "
                "to keep them")
    return (f"completed tasks are cached in {cache.root}; re-run the "
            f"same command{then}")


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] in SUBCOMMANDS:
        return SUBCOMMANDS[argv[0]](argv[1:])
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.experiment == "ladder":
        _print_ladder()
        return 0

    from repro.experiments.backends.remote import RemoteFabricError
    from repro.experiments.resilience import SweepFailure

    cfg = _config_from_args(parser, args)
    cache = cfg.cache

    t0 = time.perf_counter()
    names = (list(SPECS) if args.experiment == "all"
             else [args.experiment])
    run_results_by_name = {}
    try:
        for name in names:
            run_results_by_name.update(run_results(
                name, scale=args.scale, seed=args.seed, config=cfg))
    except SweepFailure as exc:
        print("sweep failed:", file=sys.stderr)
        print(exc.report(), file=sys.stderr)
        print(f"({_recovery_hint(cache)}, or add --keep-going to salvage "
              "partial results)", file=sys.stderr)
        return 1
    except RemoteFabricError as exc:
        print(f"remote fabric failed: {exc}", file=sys.stderr)
        hint = _recovery_hint(cache, " once workers are back")
        print(f"({hint})", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        hint = _recovery_hint(cache, " to finish the sweep")
        print(f"\ninterrupted — {hint}", file=sys.stderr)
        return 130
    finally:
        cfg.close()
    results = {name: r.series for name, r in run_results_by_name.items()}

    out = _text_stream(args.json)
    if args.json is not None:
        payload = {
            name: [s.to_dict() for s in series]
            for name, series in results.items()
        }
        _write_json(args.json, payload,
                    f"{sum(len(v) for v in payload.values())} series",
                    sort_keys=False)
    elif args.plot:
        from repro.metrics.ascii_plot import print_chart
        for name, series in results.items():
            print_chart(series, title=name)
            print()
    else:
        for name, series in results.items():
            print_series(series, title=name)
    if cache is not None:
        errors = f", {cache.errors} errors" if cache.errors else ""
        print(f"[cache] {cache.hits} hits, {cache.misses} misses{errors} "
              f"({len(cache)} entries in {cache.root})", file=out)
    retried = sum(r.tasks_retried for r in run_results_by_name.values())
    if retried:
        print(f"[resilience] {retried} task(s) retried", file=out)
    failures = [f for r in run_results_by_name.values()
                for f in r.failures]
    print(f"\n[{time.perf_counter() - t0:.1f}s, scale={args.scale}, "
          f"seed={args.seed}, jobs={args.jobs}]", file=out)
    if failures:
        print(f"partial results: {len(failures)} sweep task(s) failed "
              f"after retries:", file=sys.stderr)
        for f in failures:
            print(f"  - {f.describe()}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
