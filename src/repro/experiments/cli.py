"""Command-line entry point: ``mediaworm``.

Examples::

    mediaworm list
    mediaworm run fig3 --profile quick
    mediaworm run table3
    mediaworm all --profile default
    mediaworm faults --profile quick --rates 0,0.01
    mediaworm failover --profile quick --severities 0,2,8
    mediaworm disaster --profile smoke --severities none,switch
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace
from typing import List, Optional

from repro.errors import SimulationError
from repro.experiments import disaster, failover, faultsweep
from repro.experiments.campaign import (
    Campaign,
    campaign_to_text,
    parse_axis,
    run_campaign,
)
from repro.experiments.figures import (
    FIGURES,
    PROFILES,
    get_profile,
    run_mixed_grid,
)
from repro.experiments.parallel import ParallelSweepExecutor
from repro.experiments.report import (
    figure_to_text,
    table2_to_text,
    table3_to_text,
)
from repro.experiments.resilience import RESEED_STEP, SweepCheckpoint
from repro.experiments.tables import TABLES, run_table2, run_table3
from repro.sim.engine import ENGINES

#: the robustness campaigns, one subcommand each
CAMPAIGNS = {
    campaign.name: campaign
    for campaign in (faultsweep.CAMPAIGN, failover.CAMPAIGN, disaster.CAMPAIGN)
}

_DESCRIPTIONS = {
    "fig3": "Virtual Clock vs FIFO (16 VCs, 80:20 mix)",
    "fig4": "CBR vs VBR traffic (no best-effort)",
    "fig5": "Mixed traffic ratios vs load",
    "fig6": "VC count and crossbar capability",
    "fig7": "Effect of message size on jitter",
    "fig8": "MediaWorm vs PCS router",
    "fig9": "2x2 fat-mesh performance",
    "table2": "Best-effort latency per mix and load",
    "table3": "PCS connection drop accounting",
    **{name: campaign.description for name, campaign in CAMPAIGNS.items()},
    "trace": "one traced run: JSONL event stream, invariants, profiling",
    "chaos": "randomized differential fault campaign with scenario shrinking",
    "topo": "inspect a topology and its compiled route program",
    "scale": "datacenter-scale campaign (1024-host fat tree, Clos)",
}


def _run_one(
    name: str,
    profile: str,
    plot: bool = False,
    json_path: str = None,
    check: bool = False,
    executor: ParallelSweepExecutor = None,
) -> str:
    if name == "table2":
        table = run_table2(profile, executor=executor)
        _maybe_save(json_path, table)
        return table2_to_text(table)
    if name == "table3":
        table = run_table3(profile, executor=executor)
        _maybe_save(json_path, table)
        return table3_to_text(table)
    if name == "fig5":
        grid = run_mixed_grid(profile, executor=executor)
        fig = FIGURES["fig5"](profile, grid=grid)
        _maybe_save(json_path, fig)
        text = figure_to_text(fig) + "\n\n" + table2_to_text(
            run_table2(profile, grid=grid)
        )
        return text + ("\n\n" + _plot(fig) if plot else "")
    runner = FIGURES.get(name)
    if runner is None:
        raise SystemExit(f"unknown experiment {name!r}; try 'mediaworm list'")
    show_latency = name in ("fig9",)
    fig = runner(profile, executor=executor)
    _maybe_save(json_path, fig)
    text = figure_to_text(fig, show_be_latency=show_latency)
    if plot:
        text += "\n\n" + _plot(fig)
    if check:
        text += "\n\n" + _check(fig)
    return text


def _maybe_save(json_path, result) -> None:
    if json_path:
        from repro.experiments.export import save_result

        save_result(json_path, result)


def _write_json(path, summary) -> None:
    """Write a campaign summary dict to ``path`` (if given) as JSON."""
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _plot(fig) -> str:
    from repro.analysis.ascii_plot import figure_plot

    return figure_plot(fig, metric="sigma_d")


def _check(fig) -> str:
    from repro.experiments.validation import check_claims, claims_to_text

    return "paper claims:\n" + claims_to_text(check_claims(fig))


def _run_one_resilient(
    name: str,
    profile,
    attempts: int = 3,
    **kwargs,
) -> str:
    """Run one experiment, retrying with a reseeded profile on failure."""
    base = get_profile(profile)
    last_error = None
    for attempt in range(attempts):
        trial = (
            base
            if attempt == 0
            else replace(base, seed=base.seed + attempt * RESEED_STEP)
        )
        try:
            return _run_one(name, trial, **kwargs)
        except SimulationError as exc:
            last_error = exc
            print(
                f"[{name} attempt {attempt + 1} failed "
                f"({type(exc).__name__}); retrying with a fresh seed]",
                file=sys.stderr,
            )
    raise last_error


def _run_campaign(campaign: Campaign, args, profile, executor) -> int:
    """A campaign subcommand (``faults``, ``failover``, ``disaster``)."""
    values = parse_axis(campaign, getattr(args, campaign.axis))
    path = (
        args.checkpoint
        or f"mediaworm-{campaign.name}-{args.profile}.checkpoint.json"
    )
    checkpoint = SweepCheckpoint(
        path,
        meta={
            "command": campaign.name,
            "profile": args.profile,
            campaign.axis: [campaign.meta(value) for value in values],
        },
    )
    if args.fresh:
        checkpoint.clear()
    started = time.perf_counter()
    fig = run_campaign(
        campaign,
        profile,
        values,
        checkpoint=checkpoint,
        log=print,
        executor=executor,
    )
    _maybe_save(args.json, fig)
    print(campaign_to_text(campaign, fig))
    print(
        f"[{campaign.name} completed in "
        f"{time.perf_counter() - started:.1f}s]"
    )
    checkpoint.clear()
    return 0


def _run_trace(args, profile) -> int:
    """The ``mediaworm trace`` subcommand: one fully observed run.

    Runs the paper's default single-switch workload once with the
    observability layer installed: a JSONL event stream (optionally
    filtered by kind), an invariant checker auditing flit conservation
    and credit consistency, and — with ``--profile`` — per-phase
    simulation-loop wall-time profiling.
    """
    from repro.errors import ConfigurationError
    from repro.experiments.config import SingleSwitchExperiment
    from repro.experiments.figures import _base_kwargs
    from repro.experiments.runner import simulate_single_switch
    from repro.obs import ALL_EVENTS, TraceSpec

    events = None
    if args.trace_events:
        events = tuple(
            name.strip() for name in args.trace_events.split(",") if name.strip()
        )
    try:
        spec = TraceSpec(
            path=args.trace_out,
            events=events,
            chrome_path=args.chrome,
            check=not args.no_check,
        )
    except ConfigurationError as exc:
        raise SystemExit(str(exc))
    experiment = SingleSwitchExperiment(
        load=args.load,
        trace=spec,
        profile_loop=args.profile,
        **_base_kwargs(profile),
    )
    started = time.perf_counter()
    result = simulate_single_switch(experiment)
    elapsed = time.perf_counter() - started
    summary = result.trace_summary
    print(f"cycles run        {result.cycles_run}")
    print(f"flits injected    {result.flits_injected}")
    print(f"flits ejected     {result.flits_ejected}")
    print(f"events emitted    {summary['events']}")
    for kind in sorted(ALL_EVENTS):
        count = summary["counts"].get(kind)
        if count:
            print(f"  {kind:12s} {count}")
    if not args.no_check:
        print(
            f"invariants        OK "
            f"({summary['invariant_checks']} structural audits)"
        )
    print(
        f"trace written     {summary['jsonl_path']} "
        f"({summary['jsonl_records']} records)"
    )
    if args.chrome:
        print(
            f"chrome trace      {summary['chrome_path']} "
            f"({summary['chrome_events']} events; open in ui.perfetto.dev)"
        )
    if args.profile:
        for name, value in sorted(result.metrics.profile.items()):
            print(f"  {name:22s} {value:.3f}")
    print(f"[trace completed in {elapsed:.1f}s]")
    return 0


def _run_chaos(args) -> int:
    """The ``mediaworm chaos`` subcommand: differential fault campaigns.

    Three modes, mutually exclusive: ``--replay FILE`` re-runs one
    repro and checks its verdict still holds; ``--selftest KIND``
    proves the whole pipeline catches, shrinks, and replays a known
    sabotage; the default runs a seeded random campaign and writes a
    minimal repro for every failure it finds.
    """
    import os

    from repro.chaos import ScenarioSpace, replay, run_campaign, selftest
    from repro.errors import ChaosFailure, ConfigurationError

    if args.replay:
        try:
            ok, message, actual = replay(args.replay)
        except ConfigurationError as exc:
            raise SystemExit(str(exc))
        status = "OK" if ok else "MISMATCH"
        print(f"[{status}] {args.replay}: {message}")
        return 0 if ok else 1

    if args.selftest:
        try:
            path = selftest(
                args.selftest,
                args.corpus,
                seed=args.seed,
                shrink_budget=args.shrink_budget,
                log=print,
            )
        except ChaosFailure as exc:
            print(f"[selftest FAILED] {exc}", file=sys.stderr)
            return 1
        print(f"[selftest ok: pipeline caught/shrank/replayed -> {path}]")
        return 0

    profile = get_profile(args.profile)
    space = ScenarioSpace(scale=profile.scale)
    path = args.checkpoint or f"mediaworm-chaos-{args.profile}.checkpoint.json"
    if args.fresh:
        for stale in (path, f"{path}.tmp"):
            try:
                os.remove(stale)
            except OSError:
                pass
    started = time.perf_counter()
    summary = run_campaign(
        space,
        seed=args.seed,
        count=args.count,
        corpus_dir=args.corpus,
        jobs=args.jobs,
        checkpoint_path=path,
        shrink_budget=args.shrink_budget,
        point_timeout=args.point_timeout,
        log=print,
    )
    _write_json(args.json, summary)
    print(
        f"chaos campaign: {summary['passed']}/{summary['scenarios']} "
        f"scenarios passed (seed {summary['seed']})"
    )
    for failure in summary["failures"]:
        print(
            f"  FAIL {failure['key']} [{failure['oracle']}]: "
            f"{failure['detail']}"
        )
        print(f"       repro: {failure['repro']}")
    print(f"[chaos completed in {time.perf_counter() - started:.1f}s]")
    return 1 if summary["failed"] else 0


def _run_topo(args) -> int:
    """The ``mediaworm topo`` subcommand: build + describe one topology."""
    from repro.errors import ConfigurationError
    from repro.experiments.topo import TOPOLOGY_KINDS, build_topology, describe_topology

    params = {
        name: getattr(args, name)
        for name in (
            "num_ports",
            "rows",
            "cols",
            "hosts_per_router",
            "leaves",
            "spines",
            "hosts_per_leaf",
            "k",
            "arity",
            "levels",
            "fat_width",
        )
        if getattr(args, name) is not None
    }
    try:
        topology = build_topology(args.kind, **params)
    except ConfigurationError as exc:
        raise SystemExit(str(exc))
    print(describe_topology(topology))
    return 0


def _run_scale(args, parser) -> int:
    """The ``mediaworm scale`` subcommand: digests at datacenter scale."""
    from repro.experiments.scale import (
        SCALE_POINTS,
        SMOKE_POINTS,
        run_scale_campaign,
        scale_campaign_to_text,
    )

    if args.points and args.smoke:
        parser.error("--points and --smoke are mutually exclusive")
    points = SMOKE_POINTS if args.smoke else None
    if args.points:
        points = tuple(p.strip() for p in args.points.split(",") if p.strip())
        for point in points:
            if point not in SCALE_POINTS:
                parser.error(
                    f"unknown point {point!r}; "
                    f"known: {', '.join(SCALE_POINTS)}"
                )
    started = time.perf_counter()
    summary = run_scale_campaign(points, log=print)
    _write_json(args.json, summary)
    print(scale_campaign_to_text(summary))
    print(f"[scale completed in {time.perf_counter() - started:.1f}s]")
    return 0 if summary["ok"] else 1


def _add_checkpoint_args(parser, text: str) -> None:
    """``--checkpoint PATH`` (described by ``text``) and ``--fresh``."""
    parser.add_argument("--checkpoint", metavar="PATH", default=None, help=text)
    parser.add_argument(
        "--fresh",
        action="store_true",
        help="discard any existing checkpoint and recompute everything",
    )


def _add_sweep_args(parser) -> None:
    """Flags shared by every sweep-running subcommand."""
    parser.add_argument(
        "--jobs",
        type=int,
        metavar="N",
        default=1,
        help="run sweep points in N worker processes (per-point results "
        "are bit-identical to --jobs 1)",
    )
    parser.add_argument(
        "--watchdog",
        type=int,
        metavar="CYCLES",
        default=None,
        help="abort any run making no progress for CYCLES cycles "
        "(default: each sweep's own policy)",
    )
    parser.add_argument(
        "--point-timeout",
        type=float,
        metavar="SECONDS",
        default=None,
        help="wall-clock budget per sweep point; a point exceeding it "
        "fails (and retries reseeded) instead of hanging the sweep",
    )
    parser.add_argument(
        "--engine",
        choices=ENGINES,
        default=None,
        help="simulation engine for every run of the sweep: 'object' "
        "(reference component loop) or 'array' (fused dense datapath; "
        "bit-identical metrics, falls back to the object loop for cold "
        "features)",
    )


def main(argv: Optional[List[str]] = None) -> int:
    """CLI dispatcher (installed as the ``mediaworm`` script)."""
    parser = argparse.ArgumentParser(
        prog="mediaworm",
        description="Reproduce the MediaWorm (HPCA 2000) evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")

    run_parser = sub.add_parser("run", help="run one experiment")
    run_parser.add_argument("experiment", help="fig3..fig9, table2, table3")
    run_parser.add_argument(
        "--profile",
        choices=sorted(PROFILES),
        default="default",
        help="workload scale / horizon preset",
    )
    _add_sweep_args(run_parser)
    run_parser.add_argument(
        "--plot",
        action="store_true",
        help="append a terminal plot of sigma_d",
    )
    run_parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="also write the result as JSON",
    )
    run_parser.add_argument(
        "--check",
        action="store_true",
        help="verify the paper's qualitative claims against the result",
    )

    all_parser = sub.add_parser("all", help="run every figure and table")
    all_parser.add_argument(
        "--profile", choices=sorted(PROFILES), default="default"
    )
    _add_sweep_args(all_parser)
    _add_checkpoint_args(
        all_parser,
        "checkpoint file (default: mediaworm-all-<profile>"
        ".checkpoint.json); an interrupted run resumes from it",
    )

    for campaign in CAMPAIGNS.values():
        campaign_parser = sub.add_parser(campaign.name, help=campaign.help)
        campaign_parser.add_argument(
            "--profile", choices=sorted(PROFILES), default="default"
        )
        _add_sweep_args(campaign_parser)
        letter = campaign.axis[0].upper()
        campaign_parser.add_argument(
            f"--{campaign.axis}",
            metavar=f"{letter}1,{letter}2,...",
            default=None,
            help=campaign.axis_help,
        )
        campaign_parser.add_argument(
            "--json", metavar="PATH", default=None, help="also write JSON"
        )
        _add_checkpoint_args(
            campaign_parser,
            f"checkpoint file (default: mediaworm-{campaign.name}"
            "-<profile>.checkpoint.json)",
        )

    trace_parser = sub.add_parser(
        "trace",
        help="run once with structured tracing + invariant checking",
    )
    trace_parser.add_argument(
        "--preset",
        choices=sorted(PROFILES),
        default="quick",
        help="workload scale / horizon preset (default: quick)",
    )
    trace_parser.add_argument(
        "--load",
        type=float,
        default=0.8,
        metavar="F",
        help="offered input-link load (default: 0.8)",
    )
    trace_parser.add_argument(
        "--trace-out",
        metavar="PATH",
        default="mediaworm-trace.jsonl",
        help="JSONL event-stream destination "
        "(default: mediaworm-trace.jsonl)",
    )
    trace_parser.add_argument(
        "--trace-events",
        metavar="K1,K2,...",
        default=None,
        help="record only these event kinds (default: all; see "
        "repro.obs.ALL_EVENTS)",
    )
    trace_parser.add_argument(
        "--chrome",
        metavar="PATH",
        default=None,
        help="also export a Chrome-trace/Perfetto JSON timeline",
    )
    trace_parser.add_argument(
        "--no-check",
        action="store_true",
        help="skip the invariant checker (tracing only)",
    )
    trace_parser.add_argument(
        "--profile",
        action="store_true",
        help="profile the simulation loop per phase (wall time)",
    )

    chaos_parser = sub.add_parser(
        "chaos",
        help="randomized differential fault campaign (auto-shrinks "
        "failures to replayable repros)",
    )
    chaos_parser.add_argument(
        "--profile",
        choices=sorted(PROFILES),
        default="smoke",
        help="workload scale for generated scenarios (default: smoke)",
    )
    chaos_parser.add_argument(
        "--count",
        type=int,
        metavar="N",
        default=25,
        help="scenarios to draw and run (default: 25)",
    )
    chaos_parser.add_argument(
        "--seed",
        type=int,
        default=7,
        help="campaign seed; the scenario stream and every verdict are "
        "a pure function of it (default: 7)",
    )
    chaos_parser.add_argument(
        "--jobs",
        type=int,
        metavar="N",
        default=1,
        help="run scenarios in N isolated worker processes",
    )
    chaos_parser.add_argument(
        "--point-timeout",
        type=float,
        metavar="SECONDS",
        default=None,
        help="override each scenario's wall-clock budget (a scenario "
        "exceeding it fails under the 'timeout' oracle)",
    )
    chaos_parser.add_argument(
        "--corpus",
        metavar="DIR",
        default="chaos-corpus",
        help="directory for shrunk failing-scenario repros "
        "(default: chaos-corpus)",
    )
    _add_checkpoint_args(
        chaos_parser,
        "campaign checkpoint (default: mediaworm-chaos-<profile>"
        ".checkpoint.json); an interrupted campaign resumes from it",
    )
    chaos_parser.add_argument(
        "--shrink-budget",
        type=int,
        metavar="N",
        default=40,
        help="max re-runs spent shrinking one failure (default: 40)",
    )
    chaos_parser.add_argument(
        "--replay",
        metavar="FILE",
        default=None,
        help="re-run one repro file and verify its recorded verdict",
    )
    chaos_parser.add_argument(
        "--selftest",
        metavar="KIND",
        default=None,
        help="sabotage a run (e.g. 'credit') and assert the pipeline "
        "catches, shrinks, and replays it",
    )
    chaos_parser.add_argument(
        "--json", metavar="PATH", default=None, help="also write JSON"
    )

    topo_parser = sub.add_parser(
        "topo",
        help="inspect a topology and its compiled route program",
    )
    topo_parser.add_argument(
        "kind",
        help="single, mesh, fat_tree, fat_tree3, or butterfly",
    )
    for flag, kind in (
        ("--num-ports", int),
        ("--rows", int),
        ("--cols", int),
        ("--hosts-per-router", int),
        ("--leaves", int),
        ("--spines", int),
        ("--hosts-per-leaf", int),
        ("--k", int),
        ("--arity", int),
        ("--levels", int),
        ("--fat-width", int),
    ):
        topo_parser.add_argument(flag, type=kind, default=None)

    scale_parser = sub.add_parser(
        "scale",
        help="datacenter-scale campaign: bit-identical repeat + legacy "
        "digests on 1024-host fat trees and Clos networks",
    )
    scale_parser.add_argument(
        "--points",
        metavar="P1,P2,...",
        default=None,
        help="comma-separated point names (default: all)",
    )
    scale_parser.add_argument(
        "--smoke",
        action="store_true",
        help="run only the quick smoke subset",
    )
    scale_parser.add_argument(
        "--json", metavar="PATH", default=None, help="also write JSON"
    )

    args = parser.parse_args(argv)

    if args.command == "topo":
        return _run_topo(args)

    if args.command == "scale":
        return _run_scale(args, scale_parser)

    if args.command == "list":
        for name, desc in _DESCRIPTIONS.items():
            print(f"{name:8s} {desc}")
        return 0

    if args.command == "trace":
        # its --profile is the loop profiler; the workload preset is
        # --preset, so resolve before the shared --profile handling
        return _run_trace(args, get_profile(args.preset))

    if args.command == "chaos":
        # scenarios carry their own watchdog and wall-clock budgets, so
        # chaos skips the shared sweep-flag handling below
        if args.jobs < 1:
            raise SystemExit(f"--jobs must be >= 1, got {args.jobs}")
        if args.count < 1:
            raise SystemExit(f"--count must be >= 1, got {args.count}")
        return _run_chaos(args)

    profile = get_profile(args.profile)
    if args.watchdog is not None:
        if args.watchdog < 1:
            raise SystemExit(f"--watchdog must be >= 1, got {args.watchdog}")
        profile = replace(profile, watchdog_window=args.watchdog)
    if getattr(args, "engine", None) is not None:
        profile = replace(profile, engine=args.engine)
    if args.jobs < 1:
        raise SystemExit(f"--jobs must be >= 1, got {args.jobs}")
    if args.point_timeout is not None and args.point_timeout <= 0:
        raise SystemExit(
            f"--point-timeout must be > 0 seconds, got {args.point_timeout}"
        )
    # a point timeout needs the executor even at --jobs 1: the inline
    # path is what arms the per-point wall-clock limit
    executor = (
        ParallelSweepExecutor(
            jobs=args.jobs,
            log=print,
            point_timeout=args.point_timeout,
        )
        if args.jobs > 1 or args.point_timeout is not None
        else None
    )

    if args.command in CAMPAIGNS:
        return _run_campaign(CAMPAIGNS[args.command], args, profile, executor)

    names = (
        [args.experiment]
        if args.command == "run"
        else ["fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "table3"]
    )
    plot = getattr(args, "plot", False)
    json_path = getattr(args, "json", None)
    check = getattr(args, "check", False)
    checkpoint = None
    if args.command == "all":
        path = (
            args.checkpoint
            or f"mediaworm-all-{args.profile}.checkpoint.json"
        )
        checkpoint = SweepCheckpoint(
            path, meta={"command": "all", "profile": args.profile}
        )
        if args.fresh:
            checkpoint.clear()
        restored = [name for name in names if name in checkpoint]
        if restored:
            print(
                f"[resuming from {path}: "
                f"{', '.join(restored)} already done]\n"
            )
    for name in names:
        started = time.perf_counter()
        if checkpoint is not None and name in checkpoint:
            print(checkpoint.get(name))
            print(f"[{name} restored from checkpoint]\n")
            continue
        text = _run_one_resilient(
            name,
            profile,
            plot=plot,
            json_path=json_path,
            check=check,
            executor=executor,
        )
        elapsed = time.perf_counter() - started
        print(text)
        print(f"[{name} completed in {elapsed:.1f}s]\n")
        if checkpoint is not None:
            checkpoint.put(name, text)
    if checkpoint is not None:
        checkpoint.clear()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
