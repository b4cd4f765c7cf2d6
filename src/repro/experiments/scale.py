"""Scale campaign: compiled routing at datacenter-sized topologies.

``mediaworm scale`` proves the route-program refactor out at 1024+
hosts: each campaign point builds a 3-level k-ary fat tree or a k-ary
n-tree (butterfly/folded Clos), runs a sparse real-time workload three
times — active-set loop, active-set repeat, legacy full-scan loop —
and demands all three produce bit-identical metrics digests.  A
progress watchdog (four frame epochs) arms every run, so a routing
cycle or a starved stream fails loudly instead of hanging the
campaign.

Each point also audits the *compile-once* contract: the repeat run
must hit the runner's topology cache, so the route-program compile
counter may move at most once per point (and not at all when an
earlier point already cached the shape).

Usage::

    python -m repro.experiments.scale --points ft3-1024 --json scale.json
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import sys
import time
from typing import Dict, Optional, Tuple

from repro.errors import ConfigurationError
from repro.experiments.bench_core import _metrics_dict
from repro.experiments.config import ButterflyExperiment, FatTree3Experiment
from repro.experiments.runner import (
    _cached_topology,
    simulate_butterfly,
    simulate_fat_tree3,
)
from repro.network.topology import butterfly, fat_tree3
from repro.router import routeprog

FORMAT = "mediaworm-scale-v1"

#: sparse load so wall time stays dominated by network size, not flits
SCALE_LOAD = 0.01
#: every campaign run aborts after this many frame epochs of no progress
WATCHDOG_FRAMES = 4

_COMMON = dict(
    load=SCALE_LOAD,
    mix=(100.0, 0.0),
    vcs_per_pc=4,
    warmup_frames=1,
    measure_frames=1,
    seed=11,
    scale=40.0,
)

#: name -> (runner, experiment); ft3-1024 is the acceptance point —
#: a 1024-host, 320-switch classic fat tree of uniform 16-port routers
SCALE_POINTS: Dict[str, Tuple] = {
    "ft3-16": (simulate_fat_tree3, FatTree3Experiment(k=4, **_COMMON)),
    "ft3-128": (simulate_fat_tree3, FatTree3Experiment(k=8, **_COMMON)),
    "ft3-1024": (simulate_fat_tree3, FatTree3Experiment(k=16, **_COMMON)),
    "bfly-64": (
        simulate_butterfly,
        ButterflyExperiment(arity=4, levels=3, **_COMMON),
    ),
    "bfly-512": (
        simulate_butterfly,
        ButterflyExperiment(arity=8, levels=3, **_COMMON),
    ),
}

#: the quick subset exercised by ``make scale-smoke`` and CI
SMOKE_POINTS = ("ft3-16", "bfly-64")


def _armed(experiment):
    """The experiment with the campaign watchdog installed."""
    window = WATCHDOG_FRAMES * experiment.workload_config().frame_interval_cycles
    return dataclasses.replace(experiment, watchdog_window=window)


def run_digest(result) -> str:
    """Canonical digest of one run: metrics + conservation counters."""
    payload = {
        "metrics": _metrics_dict(result),
        "cycles": result.cycles_run,
        "injected": result.flits_injected,
        "ejected": result.flits_ejected,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _topology_stats(experiment) -> Dict[str, object]:
    """Shape + route-program statistics for the point's topology.

    Served from the runner's cache, so this never triggers an extra
    compile once the point has run.
    """
    if isinstance(experiment, FatTree3Experiment):
        topology = _cached_topology(
            fat_tree3,
            k=experiment.k,
            hosts_per_leaf=experiment.hosts_per_leaf,
            fat_width=experiment.fat_width,
        )
    else:
        topology = _cached_topology(
            butterfly,
            arity=experiment.arity,
            levels=experiment.levels,
            hosts_per_leaf=experiment.hosts_per_leaf,
            fat_width=experiment.fat_width,
        )
    stats = dict(topology.route_program.stats())
    stats["hosts"] = topology.num_hosts
    stats["ports_per_router"] = topology.ports_per_router
    return stats


def run_scale_point(name: str, log=None) -> Dict[str, object]:
    """Run one campaign point; returns its record (see module doc)."""
    try:
        runner, experiment = SCALE_POINTS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown scale point {name!r}; "
            f"choose from {', '.join(SCALE_POINTS)}"
        )
    experiment = _armed(experiment)

    def say(message: str) -> None:
        if log is not None:
            log(f"[scale] {name}: {message}")

    saved = os.environ.pop("REPRO_LEGACY_LOOP", None)
    try:
        compiles_before = routeprog.compile_count()
        started = time.perf_counter()
        active = runner(experiment)
        active_s = time.perf_counter() - started
        compiles_first = routeprog.compile_count() - compiles_before
        say(f"active loop {active_s:.1f}s ({active.cycles_run} cycles)")

        started = time.perf_counter()
        repeat = runner(experiment)
        repeat_s = time.perf_counter() - started
        compiles_repeat = (
            routeprog.compile_count() - compiles_before - compiles_first
        )
        say(f"repeat {repeat_s:.1f}s")

        os.environ["REPRO_LEGACY_LOOP"] = "1"
        started = time.perf_counter()
        legacy = runner(experiment)
        legacy_s = time.perf_counter() - started
        say(f"legacy loop {legacy_s:.1f}s")
    finally:
        if saved is None:
            os.environ.pop("REPRO_LEGACY_LOOP", None)
        else:
            os.environ["REPRO_LEGACY_LOOP"] = saved

    digests = [run_digest(active), run_digest(repeat), run_digest(legacy)]
    record = {
        "name": name,
        "topology": _topology_stats(experiment),
        "watchdog_window": experiment.watchdog_window,
        "active_s": round(active_s, 3),
        "repeat_s": round(repeat_s, 3),
        "legacy_s": round(legacy_s, 3),
        "flits_injected": active.flits_injected,
        "flits_ejected": active.flits_ejected,
        "digest": digests[0],
        "identical": len(set(digests)) == 1,
        # at most one compile for the first run (zero on a warm cache),
        # and exactly zero for the repeat — the compile-once contract
        "compiles_first_run": compiles_first,
        "compiles_repeat_run": compiles_repeat,
        "compile_once": compiles_first <= 1 and compiles_repeat == 0,
    }
    return record


def run_scale_campaign(
    points: Optional[Tuple[str, ...]] = None, log=None
) -> Dict[str, object]:
    """Run the campaign; returns the summary record for JSON export."""
    names = tuple(points) if points else tuple(SCALE_POINTS)
    records = [run_scale_point(name, log=log) for name in names]
    return {
        "format": FORMAT,
        "points": records,
        "ok": all(r["identical"] and r["compile_once"] for r in records),
    }


def scale_campaign_to_text(summary: Dict[str, object]) -> str:
    lines = [
        "scale campaign (active / repeat / legacy must be bit-identical)",
        f"{'point':>10s} {'hosts':>6s} {'switches':>8s} {'table ints':>10s} "
        f"{'active':>8s} {'legacy':>8s} {'identical':>9s} {'compile':>7s}",
    ]
    for r in summary["points"]:
        topo = r["topology"]
        lines.append(
            f"{r['name']:>10s} {topo['hosts']:>6d} {topo['routers']:>8d} "
            f"{topo['table_ints']:>10d} {r['active_s']:>7.1f}s "
            f"{r['legacy_s']:>7.1f}s {str(r['identical']):>9s} "
            f"{'once' if r['compile_once'] else 'LEAK':>7s}"
        )
    lines.append(f"overall: {'OK' if summary['ok'] else 'FAIL'}")
    return "\n".join(lines)


if __name__ == "__main__":  # pragma: no cover
    from repro.experiments.cli import main

    sys.exit(main(["scale", *sys.argv[1:]]))
