"""The three benchmark workloads: one simulation point each, as users run it.

Each workload is built from the campaign definition it stands in for, so
the benchmark and the campaign cannot drift apart:

* ``switch_dense`` -- the Fig. 3 point of the paper's 8-port switch
  (load 0.8, 80:20 VBR:best-effort, Virtual Clock, 16 VCs, scale 20).
  Set-up is a few milliseconds; the router, NI and link hot path is
  nearly all of the run.
* ``fattree_1024`` -- the scale campaign's ``ft3-1024`` point: a 3-level
  k=16 fat tree (1024 hosts, 320 switches) at load 0.01.  Cold set-up
  (topology, route compile, wiring, workload) is a tenth of the run,
  and the loop is the active-set scheduler over mostly idle routers.
* ``fatmesh_faulted`` -- the failover campaign's severity-2 adaptive
  point on the 2x2 fat mesh: two fat-pair members die at the end of
  warmup, with recovery transport, health monitor and rerouting.  The
  same router and link layers run through their cold (faulted) paths.

Every workload runs one warmup and two measured frame epochs, so the
paper's ``d`` and ``sigma_d`` are defined (a single measured epoch has
no delivery interval) and the pinned digest covers them.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Dict, Mapping, Optional

from repro.core.schedulers import SchedulingPolicy
from repro.experiments.config import SingleSwitchExperiment
from repro.experiments.failover import _campaign_experiment
from repro.experiments.figures import RunProfile
from repro.experiments.runner import (
    simulate_fat_mesh,
    simulate_fat_tree3,
    simulate_single_switch,
)
from repro.experiments.scale import SCALE_POINTS
from repro.router.config import RoutingMode

WARMUP_FRAMES = 1
MEASURE_FRAMES = 2


@dataclasses.dataclass(frozen=True)
class Workload:
    """One benchmark workload and the gate its every run must pass."""

    name: str
    #: public runner (``repro.experiments.runner.simulate_*``)
    runner: Callable
    #: seed -> experiment; the engine is never set, so the default runs
    build: Callable[[int], object]
    #: the seed the source campaign uses; its digest is pinned
    default_seed: int
    #: seed -> canonical ``run_digest`` the run must reproduce
    digests: Mapping[int, str]
    #: route programs a cold run compiles (the single switch has none)
    compiles: int
    #: result -> None, or why the paper-level property does not hold
    check: Callable[[object], Optional[str]]


def _jitter_defined(result) -> Optional[str]:
    m = result.metrics
    if m.interval_count < 1 or math.isnan(m.d) or math.isnan(m.sigma_d):
        return f"d/sigma_d undefined ({m.interval_count} intervals)"
    return None


def jitter_free(result) -> Optional[str]:
    """Virtual Clock keeps VBR delivery at d ~ 33 ms with sigma_d ~ 0."""
    problem = _jitter_defined(result)
    if problem is None and not result.metrics.is_jitter_free():
        m = result.metrics
        problem = f"not jitter-free: d={m.d:.3f} sigma_d={m.sigma_d:.3f}"
    return problem


def failover_holds(result) -> Optional[str]:
    """Adaptive routing reroutes around the dead links and keeps QoS."""
    problem = _jitter_defined(result)
    if problem is not None:
        return problem
    delivered = (result.fault_stats or {}).get("qos_delivered_fraction", 0.0)
    if delivered < 0.99:
        return f"qos_delivered_fraction {delivered:.4f} < 0.99"
    if result.metrics.reroutes <= 0:
        return "no reroutes around the failed links"
    return None


def switch_dense(seed: int) -> SingleSwitchExperiment:
    return SingleSwitchExperiment(
        load=0.8,
        mix=(80, 20),
        scheduler=SchedulingPolicy.VIRTUAL_CLOCK,
        vcs_per_pc=16,
        scale=20.0,
        warmup_frames=WARMUP_FRAMES,
        measure_frames=MEASURE_FRAMES,
        seed=seed,
    )


def fattree_1024(seed: int):
    _, experiment = SCALE_POINTS["ft3-1024"]
    return dataclasses.replace(
        experiment,
        warmup_frames=WARMUP_FRAMES,
        measure_frames=MEASURE_FRAMES,
        seed=seed,
    )


def fatmesh_faulted(seed: int, scale: float = 40.0):
    profile = RunProfile(
        "perfbench",
        scale=scale,
        warmup_frames=WARMUP_FRAMES,
        measure_frames=MEASURE_FRAMES,
        seed=seed,
    )
    return _campaign_experiment(profile, RoutingMode.ADAPTIVE, 2)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="switch_dense",
            runner=simulate_single_switch,
            build=switch_dense,
            default_seed=1,
            digests={
                1: "b34d9677e3d387092eafc6c89463a8b145dc44cc040d478ec88f3f16b4e75214"
            },
            compiles=0,
            check=jitter_free,
        ),
        Workload(
            name="fattree_1024",
            runner=simulate_fat_tree3,
            build=fattree_1024,
            default_seed=11,
            digests={
                11: "c60e228657727a9a86eff87cc3a2bdf4c47573416f391a61299d8cd405fc882d"
            },
            compiles=1,
            check=jitter_free,
        ),
        Workload(
            name="fatmesh_faulted",
            runner=simulate_fat_mesh,
            build=fatmesh_faulted,
            default_seed=1,
            digests={
                1: "0b763a4a98dcb0c6e1bb0f59166ec688ca06464fd92ff9c763c6daddb27f6a17"
            },
            compiles=1,
            check=failover_holds,
        ),
    )
}
