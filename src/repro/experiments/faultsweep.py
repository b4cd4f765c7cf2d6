"""Fault campaign: QoS under link faults (beyond the paper's evaluation).

The paper evaluates MediaWorm on a fault-free fabric.  This sweep asks
the robustness question the original evaluation leaves open: how do the
two schedulers (Virtual Clock vs FIFO) degrade when the fat-mesh links
start dropping flits?  Each point runs the 2x2 fat mesh at a fixed load
and mix with a :class:`~repro.faults.FaultPlan` injecting per-flit loss
at the given rate, the end-to-end recovery transport picking up the
pieces, and the progress watchdog bounding wedged runs.

Results are delivered-fraction and jitter versus fault rate, one series
per scheduler, checkpointed per point so an interrupted campaign
resumes where it stopped.
"""

from __future__ import annotations

from repro.core.schedulers import SchedulingPolicy
from repro.experiments.campaign import (
    JITTER_COLUMNS,
    Campaign,
    column,
    with_recovery,
)
from repro.experiments.config import FatMeshExperiment
from repro.experiments.figures import Point, _base_kwargs
from repro.experiments.parallel import sweep_fingerprint
from repro.experiments.runner import simulate_fat_mesh
from repro.faults import FaultPlan

#: per-flit loss probabilities swept by ``mediaworm faults``
DEFAULT_FAULT_RATES = (0.0, 0.001, 0.005, 0.01, 0.02)

#: campaign operating point: the fat mesh at moderate load, 80:20 mix
CAMPAIGN_LOAD = 0.7
CAMPAIGN_MIX = (80, 20)


def _campaign_experiment(profile, policy: str, rate: float) -> FatMeshExperiment:
    """One campaign point: fat mesh + fault plan + scaled recovery."""
    base = FatMeshExperiment(
        load=CAMPAIGN_LOAD,
        mix=CAMPAIGN_MIX,
        scheduler=policy,
        vcs_per_pc=16,
        **_base_kwargs(profile),
    )
    return with_recovery(base, profile, FaultPlan(flit_loss_prob=rate))


def _campaign_point(experiment: FatMeshExperiment) -> Point:
    """Worker body: run one campaign point, reduced to its figure Point.

    Module-level (picklable) so the parallel executor can run campaign
    points in pool workers; returning the Point rather than the full
    result keeps the checkpoint encoding identical between serial and
    parallel paths.
    """
    result = simulate_fat_mesh(experiment)
    return Point(
        experiment.faults.flit_loss_prob,
        result.metrics,
        extra=result.fault_stats or {},
    )


def _point_key(policy: str, rate: float, experiment=None) -> str:
    """Checkpoint/result key for one point.

    The fingerprint suffix is empty for the campaign's default knobs,
    so checkpoints written before routing modes and health monitoring
    existed keep restoring; non-default knobs change the key and force
    a recompute.
    """
    key = f"{policy}@{rate:g}"
    fingerprint = sweep_fingerprint(experiment) if experiment is not None else ""
    return f"{key}|{fingerprint}" if fingerprint else key


def _check_rate(rate: float) -> None:
    """A loss rate is valid iff a fault plan accepts it (0 <= rate <= 1)."""
    FaultPlan(flit_loss_prob=rate)


CAMPAIGN = Campaign(
    name="faults",
    description="QoS degradation under link faults (fat mesh)",
    help="fault-injection campaign (delivered fraction, jitter)",
    series=((SchedulingPolicy.VIRTUAL_CLOCK, SchedulingPolicy.FIFO),),
    axis="rates",
    axis_help="comma-separated per-flit loss probabilities",
    defaults=DEFAULT_FAULT_RATES,
    parse=float,
    validate=_check_rate,
    meta="{:g}".format,
    experiment=_campaign_experiment,
    point=_campaign_point,
    key=_point_key,
    title="QoS under link faults (2x2 fat mesh, 80:20 mix, load 0.7)",
    xlabel="per-flit loss probability",
    notes="end-to-end recovery enabled (checksum + timeout/"
    "retransmission with capped exponential backoff)",
    series_column=("scheduler", 14),
    columns=(
        ("loss rate", 9, lambda p: format(p.x, "g")),
        column("delivered", 9, "delivered_fraction", ".4f", 1.0),
        *JITTER_COLUMNS,
        column("lost", 7, "flits_lost"),
        column("rexmit", 7, "retransmissions"),
        column("abandoned", 9, "abandoned"),
    ),
)
