"""Failover campaign: delivered QoS under permanent link failures.

The fault sweep (``mediaworm faults``) studies *transient* per-flit loss
with an oracle-routed fabric.  This campaign asks the harder robustness
question: when whole links die permanently mid-run, how much of the
guaranteed traffic survives — and how much does symptom-driven adaptive
routing (link-health monitoring + fault-aware detours + graceful QoS
degradation) buy over a blind static router?

Each point runs the 2x2 fat mesh with ``severity`` fat-link pairs
suffering one permanent member failure at the end of warmup, the
end-to-end recovery transport retransmitting, and the health monitor
watching symptoms.  The two series are the routing modes:

* ``adaptive`` — the monitor masks suspect links, reroutes within fat
  groups, detours around dead groups, requeues stuck worms, and sheds
  load (best-effort first) while capacity is degraded;
* ``static`` — the same detection telemetry, but the routers keep
  aiming at dead links; only timeout/retransmission limits the damage.

Reported per point: delivered QoS fraction, QoS deadline misses, jitter
(``d`` / ``sigma_d``), and the monitor's failover counters.  Points are
checkpointed with fingerprinted keys (see
:func:`~repro.experiments.parallel.sweep_fingerprint`), so resuming
with changed failover knobs recomputes instead of serving stale points.
"""

from __future__ import annotations

from typing import Dict, List

from repro.errors import ConfigurationError
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
from repro.faults import FaultPlan, LinkDownWindow
from repro.network.topology import fat_mesh
from repro.router.config import RoutingMode

#: failed fat pairs swept by ``mediaworm failover`` (the 2x2 fat mesh
#: has 8 directed fat pairs, so 8 = one dead member in every group)
DEFAULT_SEVERITIES = (0, 2, 4, 8)

#: routing modes compared, one series each
CAMPAIGN_MODES = (RoutingMode.ADAPTIVE, RoutingMode.STATIC)

#: campaign operating point: the fat mesh at moderate load, 80:20 mix
CAMPAIGN_LOAD = 0.6
CAMPAIGN_MIX = (80, 20)


def _fat_pair_windows(
    experiment: FatMeshExperiment, severity: int, onset: int
) -> tuple:
    """Permanent down-windows killing one member of ``severity`` fat pairs.

    Channels are grouped by directed ``(src_router, dst_router)`` pair;
    the lowest-port member of each of the first ``severity`` pairs (in
    sorted pair order, for determinism) dies at ``onset`` and never
    recovers.  Every group keeps at least one healthy sibling, so the
    fabric stays connected and adaptive routing has somewhere to go.
    """
    topology = fat_mesh(
        rows=experiment.rows,
        cols=experiment.cols,
        hosts_per_router=experiment.hosts_per_router,
        fat_width=experiment.fat_width,
    )
    groups: Dict[tuple, List[tuple]] = {}
    for src, sp, dst, dp in topology.channels:
        groups.setdefault((src, dst), []).append((src, sp, dst, dp))
    if not 0 <= severity <= len(groups):
        raise ConfigurationError(
            f"severity {severity} is outside 0..{len(groups)}, the fat "
            f"pairs of the {experiment.rows}x{experiment.cols} mesh"
        )
    windows = []
    for pair in sorted(groups)[:severity]:
        src, sp, dst, dp = sorted(groups[pair])[0]
        windows.append(
            LinkDownWindow(
                link=f"ch:{src}.{sp}->{dst}.{dp}", start=onset, end=None
            )
        )
    return tuple(windows)


def _campaign_experiment(
    profile, mode: str, severity: int
) -> FatMeshExperiment:
    """One campaign point: fat mesh + permanent failures + failover stack."""
    base = FatMeshExperiment(
        load=CAMPAIGN_LOAD,
        mix=CAMPAIGN_MIX,
        vcs_per_pc=16,
        **_base_kwargs(profile),
    )
    # Failures land at the end of warmup, so detection and failover are
    # entirely inside the measurement window and time-to-recovery is
    # comparable across profiles.
    windows = _fat_pair_windows(base, severity, onset=base.warmup_cycles)
    return with_recovery(base, profile, FaultPlan(down_windows=windows), mode)


def _campaign_point(experiment: FatMeshExperiment) -> Point:
    """Worker body: run one point, reduced to its figure Point.

    Module-level (picklable) so the parallel executor can farm points
    out; ``x`` is the severity (number of failed fat-pair members).
    """
    result = simulate_fat_mesh(experiment)
    return Point(
        len(experiment.faults.down_windows),
        result.metrics,
        extra=result.fault_stats or {},
    )


def _point_key(mode: str, severity: int, experiment) -> str:
    """Fingerprinted checkpoint/result key for one point.

    Unlike the fault sweep, failover points always carry non-default
    knobs (routing mode, health config, deadline), so the fingerprint
    is always present — a checkpoint resumed after any knob change
    recomputes rather than reusing stale points.
    """
    return f"{mode}@{severity}|{sweep_fingerprint(experiment)}"


def _check_severity(severity: int) -> None:
    """A severity is valid iff the campaign's mesh has that many fat pairs."""
    _fat_pair_windows(FatMeshExperiment(), severity, onset=0)


CAMPAIGN = Campaign(
    name="failover",
    description="adaptive vs static routing under permanent link failures",
    help="permanent-failure campaign (adaptive vs static routing)",
    series=(CAMPAIGN_MODES,),
    axis="severities",
    axis_help="comma-separated failed fat-pair counts (0..8 on the 2x2 mesh)",
    defaults=DEFAULT_SEVERITIES,
    parse=int,
    validate=_check_severity,
    experiment=_campaign_experiment,
    point=_campaign_point,
    key=_point_key,
    title=(
        "QoS failover under permanent link failures "
        "(2x2 fat mesh, 80:20 mix, load 0.6)"
    ),
    xlabel="failed fat-pair members",
    notes="one permanent member failure per fat pair at end of "
    "warmup; health monitoring on in both modes, failover actions "
    "only in adaptive",
    series_column=("routing", 9),
    columns=(
        ("failed", 6, lambda p: format(p.x)),
        column("qos frac", 9, "qos_delivered_fraction", ".4f", 1.0),
        column("misses", 7, "qos_deadline_misses"),
        *JITTER_COLUMNS,
        column("reroute", 8, "health.reroutes"),
        column("detour", 7, "health.detours"),
        column("requeue", 8, "health.worms_requeued"),
        column("shed", 5, "health.streams_shed"),
        column("abandoned", 9, "qos_abandoned"),
    ),
)
