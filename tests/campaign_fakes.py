"""Deterministic stand-ins for the campaign simulators.

``fake_result`` replaces ``simulate_fat_mesh`` / ``simulate_fat_tree3``
/ ``simulate_butterfly`` in the campaign modules: it derives every
number from the point's identity (scheduler, routing mode, fault plan),
so campaign plumbing, checkpoint fixtures and rendered tables can be
pinned without running a simulation.  The heaviest point of each
campaign's weak series always fails, exercising the ``FAILED`` path.

The committed fixtures under ``tests/campaign_fixtures/`` were written
by the campaign code of an earlier release driven by exactly this fake;
changing any number here invalidates them.
"""

from __future__ import annotations

import shutil
import zlib
from pathlib import Path

from repro.errors import DeadlockError
from repro.experiments.resilience import SweepCheckpoint
from repro.experiments.runner import ExperimentResult
from repro.metrics.collector import RunMetrics

FIXTURES = Path(__file__).parent / "campaign_fixtures"

#: the campaigns' CLI arguments used to capture the fixtures and goldens
CLI_AXES = {
    "faults": ["--rates", "0,0.02"],
    "failover": ["--severities", "0,2,4"],
    "disaster": ["--severities", "none,switch,pod"],
}

#: the swept values ``CLI_AXES`` parses to
CLI_VALUES = {
    "faults": (0.0, 0.02),
    "failover": (0, 2, 4),
    "disaster": ("none", "switch", "pod"),
}

#: checkpoint metadata the CLI writes for ``CLI_AXES`` at ``--profile quick``
CLI_META = {
    "faults": {"command": "faults", "profile": "quick", "rates": ["0", "0.02"]},
    "failover": {
        "command": "failover",
        "profile": "quick",
        "severities": [0, 2, 4],
    },
    "disaster": {
        "command": "disaster",
        "profile": "quick",
        "severities": ["none", "switch", "pod"],
    },
}


def _identity(experiment) -> str:
    plan = experiment.faults
    domains = [d.domain for d in plan.domains] if plan is not None else []
    return "|".join(
        str(part)
        for part in (
            type(experiment).__name__,
            experiment.scheduler,
            experiment.routing_mode,
            plan.flit_loss_prob if plan is not None else 0.0,
            len(plan.down_windows) if plan is not None else 0,
            ",".join(domains),
        )
    )


def _doomed(experiment) -> bool:
    plan = experiment.faults
    weak = experiment.routing_mode == "static" or experiment.scheduler == "fifo"
    return weak and plan is not None and (
        plan.flit_loss_prob >= 0.02
        or len(plan.down_windows) >= 4
        or any(d.domain == "pod:0" for d in plan.domains)
    )


def fake_result(experiment) -> ExperimentResult:
    """A deterministic result for one campaign point (or a deadlock)."""
    if _doomed(experiment):
        raise DeadlockError(f"fake wedge at {_identity(experiment)}")
    n = zlib.crc32(_identity(experiment).encode())
    metrics = RunMetrics(
        mean_delivery_interval_ms=33.0 + (n % 97) / 10.0,
        std_delivery_interval_ms=(n % 113) / 20.0,
        frames_delivered=100 + n % 50,
        interval_count=99 + n % 50,
        be_latency_us=10.0 + n % 7,
        be_latency_us_paper_equivalent=10.0 + n % 7,
        be_latency_std_us=1.0,
        be_message_count=50,
    )
    fraction = 1.0 - (n % 300) / 1000.0
    return ExperimentResult(
        experiment=experiment,
        metrics=metrics,
        workload=None,
        cycles_run=1000,
        flits_injected=10,
        flits_ejected=10,
        wall_seconds=0.0,
        fault_stats={
            "flits_lost": n % 41,
            "delivered_fraction": fraction,
            "retransmissions": n % 43,
            "abandoned": n % 3,
            "qos_delivered_fraction": fraction,
            "qos_reachable_fraction": min(1.0, fraction + 0.01),
            "qos_deadline_misses": n % 5,
            "qos_abandoned": n % 11,
            "health": {
                "reroutes": n % 1000,
                "detours": n % 7,
                "worms_requeued": n % 13,
                "streams_shed": n % 17,
                "hosts_isolated": n % 3,
                "host_downtime_cycles": n % 20000,
                "switch_downs": n % 9,
                "mean_switch_time_to_recover_cycles": (n % 5000) / 3.0,
            },
        },
    )


def restore_fixture(name: str, tmp_path) -> SweepCheckpoint:
    """A scratch copy of campaign ``name``'s committed checkpoint, opened
    with the CLI's metadata (a mismatch would discard every point)."""
    path = tmp_path / f"{name}.checkpoint.json"
    shutil.copy(FIXTURES / f"{name}.checkpoint.json", path)
    return SweepCheckpoint(path, meta=CLI_META[name])


def must_not_run(experiment):
    """A simulator stand-in for runs that must restore, not recompute."""
    raise AssertionError("restored points must not recompute")
