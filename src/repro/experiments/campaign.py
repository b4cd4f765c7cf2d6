"""Robustness campaigns as data, and the one runner that executes them.

The paper evaluates MediaWorm on a fault-free fabric only.  The
beyond-paper campaigns (``mediaworm faults``, ``failover`` and
``disaster``) each sweep one failure axis for a few competing series —
schedulers, routing modes, topologies.  A :class:`Campaign` declares
such a sweep; :func:`run_campaign` expands it into checkpointed
:class:`~repro.experiments.parallel.SweepTask` s and assembles the
figure, and :func:`campaign_to_text` renders it as a terminal table.
The campaign modules hold only what is specific to them: the operating
point, the fault-plan construction, and the declaration.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, SimulationError
from repro.experiments.figures import FigureData, Point, get_profile
from repro.experiments.parallel import ParallelSweepExecutor, SweepTask
from repro.experiments.resilience import SweepCheckpoint
from repro.faults import FaultPlan, RecoveryConfig
from repro.metrics.collector import RunMetrics
from repro.network.health import HealthConfig

#: one table column: header, width, and the cell text of a point
Column = Tuple[str, int, Callable[[Point], str]]


def _same(value):
    return value


@dataclass(frozen=True)
class Campaign:
    """One robustness campaign, declared as data.

    Its points are the product of the ``series`` axes with the swept
    ``axis`` values.  Point ``(*series, value)`` becomes the experiment
    ``experiment(profile, *point)``, runs in the picklable module-level
    ``point`` function, and is checkpointed under
    ``key(*point, experiment)``.
    """

    #: subcommand, figure id, log prefix and checkpoint-file stem
    name: str
    #: one line for ``mediaworm list``
    description: str
    #: the sub-parser's line in ``mediaworm --help``
    help: str
    #: series axes; one series per combination, named ``a/b/...``
    series: Tuple[Sequence[str], ...]
    #: swept axis: the ``--<axis>`` flag and the checkpoint-meta field
    axis: str
    axis_help: str
    defaults: Tuple[Any, ...]
    #: one comma-list item -> value; raises ``ValueError``
    parse: Callable[[str], Any]
    #: raises :class:`~repro.errors.ConfigurationError` for a bad value
    validate: Callable[[Any], None]
    experiment: Callable[..., Any]
    point: Callable[[Any], Point]
    key: Callable[..., str]
    title: str
    xlabel: str
    notes: str
    #: header and width of the (left-aligned) series column
    series_column: Tuple[str, int]
    #: the point columns; a failed point shows only the first one
    columns: Tuple[Column, ...]
    #: value -> its checkpoint-meta entry
    meta: Callable[[Any], Any] = _same
    #: ``(*series, value) -> bool``: does this series run this value?
    applies: Optional[Callable[..., bool]] = None
    #: value -> the ``x`` of a failed point
    x: Callable[[Any], Any] = _same
    #: ``extra`` key under which a failed point records its value
    tag: Optional[str] = None


def column(header: str, width: int, key: str, spec: str = "", default=0):
    """A column showing ``extra[key]`` formatted with ``spec``; a
    ``health.<name>`` key reads one of the health monitor's counters."""
    group, _, name = key.rpartition(".")

    def cell(point: Point) -> str:
        values = (point.extra.get(group) or {}) if group else point.extra
        return format(values.get(name, default), spec)

    return (header, width, cell)


#: the paper's jitter metrics: mean and std of the delivery interval
JITTER_COLUMNS: Tuple[Column, ...] = (
    ("d (ms)", 8, lambda p: f"{p.d:.3f}"),
    ("sigma_d", 8, lambda p: f"{p.sigma_d:.3f}"),
)


def with_recovery(base, profile, faults: FaultPlan, mode: Optional[str] = None):
    """``base`` under ``faults``, recovery clocks scaled to its workload.

    The timeout runs from the header flit leaving the NI and must cover
    the message's own rate pacing (~message_size * vtick, a fifth of a
    frame interval) plus transit and contention; half an interval
    leaves ample slack without delaying loss detection much.  A routing
    ``mode`` adds the failover stack: health monitoring, more retries,
    and a QoS deadline of two intervals door-to-door (enough for a
    couple of retransmissions, strict enough that head-of-line stalls
    register as misses).  The watchdog allows two frame intervals of
    no progress, four under permanent failures; the profile's watchdog
    (``mediaworm --watchdog``) wins over both.
    """
    interval = base.workload_config().frame_interval_cycles
    failover = mode is not None
    recovery = RecoveryConfig(
        timeout=max(512, interval // 2),
        max_retries=8 if failover else 6,
        backoff_base=max(16, interval // 256),
        backoff_cap=max(64, interval // 16),
        qos_deadline=2 * interval if failover else None,
    )
    stack = dict(health=HealthConfig(), routing_mode=mode) if failover else {}
    return dataclasses.replace(
        base,
        faults=faults,
        recovery=recovery,
        watchdog_window=profile.watchdog_window
        or (4 if failover else 2) * interval,
        **stack,
    )


def _empty_metrics() -> RunMetrics:
    """Placeholder metrics for a point that failed every retry."""
    return RunMetrics(
        mean_delivery_interval_ms=0.0,
        std_delivery_interval_ms=0.0,
        frames_delivered=0,
        interval_count=0,
        be_latency_us=0.0,
        be_latency_us_paper_equivalent=0.0,
        be_latency_std_us=0.0,
        be_message_count=0,
    )


def point_to_dict(point: Point) -> Dict:
    """A sweep point as JSON-serialisable primitives (checkpoints, export)."""
    return dataclasses.asdict(point)


def point_from_dict(data: Dict) -> Point:
    """Rebuild a point written by :func:`point_to_dict`."""
    return Point(
        x=data["x"],
        metrics=RunMetrics(**data["metrics"]),
        extra=dict(data.get("extra") or {}),
    )


def campaign_values(campaign: Campaign, values=None) -> tuple:
    """The swept values (default: the campaign's), each checked once.

    Raises :class:`~repro.errors.ConfigurationError` for an out-of-range
    value or a value given twice (two values with one checkpoint
    encoding would share a point key).
    """
    values = campaign.defaults if values is None else tuple(values)
    seen = set()
    for value in values:
        campaign.validate(value)
        encoded = campaign.meta(value)
        if encoded in seen:
            raise ConfigurationError(
                f"{campaign.axis} lists {encoded} more than once"
            )
        seen.add(encoded)
    return values


def parse_axis(campaign: Campaign, text: Optional[str]) -> tuple:
    """Parse a ``--<axis>`` comma list; bad input exits with a message."""
    values = None
    if text:
        try:
            values = tuple(
                campaign.parse(item) for item in text.split(",") if item.strip()
            )
        except ValueError as exc:
            raise SystemExit(
                f"--{campaign.axis} must be a comma-separated list, "
                f"got {text!r} ({exc})"
            )
        if not values:
            raise SystemExit(f"--{campaign.axis} lists no values")
    try:
        return campaign_values(campaign, values)
    except ConfigurationError as exc:
        raise SystemExit(f"--{campaign.axis}: {exc}")


def run_campaign(
    campaign: Campaign,
    profile="default",
    values: Optional[Sequence] = None,
    checkpoint: Optional[SweepCheckpoint] = None,
    log=None,
    executor: Optional[ParallelSweepExecutor] = None,
) -> FigureData:
    """Run every point of ``campaign`` and assemble its figure.

    With a ``checkpoint``, every completed point is persisted and a
    rerun with the same metadata skips straight past it; a point that
    keeps failing after the resilient retries records a ``failed`` extra
    instead of aborting the campaign.  An ``executor`` with ``jobs > 1``
    farms the points out to a process pool; results are bit-identical
    to the serial path (each point seeds its own RNG streams).
    """
    profile = get_profile(profile)
    values = campaign_values(campaign, values)
    if executor is None:
        executor = ParallelSweepExecutor(jobs=1, log=log)
    series: Dict[str, List[str]] = {}
    value_of: Dict[str, Any] = {}
    tasks: List[SweepTask] = []
    for combo in itertools.product(*campaign.series):
        keys = series.setdefault("/".join(combo), [])
        for value in values:
            if campaign.applies and not campaign.applies(*combo, value):
                continue
            experiment = campaign.experiment(profile, *combo, value)
            key = campaign.key(*combo, value, experiment)
            keys.append(key)
            value_of[key] = value
            tasks.append(
                SweepTask(key=key, runner=campaign.point, experiment=experiment)
            )
    if checkpoint is not None and log is not None:
        for task in tasks:
            if task.key in checkpoint:
                log(f"[{campaign.name}] {task.key}: restored from checkpoint")

    failed: Dict[str, Point] = {}

    def on_failure(task: SweepTask, exc: SimulationError) -> None:
        value = value_of[task.key]
        extra = {"failed": f"{type(exc).__name__}: {exc}"}
        if campaign.tag is not None:
            extra[campaign.tag] = value
        point = Point(campaign.x(value), _empty_metrics(), extra=extra)
        failed[task.key] = point
        if checkpoint is not None:
            checkpoint.put(task.key, point_to_dict(point))
        if log is not None:
            log(f"[{campaign.name}] {task.key}: FAILED ({type(exc).__name__})")

    results = executor.run(
        tasks,
        checkpoint=checkpoint,
        encode=point_to_dict,
        decode=point_from_dict,
        on_failure=on_failure,
    )
    return FigureData(
        figure_id=campaign.name,
        title=campaign.title,
        xlabel=campaign.xlabel,
        series={
            name: [results.get(key) or failed[key] for key in keys]
            for name, keys in series.items()
        },
        notes=campaign.notes,
    )


def campaign_to_text(campaign: Campaign, fig: FigureData) -> str:
    """Render a campaign's figure as an aligned terminal table."""
    name_header, name_width = campaign.series_column

    def row(name: str, cells) -> str:
        return " ".join([f"{name:<{name_width}}", *cells])

    header = row(name_header, (f"{h:>{w}}" for h, w, _ in campaign.columns))
    lines = [fig.title, header, "-" * len(header)]
    for name, points in fig.series.items():
        for point in points:
            failed = "failed" in point.extra
            shown = campaign.columns[:1] if failed else campaign.columns
            cells = [f"{cell(point):>{w}}" for _, w, cell in shown]
            if failed:
                cells.append(f"FAILED: {point.extra['failed']}")
            lines.append(row(name, cells))
    if fig.notes:
        lines.append(f"({fig.notes})")
    return "\n".join(lines)
