"""Sweep runners regenerating every figure of the paper's evaluation.

Each ``run_figN`` function performs the paper's parameter sweep and
returns a :class:`FigureData` whose series carry the same quantities the
figure plots (mean delivery interval ``d`` and its standard deviation
``sigma_d`` in ms, plus best-effort latency where the figure shows it).

Every runner accepts a :class:`RunProfile` controlling the workload
scale and measurement horizon:

* ``quick``   — smallest run that still shows the shape (CI/tests);
* ``default`` — the benchmark setting: scale 20, a ~0.5 s simulated
  window, minutes of wall time for the full suite;
* ``full``    — paper-faithful time constants (scale 1); hours.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.schedulers import SchedulingPolicy
from repro.experiments.config import (
    FatMeshExperiment,
    PCSExperiment,
    SingleSwitchExperiment,
)
from repro.experiments.parallel import SweepTask, execute_tasks
from repro.experiments.runner import (
    ExperimentResult,
    PCSResult,
    simulate_fat_mesh,
    simulate_pcs,
    simulate_single_switch,
)
from repro.metrics.collector import RunMetrics
from repro.router.config import CrossbarKind
from repro.router.flit import TrafficClass


@dataclass(frozen=True)
class RunProfile:
    """Workload scale and horizon for a sweep."""

    name: str
    scale: float
    warmup_frames: int
    measure_frames: int
    seed: int = 1
    #: progress watchdog applied to every experiment of the sweep
    #: (None = each sweep's own default; ``mediaworm --watchdog`` sets it)
    watchdog_window: Optional[int] = None
    #: simulation engine applied to every experiment of the sweep
    #: (None = the experiment default; ``mediaworm --engine`` sets it)
    engine: Optional[str] = None


PROFILES: Dict[str, RunProfile] = {
    # CI-sized: the smallest run that still exercises warmup + measure
    "smoke": RunProfile("smoke", scale=100.0, warmup_frames=1, measure_frames=2),
    "quick": RunProfile("quick", scale=40.0, warmup_frames=2, measure_frames=4),
    "default": RunProfile(
        "default", scale=20.0, warmup_frames=3, measure_frames=8
    ),
    "full": RunProfile("full", scale=1.0, warmup_frames=4, measure_frames=16),
}

#: load points used by the single-switch sweeps (Figs. 3-6)
DEFAULT_LOADS: Tuple[float, ...] = (0.6, 0.7, 0.8, 0.9, 0.96)
#: load points of the Fig. 6 sweep (starts at 0.5 like the paper's plot)
FIG6_LOADS: Tuple[float, ...] = (0.5, 0.6, 0.7, 0.8, 0.9, 0.96)
#: the two representative loads of the Fig. 7 message-size study
FIG7_LOADS: Tuple[float, ...] = (0.64, 0.80)
#: load points of the PCS comparison (Fig. 8)
FIG8_LOADS: Tuple[float, ...] = (0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
#: load points of the fat-mesh study (Fig. 9)
FIG9_LOADS: Tuple[float, ...] = (0.7, 0.8, 0.9)


def get_profile(profile) -> RunProfile:
    """Resolve a profile name or pass a RunProfile through."""
    if isinstance(profile, RunProfile):
        return profile
    return PROFILES[profile]


@dataclass
class Point:
    """One sweep point: the x value and its run metrics."""

    x: object
    metrics: RunMetrics
    extra: Dict = field(default_factory=dict)

    @property
    def d(self) -> float:
        return self.metrics.mean_delivery_interval_ms

    @property
    def sigma_d(self) -> float:
        return self.metrics.std_delivery_interval_ms

    @property
    def be_latency_us(self) -> float:
        return self.metrics.be_latency_us


@dataclass
class FigureData:
    """A reproduced figure: named series of sweep points."""

    figure_id: str
    title: str
    xlabel: str
    series: Dict[str, List[Point]]
    notes: str = ""

    def series_names(self) -> List[str]:
        return list(self.series)

    def rows(self) -> List[Tuple]:
        """Flat (series, x, d, sigma_d, be_latency) tuples for reports."""
        out = []
        for name, points in self.series.items():
            for p in points:
                out.append((name, p.x, p.d, p.sigma_d, p.be_latency_us))
        return out


def _base_kwargs(profile: RunProfile) -> Dict:
    kwargs = dict(
        scale=profile.scale,
        warmup_frames=profile.warmup_frames,
        measure_frames=profile.measure_frames,
        seed=profile.seed,
    )
    if profile.watchdog_window is not None:
        kwargs["watchdog_window"] = profile.watchdog_window
    if profile.engine is not None:
        kwargs["engine"] = profile.engine
    return kwargs


def _grid(
    series: Dict[str, object],
    xs: Sequence,
    build,
    executor,
    runner=simulate_single_switch,
    label=lambda x: f"{x:g}",
) -> Dict[str, List[Point]]:
    """One run of ``build(value, x)`` per series ``name: value`` and x.

    Returns the figure's series: a :class:`Point` of run metrics per x,
    in ``xs`` order (task keys are ``name@label(x)``).
    """
    keys = {(name, x): f"{name}@{label(x)}" for name in series for x in xs}
    tasks = [
        SweepTask(key=key, runner=runner, experiment=build(series[name], x))
        for (name, x), key in keys.items()
    ]
    results = execute_tasks(tasks, executor)
    return {
        name: [Point(x, results[keys[name, x]].metrics) for x in xs]
        for name in series
    }


# ----------------------------------------------------------------------
# Figure 3 — Virtual Clock vs FIFO (16 VCs, 80:20 mix)


def run_fig3(
    profile="default",
    loads: Optional[Sequence[float]] = None,
    executor=None,
) -> FigureData:
    """MediaWorm's headline result: rate-based scheduling removes jitter.

    The same 80:20 VBR/best-effort workload is offered to a 16-VC
    multiplexed-crossbar router whose multiplexers run FIFO (a
    conventional wormhole router) and Virtual Clock (MediaWorm).
    """
    profile = get_profile(profile)
    loads = DEFAULT_LOADS if loads is None else loads
    policies = (SchedulingPolicy.VIRTUAL_CLOCK, SchedulingPolicy.FIFO)
    series = _grid(
        {policy: policy for policy in policies},
        loads,
        lambda policy, load: SingleSwitchExperiment(
            load=load,
            mix=(80, 20),
            scheduler=policy,
            vcs_per_pc=16,
            **_base_kwargs(profile),
        ),
        executor,
    )
    return FigureData(
        figure_id="fig3",
        title="Virtual Clock vs FIFO (16 VCs, 80:20 mix)",
        xlabel="input link load",
        series=series,
    )


# ----------------------------------------------------------------------
# Figure 4 — CBR vs VBR (no best-effort traffic)


def run_fig4(
    profile="default",
    loads: Optional[Sequence[float]] = None,
    executor=None,
) -> FigureData:
    """CBR and VBR compared head-to-head with no best-effort component."""
    profile = get_profile(profile)
    loads = DEFAULT_LOADS if loads is None else loads
    classes = (TrafficClass.VBR, TrafficClass.CBR)
    series = _grid(
        {rt_class: rt_class for rt_class in classes},
        loads,
        lambda rt_class, load: SingleSwitchExperiment(
            load=load,
            mix=(100, 0),
            rt_class=rt_class,
            vcs_per_pc=16,
            **_base_kwargs(profile),
        ),
        executor,
    )
    return FigureData(
        figure_id="fig4",
        title="CBR vs VBR traffic (16 VCs, 400 Mbps links)",
        xlabel="input link load",
        series=series,
    )


# ----------------------------------------------------------------------
# Figure 5 / Table 2 — traffic mixes


DEFAULT_MIXES: Tuple[Tuple[float, float], ...] = (
    (20, 80),
    (50, 50),
    (80, 20),
    (90, 10),
    (100, 0),
)


def run_mixed_grid(
    profile="default",
    loads: Optional[Sequence[float]] = None,
    mixes: Optional[Sequence[Tuple[float, float]]] = None,
    executor=None,
) -> Dict[Tuple[Tuple[float, float], float], ExperimentResult]:
    """The (mix x load) grid shared by Fig. 5 and Table 2."""
    profile = get_profile(profile)
    loads = DEFAULT_LOADS if loads is None else loads
    mixes = DEFAULT_MIXES if mixes is None else mixes
    tasks = [
        SweepTask(
            key=f"{mix[0]:g}:{mix[1]:g}@{load:g}",
            runner=simulate_single_switch,
            experiment=SingleSwitchExperiment(
                load=load,
                mix=tuple(mix),
                vcs_per_pc=16,
                **_base_kwargs(profile),
            ),
        )
        for mix in mixes
        for load in loads
    ]
    results = execute_tasks(tasks, executor)
    return {
        (tuple(mix), load): results[f"{mix[0]:g}:{mix[1]:g}@{load:g}"]
        for mix in mixes
        for load in loads
    }


def run_fig5(
    profile="default",
    loads: Optional[Sequence[float]] = None,
    mixes: Optional[Sequence[Tuple[float, float]]] = None,
    grid: Optional[Dict] = None,
    executor=None,
) -> FigureData:
    """VBR jitter across traffic mixes: one series per input load."""
    loads = DEFAULT_LOADS if loads is None else loads
    mixes = DEFAULT_MIXES if mixes is None else mixes
    if grid is None:
        grid = run_mixed_grid(profile, loads, mixes, executor=executor)
    series: Dict[str, List[Point]] = {}
    for load in loads:
        points = []
        for mix in mixes:
            key = (tuple(mix), load)
            result = grid[key]
            label = f"{mix[0]:g}:{mix[1]:g}"
            points.append(Point(label, result.metrics))
        series[f"load={load:g}"] = points
    return FigureData(
        figure_id="fig5",
        title="Mixed traffic (16 VCs): jitter vs real-time proportion",
        xlabel="real-time : best-effort mix",
        series=series,
    )


# ----------------------------------------------------------------------
# Figure 6 — VC count and crossbar capability


def run_fig6(
    profile="default",
    loads: Optional[Sequence[float]] = None,
    executor=None,
) -> FigureData:
    """More VCs vs a full crossbar with few VCs (100:0 traffic)."""
    profile = get_profile(profile)
    loads = FIG6_LOADS if loads is None else loads
    configs = (
        ("16 VCs, multiplexed", 16, CrossbarKind.MULTIPLEXED),
        ("8 VCs, multiplexed", 8, CrossbarKind.MULTIPLEXED),
        ("4 VCs, multiplexed", 4, CrossbarKind.MULTIPLEXED),
        ("4 VCs, full crossbar", 4, CrossbarKind.FULL),
    )
    series = _grid(
        {label: (vcs, crossbar) for label, vcs, crossbar in configs},
        loads,
        lambda config, load: SingleSwitchExperiment(
            load=load,
            mix=(100, 0),
            vcs_per_pc=config[0],
            crossbar=config[1],
            **_base_kwargs(profile),
        ),
        executor,
    )
    return FigureData(
        figure_id="fig6",
        title="Impact of VCs and crossbar capability (100:0)",
        xlabel="input link load",
        series=series,
    )


# ----------------------------------------------------------------------
# Figure 7 — message size


def run_fig7(
    profile="default",
    loads: Optional[Sequence[float]] = None,
    message_sizes: Optional[Sequence[int]] = None,
    executor=None,
) -> FigureData:
    """Effect of message size on VBR jitter, with header overhead.

    Each message carries one header flit, so small messages spend a
    larger wire-bandwidth fraction on headers (1/20 = 5% at the paper's
    default size) — the overhead visible at the left edge of Fig. 7.
    The top of the paper's range (2560 flits, i.e. more than a whole
    frame in one wormhole message) is scaled along with the workload.
    """
    profile = get_profile(profile)
    loads = FIG7_LOADS if loads is None else loads
    if message_sizes is None:
        # Paper sweep: 20, 40, 80, 160, 2560 flits at scale 1.  The
        # largest size is meaningful only relative to the frame size
        # (4167 flits), so it scales with the workload.
        top = max(40, int(2560 / profile.scale))
        message_sizes = tuple(sorted({10, 20, 40, 80, 160, top}))
    series = _grid(
        {f"load={load:g}": load for load in loads},
        message_sizes,
        lambda load, size: SingleSwitchExperiment(
            load=load,
            mix=(100, 0),
            vcs_per_pc=16,
            message_size=size,
            header_flits=1,
            **_base_kwargs(profile),
        ),
        executor,
    )
    return FigureData(
        figure_id="fig7",
        title="Effect of message size on jitter (16 VCs)",
        xlabel="message size (flits)",
        series=series,
        notes="one header flit per message; sizes above the scaled frame "
        "size collapse a frame into a single wormhole message",
    )


# ----------------------------------------------------------------------
# Figure 8 — MediaWorm vs PCS (100 Mbps, 24 VCs)


def run_fig8(
    profile="default",
    loads: Optional[Sequence[float]] = None,
    executor=None,
) -> FigureData:
    """Wormhole (MediaWorm) against the connection-oriented PCS router."""
    profile = get_profile(profile)
    loads = FIG8_LOADS if loads is None else loads
    tasks = [
        SweepTask(
            key=f"wormhole@{load:g}",
            runner=simulate_single_switch,
            experiment=SingleSwitchExperiment(
                load=load,
                mix=(100, 0),
                bandwidth_mbps=100.0,
                vcs_per_pc=24,
                **_base_kwargs(profile),
            ),
        )
        for load in loads
    ] + [
        SweepTask(
            key=f"pcs@{load:g}",
            runner=simulate_pcs,
            experiment=PCSExperiment(load=load, **_base_kwargs(profile)),
        )
        for load in loads
    ]
    results = execute_tasks(tasks, executor)
    series: Dict[str, List[Point]] = {"wormhole": [], "pcs": []}
    for load in loads:
        wh = results[f"wormhole@{load:g}"]
        series["wormhole"].append(Point(load, wh.metrics))
        pcs = results[f"pcs@{load:g}"]
        series["pcs"].append(
            Point(
                load,
                pcs.metrics,
                extra={
                    "attempts": pcs.connections.attempts,
                    "established": pcs.connections.established,
                    "dropped": pcs.connections.dropped,
                },
            )
        )
    return FigureData(
        figure_id="fig8",
        title="MediaWorm vs PCS (8x8 switch, 100 Mbps, 24 VCs)",
        xlabel="input link load",
        series=series,
        notes="PCS points accept only the connections that survived "
        "setup; wormhole accepts every stream",
    )


# ----------------------------------------------------------------------
# Figure 9 — 2x2 fat mesh


DEFAULT_FAT_MESH_MIXES: Tuple[Tuple[float, float], ...] = (
    (40, 60),
    (60, 40),
    (80, 20),
)


def run_fig9(
    profile="default",
    loads: Optional[Sequence[float]] = None,
    mixes: Optional[Sequence[Tuple[float, float]]] = None,
    executor=None,
) -> FigureData:
    """The 2x2 fat mesh: jitter and best-effort latency across mixes."""
    profile = get_profile(profile)
    loads = FIG9_LOADS if loads is None else loads
    mixes = DEFAULT_FAT_MESH_MIXES if mixes is None else mixes
    mix_of = {f"{mix[0]:g}:{mix[1]:g}": tuple(mix) for mix in mixes}
    series = _grid(
        {f"load={load:g}": load for load in loads},
        tuple(mix_of),
        lambda load, label: FatMeshExperiment(
            load=load,
            mix=mix_of[label],
            vcs_per_pc=16,
            **_base_kwargs(profile),
        ),
        executor,
        runner=simulate_fat_mesh,
        label=str,
    )
    return FigureData(
        figure_id="fig9",
        title="(2x2) fat mesh: jitter and best-effort latency",
        xlabel="real-time : best-effort mix",
        series=series,
    )


#: registry used by the CLI and the benchmarks
FIGURES = {
    "fig3": run_fig3,
    "fig4": run_fig4,
    "fig5": run_fig5,
    "fig6": run_fig6,
    "fig7": run_fig7,
    "fig8": run_fig8,
    "fig9": run_fig9,
}
