"""Timed and traced runs of one workload through the public runners.

A *rep* is one call of the workload's ``simulate_*`` runner in this
process, with the runner's topology cache emptied first so set-up is
cold (topology build and route compile included), as in a one-off CLI
run.  The only instrument on a timed rep is the experiment's
``network_hook``, which the runner calls once everything is wired: it
marks the end of set-up and times ``Network.run``.

A *traced* rep additionally wraps, for its duration, the functions the
runner calls into each layer (topology, network wiring, fault/health
install, workload build, metrics collector, conservation audit) and
attaches the runner's own ``LoopProfiler`` -- unless the profiler would
change which engine runs.  It wraps the runner's calls instead of
copying its wiring, so it measures the code users run.

Every rep passes through the correctness gate (:func:`gate`).
"""

from __future__ import annotations

import copy
import dataclasses
import gc
import os
import resource
import sys
import traceback
from contextlib import contextmanager, nullcontext
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from repro.experiments import runner
from repro.experiments.scale import run_digest
from repro.router import routeprog
from repro.sim.engine import DEFAULT_ENGINE, ENGINE_ARRAY

#: set-up samples per timed run; full reps count, probes top them up
SETUP_SAMPLES = 5


class _SetupDone(Exception):
    """Raised by a set-up probe's hook to stop the runner before the loop."""


class Spans:
    """Wall-time spans keyed by name: total seconds, calls, parent span."""

    def __init__(self) -> None:
        self.totals: Dict[str, List] = {}
        self._stack: List[str] = []

    def wrap(self, name: str, fn):
        def spanned(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            self._stack.append(name)
            started = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - started
                self._stack.pop()
                entry = self.totals.setdefault(name, [0.0, 0, parent])
                entry[0] += elapsed
                entry[1] += 1

        return spanned

    def seconds(self, name: str) -> float:
        return self.totals.get(name, (0.0,))[0]

    def calls(self, name: str) -> int:
        return self.totals.get(name, (0.0, 0))[1]


@contextmanager
def traced_runner(spans: Spans):
    """Span every call the runner makes into a layer, then restore it."""
    collector = runner.MetricsCollector

    class TracedCollector(collector):
        on_message = spans.wrap("metrics.on_message", collector.on_message)
        snapshot = spans.wrap("metrics.snapshot", collector.snapshot)

    patches = {
        "_cached_topology": spans.wrap(
            "topology.build", runner._cached_topology
        ),
        "Network": spans.wrap("network.wire", runner.Network),
        "_install_extras": spans.wrap("faults.install", runner._install_extras),
        "build_workload": spans.wrap("traffic.build", runner.build_workload),
        "MetricsCollector": TracedCollector,
    }
    saved = {name: getattr(runner, name) for name in patches}
    try:
        for name, value in patches.items():
            setattr(runner, name, value)
        yield
    finally:
        for name, value in saved.items():
            setattr(runner, name, value)


def engine_ran(network) -> Tuple[str, Optional[str]]:
    """The engine whose loop advanced ``network``, and why it fell back."""
    if network._legacy_loop:
        return "legacy", "REPRO_LEGACY_LOOP=1"
    impl = network._engine_impl
    if impl is not None:
        reason = impl.fallback_reason()
        return (impl.name, None) if reason is None else ("object", reason)
    return network._engine_name, None


@dataclasses.dataclass
class Rep:
    """One runner call: timings, gate outcome, and what ran."""

    kind: str  # "timed", "probe" or "traced"
    wall_s: float = float("nan")
    setup_s: float = float("nan")
    run_s: float = float("nan")
    flits_ejected: int = 0
    #: the process's peak resident memory when the rep ended, MiB
    peak_rss_mb: float = float("nan")
    #: route programs compiled during the rep
    compiles: int = 0
    digest: Optional[str] = None
    engine: Optional[str] = None
    fallback_reason: Optional[str] = None
    error: Optional[str] = None
    result: object = None
    spans: Optional[Spans] = None

    @property
    def flits_per_s(self) -> float:
        return self.flits_ejected / self.run_s


def run_rep(workload, experiment, kind: str = "timed", profile=True) -> Rep:
    """One cold runner call of ``experiment``; ``kind`` picks the instruments.

    ``probe`` stops the runner once set-up is done; ``traced`` spans the
    runner's layer calls and, when ``profile`` is true, attaches the
    loop profiler.  The rep is gated before it is returned.
    """
    spans = Spans()
    marks: Dict[str, object] = {}

    def hook(network):
        marks["setup_end"] = perf_counter()
        marks["network"] = network
        if kind == "probe":
            raise _SetupDone
        network.run = spans.wrap("loop.run", network.run)
        if kind == "traced":
            network.check_conservation = spans.wrap(
                "network.conservation", network.check_conservation
            )

    if kind == "traced" and profile:
        experiment = dataclasses.replace(experiment, profile_loop=True)
    experiment = copy.copy(experiment)
    experiment.network_hook = hook
    rep = Rep(kind=kind, spans=spans)
    gc.collect()
    runner._TOPOLOGY_CACHE.clear()
    builds = runner.TOPOLOGY_BUILDS
    compiles = routeprog.compile_count()
    try:
        with traced_runner(spans) if kind == "traced" else nullcontext():
            started = perf_counter()
            try:
                rep.result = workload.runner(experiment)
            except _SetupDone:
                pass
            rep.wall_s = perf_counter() - started
        rep.peak_rss_mb = peak_rss_mb()
    except Exception:  # a failed run is counted, never fatal
        rep.error = traceback.format_exc(limit=4).strip().splitlines()[-1]
        traceback.print_exc(file=sys.stderr)
        return rep
    rep.setup_s = marks["setup_end"] - started
    builds = runner.TOPOLOGY_BUILDS - builds
    rep.compiles = routeprog.compile_count() - compiles
    if builds != 1 or rep.compiles != workload.compiles:
        rep.error = (
            f"set-up not cold: {builds} topology builds, {rep.compiles} "
            f"route compiles (expected 1 and {workload.compiles})"
        )
    # the result's experiment keeps the hook, so let go of the network
    rep.engine, rep.fallback_reason = engine_ran(marks.pop("network"))
    if rep.result is not None:
        rep.run_s = spans.seconds("loop.run")
        rep.flits_ejected = rep.result.flits_ejected
        rep.digest = run_digest(_without_profile(rep.result))
        rep.error = rep.error or gate(workload, experiment.seed, rep)
        # drop the live workload, and with it the network, so reps kept
        # for reporting do not add up in the process's peak memory
        rep.result = rep.result.portable()
    return rep


def _without_profile(result):
    """``result`` minus the profiler's wall times (not simulation output)."""
    metrics = dataclasses.replace(result.metrics, profile={})
    return dataclasses.replace(result, metrics=metrics)


def gate(workload, seed: int, rep: Rep) -> Optional[str]:
    """None if the rep's output is correct, else why it is not."""
    pinned = workload.digests.get(seed)
    if pinned is not None and rep.digest != pinned:
        return f"digest {rep.digest} != pinned {pinned} at seed {seed}"
    return workload.check(rep.result)


def timed_reps(workload, seed: int, seconds: float) -> List[Rep]:
    """Timed reps for ``seconds``, then set-up probes up to SETUP_SAMPLES.

    A rep starts only if the previous one's duration still fits in the
    budget, so a run overshoots ``seconds`` by less than one rep; there
    is always at least one.  Every completed rep must reproduce the
    first one's digest.
    """
    experiment = workload.build(seed)
    reps: List[Rep] = []
    started = perf_counter()
    while True:
        rep = run_rep(workload, experiment)
        if rep.error is None and reps and rep.digest != reps[0].digest:
            rep.error = f"digest {rep.digest} differs from first rep's"
        reps.append(rep)
        elapsed = perf_counter() - started
        if rep.error is not None or elapsed + rep.wall_s > seconds:
            break
    while len(reps) < SETUP_SAMPLES and all(r.error is None for r in reps):
        reps.append(run_rep(workload, experiment, kind="probe"))
    return reps


def traced_pair(workload, seed: int) -> Tuple[Rep, Rep]:
    """An untraced rep and a traced rep of the same experiment.

    The loop profiler is attached only if it leaves the engine as it
    was: it forces the fused array engine onto the object loop, so a
    run that went fused untraced gets no phase split rather than the
    split of another engine.
    """
    experiment = workload.build(seed)
    plain = run_rep(workload, experiment)
    profile = plain.engine != ENGINE_ARRAY
    traced = run_rep(workload, experiment, kind="traced", profile=profile)
    if traced.error is None and plain.error is None:
        if traced.digest != plain.digest:
            traced.error = (
                f"traced digest {traced.digest} != untraced {plain.digest}"
            )
        elif traced.engine != plain.engine:
            traced.error = (
                f"tracing changed the engine: {plain.engine} -> {traced.engine}"
            )
    return plain, traced


def peak_rss_mb() -> float:
    """Peak resident set of this process, MiB (``ru_maxrss`` is KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def provenance(root: str, workload, seed: int, rep: Rep) -> Dict[str, object]:
    """How the numbers were produced: engine, seed, code and host."""
    experiment = workload.build(seed)
    return {
        "workload": workload.name,
        "seed": seed,
        "engine_default": DEFAULT_ENGINE,
        "engine_requested": experiment.engine,
        "engine_ran": rep.engine,
        "fallback_reason": rep.fallback_reason,
        "git_sha": git_sha(root),
        "python": sys.version.split()[0],
        "cpu_count": os.cpu_count(),
    }


def git_sha(root: str) -> str:
    """HEAD of the checkout at ``root``, read from ``.git`` without git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, *ref.split("/"))
        if os.path.exists(path):
            with open(path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"
