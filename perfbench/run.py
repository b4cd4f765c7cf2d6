"""MediaWorm simulator benchmark: end-to-end and per-layer numbers.

Run from the root of a source checkout (the simulator is imported from
its ``src/``)::

    python3 perfbench/run.py --workload switch_dense --seed 1 --seconds 35
    python3 perfbench/run.py --workload all --trace 1

``--trace 0`` repeats cold runs of the workload for ``--seconds`` and
reports the end-to-end metrics (medians over reps): ``wall_s``,
``setup_s``, ``flits_per_s`` and ``peak_rss_mb``.  ``--trace 1`` runs
the workload once untraced and once traced and reports the per-layer
split, the remainders no span covers, and the tracing overhead.  Every
run is gated for correctness (see ``harness.gate``); the last line of
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--workload all`` runs each workload in its own process,
so each peak-memory figure belongs to a process that ran only it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: name -> (unit, which way is better), in report order
END_TO_END = {
    "wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "flits_per_s": ("flits/s", "higher"),
    "peak_rss_mb": ("MiB", "lower"),
}

#: the loop profiler's phases, as named in ``RunMetrics.profile``
LOOP_PHASES = ("events", "links", "nis", "routers")


def _import_simulator():
    """Import the checkout's simulator, never an installed copy."""
    sys.path.insert(0, SRC)
    import repro

    where = os.path.dirname(os.path.abspath(repro.__file__))
    if os.path.commonpath([where, SRC]) != SRC:
        raise ImportError(f"repro imported from {where}, not from {SRC}")


def _median(values):
    values = [v for v in values if not math.isnan(v)]
    return statistics.median(values) if values else None


def end_to_end(reps):
    """Medians over the reps; peak memory as the first rep left it.

    Later reps can only add allocator history that a one-off run never
    has, so the first rep's peak is that of a process that ran the
    workload once.
    """
    timed = [r for r in reps if r.kind == "timed" and r.result is not None]
    return {
        "wall_s": _median([r.wall_s for r in timed]),
        "setup_s": _median([r.setup_s for r in reps]),
        "flits_per_s": _median([r.flits_per_s for r in timed]),
        "peak_rss_mb": _finite(reps[0].peak_rss_mb),
    }


def per_layer(plain, traced):
    """Per-layer numbers of a traced rep, each remainder made explicit.

    ``setup.*`` spans partition ``setup.total_s``; set-up, ``loop.run_s``,
    ``network.conservation_s``, ``metrics.snapshot_s`` and
    ``reduce.other_s`` partition ``traced.wall_s``.  ``loop.*`` phases
    partition ``loop.run_s`` (``loop.other_s`` is loop bookkeeping and
    clock jumps); ``metrics.on_message_s`` is nested inside the loop.
    Phase figures are None when the profiler could not be attached
    without changing the engine.
    """
    spans = traced.spans
    result = traced.result
    setup_parts = {
        "topology.build_s": spans.seconds("topology.build"),
        "network.wire_s": spans.seconds("network.wire"),
        "faults.install_s": spans.seconds("faults.install"),
        "traffic.build_s": spans.seconds("traffic.build"),
    }
    loop_s = spans.seconds("loop.run")
    reduce_parts = {
        "network.conservation_s": spans.seconds("network.conservation"),
        "metrics.snapshot_s": spans.seconds("metrics.snapshot"),
    }
    profile = result.metrics.profile
    layers = dict(setup_parts)
    layers["setup.other_s"] = traced.setup_s - sum(setup_parts.values())
    layers["setup.total_s"] = traced.setup_s
    layers["routeprog.compiles"] = traced.compiles
    layers["loop.run_s"] = loop_s
    for phase in LOOP_PHASES:
        layers[f"loop.{phase}_s"] = profile.get(f"loop_{phase}_s")
    if profile:
        executed = int(profile["loop_cycles_executed"])
        layers["loop.other_s"] = loop_s - profile["loop_total_s"]
        layers["loop.cycles_executed"] = executed
        layers["loop.cycles_skipped"] = result.cycles_run - executed
    else:
        layers["loop.other_s"] = None
        layers["loop.cycles_executed"] = None
        layers["loop.cycles_skipped"] = None
    layers["network.flits_ejected"] = result.flits_ejected
    layers["metrics.on_message_s"] = spans.seconds("metrics.on_message")
    layers["metrics.messages"] = spans.calls("metrics.on_message")
    layers.update(reduce_parts)
    layers["reduce.other_s"] = (
        traced.wall_s - traced.setup_s - loop_s - sum(reduce_parts.values())
    )
    fault_stats = result.fault_stats or {}
    layers["transport.retransmissions"] = fault_stats.get("retransmissions", 0)
    layers["health.reroutes"] = result.metrics.reroutes
    layers["health.streams_shed"] = result.metrics.streams_shed
    layers["traced.wall_s"] = traced.wall_s
    layers["tracing.overhead_s"] = traced.wall_s - plain.wall_s
    return layers


def _unit(name):
    if name in END_TO_END:
        return END_TO_END[name][0]
    return "s" if name.endswith("_s") else "count"


def _report(metrics):
    for name, value in metrics.items():
        shown = "unavailable" if value is None else f"{value:.6g}"
        print(f"  {name:<26s} {shown:>14s} {_unit(name)}")
    return {
        name: {"value": value, "unit": _unit(name)}
        for name, value in metrics.items()
    }


def run_workload(workload, seed, seconds, trace):
    """Run and gate ``workload``; returns the result object to print."""
    import harness

    seed = workload.default_seed if seed is None else seed
    if trace:
        plain, traced = harness.traced_pair(workload, seed)
        reps = [plain, traced]
    else:
        reps = harness.timed_reps(workload, seed, seconds)
    if not trace:
        metrics = end_to_end(reps)
    elif plain.result is not None and traced.result is not None:
        metrics = per_layer(plain, traced)
    else:
        metrics = {}
    failed = [r for r in reps if r.error is not None]
    print(f"{workload.name} seed={seed}: {len(reps)} reps, {len(failed)} failed")
    for rep in failed:
        print(f"  FAILED {rep.kind} rep: {rep.error}")
    reported = _report(metrics)
    record = harness.provenance(ROOT, workload, seed, reps[0])
    record["reps"] = [
        {
            "kind": r.kind,
            "wall_s": _finite(r.wall_s),
            "setup_s": _finite(r.setup_s),
            "digest": r.digest,
            "error": r.error,
        }
        for r in reps
    ]
    record["metrics"] = metrics
    if trace:
        record["spans"] = {
            name: {"seconds": seconds, "calls": calls, "parent": parent}
            for name, (seconds, calls, parent) in traced.spans.totals.items()
        }
    print("record " + json.dumps(record, sort_keys=True))
    return {
        "correct": not failed,
        "attempted": len(reps),
        "failed": len(failed),
        "metrics": reported,
    }


def _finite(value):
    return None if math.isnan(value) else value


def run_all(args):
    """Each workload in a child process of its own; metrics get its prefix."""
    from workloads import WORKLOADS

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name]
        argv += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.seed is not None:
            argv += ["--seed", str(args.seed)]
        child = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = child.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        if child.returncode != 0:
            raise SystemExit(f"{name}: exited with {child.returncode}")
        result = json.loads(lines[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = value
    return total


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument(
        "--seed", type=int, default=None,
        help="workload seed (default: each workload's pinned seed)",
    )
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        _import_simulator()
    except ImportError as exc:
        print(f"perfbench: cannot import the simulator: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload == "all":
        result = run_all(args)
    elif args.workload in WORKLOADS:
        result = run_workload(
            WORKLOADS[args.workload], args.seed, args.seconds, args.trace
        )
    else:
        parser.error(
            f"unknown workload {args.workload!r}; "
            f"choose from all, {', '.join(WORKLOADS)}"
        )
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
