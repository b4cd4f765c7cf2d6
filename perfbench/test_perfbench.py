"""The benchmark's own tests: output shape, gate, and contract.

Run from the repository root with ``python3 -m pytest perfbench``.
Each workload is shrunk to a sub-second shape of the same kind; the
pinned digests belong to the full shapes, so tiny runs pin none.
"""

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

import harness
import run
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)

TINY = {
    "switch_dense": lambda seed: dataclasses.replace(
        workloads.switch_dense(seed), scale=100.0
    ),
    "fattree_1024": lambda seed: dataclasses.replace(
        workloads.fattree_1024(seed), k=4
    ),
    "fatmesh_faulted": lambda seed: workloads.fatmesh_faulted(seed, scale=100.0),
}


def tiny(name, **changes):
    workload = workloads.WORKLOADS[name]
    changes = {"build": TINY[name], "digests": {}, **changes}
    return dataclasses.replace(workload, **changes)


def _metrics_shape(result, expected):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_spec_names_workloads_and_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == {
        name: unit for name, (unit, _) in run.END_TO_END.items()
    }


@pytest.mark.parametrize("name", list(TINY))
def test_tiny_timed_run_shape(name):
    result = run.run_workload(tiny(name), 3, seconds=0, trace=0)
    _metrics_shape(result, SPEC["end_to_end"])
    assert result["correct"] and result["failed"] == 0
    # one timed rep, then set-up probes up to the sample count
    assert result["attempted"] == harness.SETUP_SAMPLES
    for metric in result["metrics"].values():
        assert metric["value"] > 0


@pytest.mark.parametrize("name", list(TINY))
def test_tiny_traced_run_shape_and_accounting(name):
    workload = tiny(name)
    result = run.run_workload(workload, 3, seconds=0, trace=1)
    _metrics_shape(result, SPEC["per_layer"])
    assert result["correct"] and result["attempted"] == 2
    layers = {k: v["value"] for k, v in result["metrics"].items()}
    setup = sum(
        layers[k]
        for k in ("topology.build_s", "network.wire_s", "faults.install_s",
                  "traffic.build_s", "setup.other_s")
    )
    assert math.isclose(setup, layers["setup.total_s"])
    wall = (
        layers["setup.total_s"] + layers["loop.run_s"]
        + layers["network.conservation_s"] + layers["metrics.snapshot_s"]
        + layers["reduce.other_s"]
    )
    assert math.isclose(wall, layers["traced.wall_s"])
    phases = sum(
        layers[f"loop.{phase}_s"] for phase in run.LOOP_PHASES + ("other",)
    )
    assert math.isclose(phases, layers["loop.run_s"])
    assert layers["routeprog.compiles"] == workload.compiles
    assert layers["loop.cycles_executed"] + layers["loop.cycles_skipped"] == (
        workload.build(3).total_cycles
    )
    assert layers["metrics.messages"] > 0


def test_faulted_workload_exercises_failover():
    plain, traced = harness.traced_pair(tiny("fatmesh_faulted"), 3)
    layers = run.per_layer(plain, traced)
    assert layers["health.reroutes"] > 0
    assert layers["transport.retransmissions"] > 0


@pytest.mark.parametrize("trace", [0, 1])
def test_planted_digest_mismatch_counts_as_failed(trace):
    workload = tiny("switch_dense", digests={3: "0" * 64})
    result = run.run_workload(workload, 3, seconds=0, trace=trace)
    assert not result["correct"]
    assert result["failed"] >= 1


def test_planted_property_miss_counts_as_failed():
    workload = tiny("switch_dense", check=lambda result: "planted miss")
    result = run.run_workload(workload, 3, seconds=0, trace=0)
    assert not result["correct"] and result["failed"] == 1


def test_exception_counts_as_failed():
    def broken(seed):
        return dataclasses.replace(TINY["switch_dense"](seed), load=-1.0)

    result = run.run_workload(
        tiny("switch_dense", build=broken), 3, seconds=0, trace=0
    )
    assert not result["correct"] and result["failed"] == 1


def test_profiler_never_relabels_a_fused_run():
    """The loop profiler would force the array engine onto the object
    loop, so a fused run reports no phase split instead of another's."""

    def fused(seed):
        return dataclasses.replace(TINY["switch_dense"](seed), engine="array")

    plain, traced = harness.traced_pair(tiny("switch_dense", build=fused), 3)
    assert plain.error is None and traced.error is None
    assert (plain.engine, traced.engine) == ("array", "array")
    layers = run.per_layer(plain, traced)
    assert layers["loop.routers_s"] is None
    assert layers["loop.cycles_executed"] is None


def test_without_the_simulator_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "perfbench"),
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    child = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "switch_dense",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert child.returncode != 0
    assert '"correct"' not in child.stdout
