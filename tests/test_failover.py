"""The failover campaign and the checkpoint-key fingerprint."""

import dataclasses

import pytest

from campaign_fakes import CLI_VALUES, must_not_run, restore_fixture

from repro.errors import ConfigurationError, SimulationError
from repro.experiments import failover
from repro.experiments.campaign import campaign_to_text, run_campaign
from repro.experiments.config import FatMeshExperiment
from repro.experiments.failover import (
    CAMPAIGN,
    CAMPAIGN_MODES,
    _campaign_experiment,
    _fat_pair_windows,
    _point_key,
)
from repro.experiments.faultsweep import _point_key as fault_point_key
from repro.experiments.figures import get_profile
from repro.experiments.parallel import sweep_fingerprint
from repro.experiments.resilience import SweepCheckpoint
from repro.experiments.runner import ExperimentResult
from repro.metrics.collector import RunMetrics
from repro.network.health import HealthConfig
from repro.faults import RecoveryConfig
from repro.router.config import RoutingMode


class TestSweepFingerprint:
    def test_default_experiment_fingerprint_is_empty(self):
        assert sweep_fingerprint(FatMeshExperiment()) == ""

    def test_routing_mode_changes_the_fingerprint(self):
        experiment = FatMeshExperiment(routing_mode=RoutingMode.ADAPTIVE)
        assert "mode=adaptive" in sweep_fingerprint(experiment)

    def test_health_knobs_are_encoded(self):
        a = FatMeshExperiment(health=HealthConfig())
        b = FatMeshExperiment(health=HealthConfig(down_misses=9))
        assert sweep_fingerprint(a) != ""
        assert sweep_fingerprint(a) != sweep_fingerprint(b)

    def test_qos_deadline_is_encoded(self):
        experiment = FatMeshExperiment(
            recovery=RecoveryConfig(qos_deadline=4096)
        )
        assert "deadline=4096" in sweep_fingerprint(experiment)

    def test_fault_sweep_keys_stay_stable_at_defaults(self):
        """Old fault-campaign checkpoints must keep restoring."""
        assert fault_point_key("vc", 0.005) == "vc@0.005"
        assert fault_point_key("vc", 0.005, FatMeshExperiment()) == "vc@0.005"

    def test_fault_sweep_keys_change_with_non_default_knobs(self):
        experiment = FatMeshExperiment(routing_mode=RoutingMode.ADAPTIVE)
        assert fault_point_key("vc", 0.005, experiment) == (
            "vc@0.005|mode=adaptive"
        )

    def test_failover_keys_always_fingerprinted(self):
        experiment = _campaign_experiment(
            get_profile("quick"), RoutingMode.ADAPTIVE, 2
        )
        key = _point_key(RoutingMode.ADAPTIVE, 2, experiment)
        assert key.startswith("adaptive@2|")
        assert "mode=adaptive" in key
        assert "health[" in key
        changed = dataclasses.replace(
            experiment, health=HealthConfig(probe_interval=2048)
        )
        assert _point_key(RoutingMode.ADAPTIVE, 2, changed) != key


class TestFatPairWindows:
    def test_one_permanent_failure_per_pair(self):
        base = FatMeshExperiment()
        windows = _fat_pair_windows(base, 8, onset=1000)
        assert len(windows) == 8
        assert all(w.end is None and w.start == 1000 for w in windows)
        # one member per directed pair: all labels distinct, and every
        # pair keeps a healthy sibling (fat_width=2, one failure each)
        assert len({w.link for w in windows}) == 8

    def test_zero_severity_is_fault_free(self):
        assert _fat_pair_windows(FatMeshExperiment(), 0, onset=0) == ()

    def test_severity_beyond_pair_count_rejected(self):
        with pytest.raises(ConfigurationError, match="fat pairs"):
            _fat_pair_windows(FatMeshExperiment(), 9, onset=0)

    def test_negative_severity_rejected(self):
        with pytest.raises(ConfigurationError, match="fat pairs"):
            _fat_pair_windows(FatMeshExperiment(), -1, onset=0)


class TestCampaignExperiment:
    def test_point_carries_the_failover_stack(self):
        experiment = _campaign_experiment(
            get_profile("quick"), RoutingMode.STATIC, 4
        )
        assert experiment.routing_mode == RoutingMode.STATIC
        assert experiment.health == HealthConfig()
        assert len(experiment.faults.down_windows) == 4
        assert experiment.recovery.qos_deadline is not None
        assert experiment.watchdog_window is not None
        # failures land at the end of warmup, inside measurement
        assert all(
            w.start == experiment.warmup_cycles
            for w in experiment.faults.down_windows
        )


def _fake_result(experiment):
    severity = len(experiment.faults.down_windows)
    adaptive = experiment.routing_mode == RoutingMode.ADAPTIVE
    fraction = 1.0 if adaptive else max(0.0, 1.0 - 0.05 * severity)
    metrics = RunMetrics(33.0, 0.5, 100, 99, 10.0, 10.0, 1.0, 50)
    return ExperimentResult(
        experiment=experiment,
        metrics=metrics,
        workload=None,
        cycles_run=1000,
        flits_injected=10,
        flits_ejected=10,
        wall_seconds=0.0,
        fault_stats={
            "qos_delivered_fraction": fraction,
            "qos_deadline_misses": 0,
            "qos_abandoned": 0 if adaptive else severity,
            "health": {
                "reroutes": 3 if adaptive else 0,
                "detours": 0,
                "worms_requeued": 0,
                "streams_shed": severity,
            },
        },
    )


class TestRunFailoverCampaign:
    def test_series_shape_and_extras(self, monkeypatch):
        monkeypatch.setattr(failover, "simulate_fat_mesh", _fake_result)
        fig = run_campaign(CAMPAIGN, "quick", (0, 2))
        assert fig.figure_id == "failover"
        assert set(fig.series) == set(CAMPAIGN_MODES)
        for mode in CAMPAIGN_MODES:
            assert [p.x for p in fig.series[mode]] == [0, 2]
        adaptive = fig.series[RoutingMode.ADAPTIVE][1]
        static = fig.series[RoutingMode.STATIC][1]
        assert adaptive.extra["qos_delivered_fraction"] == 1.0
        assert static.extra["qos_delivered_fraction"] < 1.0

    def test_checkpoint_restores_completed_points(self, monkeypatch, tmp_path):
        monkeypatch.setattr(failover, "simulate_fat_mesh", _fake_result)
        path = tmp_path / "failover.ckpt.json"
        meta = {"command": "failover"}
        run_campaign(
            CAMPAIGN, "quick", (0,), checkpoint=SweepCheckpoint(path, meta=meta)
        )

        monkeypatch.setattr(failover, "simulate_fat_mesh", must_not_run)
        logs = []
        fig = run_campaign(
            CAMPAIGN,
            "quick",
            (0,),
            checkpoint=SweepCheckpoint(path, meta=meta),
            log=logs.append,
        )
        assert any("restored from checkpoint" in line for line in logs)
        assert [p.x for p in fig.series[RoutingMode.ADAPTIVE]] == [0]

    def test_old_checkpoint_restores_without_recompute(
        self, monkeypatch, tmp_path
    ):
        """Keys and point encoding match a checkpoint an earlier release
        wrote (tests/campaign_fixtures/failover.checkpoint.json)."""
        monkeypatch.setattr(failover, "simulate_fat_mesh", must_not_run)
        cp = restore_fixture("failover", tmp_path)
        logs = []
        fig = run_campaign(
            CAMPAIGN,
            "quick",
            CLI_VALUES["failover"],
            checkpoint=cp,
            log=logs.append,
        )
        assert len(logs) == len(cp.done_keys) == 6
        assert all("restored from checkpoint" in line for line in logs)
        assert [p.x for p in fig.series[RoutingMode.ADAPTIVE]] == [0, 2, 4]
        assert "failed" in fig.series[RoutingMode.STATIC][2].extra

    @pytest.mark.parametrize("severity", [9, -1])
    def test_out_of_range_severity_rejected(self, severity):
        with pytest.raises(ConfigurationError, match="fat pairs"):
            run_campaign(CAMPAIGN, "quick", (severity,))

    def test_failed_point_recorded_not_fatal(self, monkeypatch):
        def flaky(experiment):
            if experiment.routing_mode == RoutingMode.STATIC:
                raise SimulationError("wedged")
            return _fake_result(experiment)

        monkeypatch.setattr(failover, "simulate_fat_mesh", flaky)
        fig = run_campaign(CAMPAIGN, "quick", (2,))
        static = fig.series[RoutingMode.STATIC][0]
        assert "failed" in static.extra
        assert "SimulationError" in static.extra["failed"]
        text = campaign_to_text(CAMPAIGN, fig)
        assert "FAILED" in text

    def test_text_rendering(self, monkeypatch):
        monkeypatch.setattr(failover, "simulate_fat_mesh", _fake_result)
        fig = run_campaign(CAMPAIGN, "quick", (0, 2))
        text = campaign_to_text(CAMPAIGN, fig)
        assert "qos frac" in text
        assert "adaptive" in text and "static" in text
        assert "0.9000" in text  # static @ severity 2
