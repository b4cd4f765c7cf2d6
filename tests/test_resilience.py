"""Sweep resilience: checkpointing, retry-with-reseed, CLI resume."""

import dataclasses
import json
import logging
import os
import signal
import time

import pytest

from campaign_fakes import CLI_VALUES, must_not_run, restore_fixture
from conftest import TINY

import repro.experiments.cli as cli
import repro.experiments.faultsweep as faultsweep
from repro.errors import DeadlockError, PointTimeoutError, SimulationError
from repro.experiments.campaign import (
    _empty_metrics,
    campaign_to_text,
    run_campaign,
)
from repro.experiments.config import SingleSwitchExperiment
from repro.experiments.figures import PROFILES, RunProfile
from repro.experiments.parallel import CRASH_RESEED_STEP
from repro.experiments.resilience import (
    RESEED_STEP,
    SweepCheckpoint,
    run_resilient,
    wall_clock_limit,
)

RESILIENCE_LOGGER = "repro.experiments.resilience"


@pytest.fixture
def tiny_profile(monkeypatch):
    tiny = RunProfile("tiny", scale=80.0, warmup_frames=1, measure_frames=2)
    monkeypatch.setitem(PROFILES, "tiny", tiny)
    return tiny


class TestSweepCheckpoint:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "sweep.json"
        cp = SweepCheckpoint(path, meta={"profile": "quick"})
        assert "fig3" not in cp
        assert cp.get("fig3") is None
        cp.put("fig3", "some rendered text")
        assert "fig3" in cp
        assert cp.get("fig3") == "some rendered text"
        assert cp.done_keys == ["fig3"]

    def test_persists_across_instances(self, tmp_path):
        path = tmp_path / "sweep.json"
        SweepCheckpoint(path, meta={"profile": "quick"}).put("fig3", "text")
        reloaded = SweepCheckpoint(path, meta={"profile": "quick"})
        assert reloaded.get("fig3") == "text"

    def test_put_persists_immediately(self, tmp_path):
        # the point of the checkpoint: a kill -9 after put() loses nothing
        path = tmp_path / "sweep.json"
        SweepCheckpoint(path, meta={}).put("a", 1)
        on_disk = json.loads(path.read_text())
        assert on_disk["done"] == {"a": 1}
        assert not os.path.exists(f"{path}.tmp")

    def test_meta_mismatch_discards_stale_file(self, tmp_path):
        path = tmp_path / "sweep.json"
        SweepCheckpoint(path, meta={"profile": "quick"}).put("fig3", "text")
        other = SweepCheckpoint(path, meta={"profile": "default"})
        assert "fig3" not in other

    def test_corrupt_file_is_ignored(self, tmp_path):
        path = tmp_path / "sweep.json"
        path.write_text("{ not json")
        cp = SweepCheckpoint(path, meta={})
        assert cp.done_keys == []

    def test_wrong_format_is_ignored(self, tmp_path):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({"format": "other", "done": {"a": 1}}))
        assert "a" not in SweepCheckpoint(path, meta={})

    def test_clear_removes_the_file(self, tmp_path):
        path = tmp_path / "sweep.json"
        cp = SweepCheckpoint(path, meta={})
        cp.put("a", 1)
        assert path.exists()
        cp.clear()
        assert not path.exists()
        assert cp.done_keys == []
        cp.clear()  # idempotent


class TestCheckpointRecovery:
    """Corruption is reported, partial writes are recovered."""

    def test_corrupt_file_warns_with_path_and_cause(self, tmp_path, caplog):
        path = tmp_path / "sweep.json"
        path.write_text("{ not json")
        with caplog.at_level(logging.WARNING, RESILIENCE_LOGGER):
            cp = SweepCheckpoint(path, meta={})
        assert cp.done_keys == []
        assert str(path) in caplog.text
        assert "unreadable" in caplog.text
        # the operator sees what broke, not just that something did
        assert "JSONDecodeError" in caplog.text

    def test_unknown_format_warns(self, tmp_path, caplog):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({"format": "other", "done": {"a": 1}}))
        with caplog.at_level(logging.WARNING, RESILIENCE_LOGGER):
            SweepCheckpoint(path, meta={})
        assert "unrecognised format" in caplog.text
        assert "'other'" in caplog.text

    def test_meta_mismatch_warns(self, tmp_path, caplog):
        path = tmp_path / "sweep.json"
        SweepCheckpoint(path, meta={"profile": "quick"}).put("fig3", "text")
        with caplog.at_level(logging.WARNING, RESILIENCE_LOGGER):
            SweepCheckpoint(path, meta={"profile": "default"})
        assert "does not match" in caplog.text
        assert "recomputing" in caplog.text

    def test_clean_load_is_silent(self, tmp_path, caplog):
        path = tmp_path / "sweep.json"
        SweepCheckpoint(path, meta={"profile": "quick"}).put("fig3", "text")
        with caplog.at_level(logging.WARNING, RESILIENCE_LOGGER):
            SweepCheckpoint(path, meta={"profile": "quick"})
            SweepCheckpoint(tmp_path / "absent.json", meta={})
        assert caplog.text == ""

    def test_partial_write_recovers_from_tmp(self, tmp_path, caplog):
        path = tmp_path / "sweep.json"
        SweepCheckpoint(path, meta={"profile": "quick"}).put("fig3", "text")
        # simulate a crash between the temp-file fsync and the atomic
        # rename: the finished payload sits at <path>.tmp, <path> is gone
        os.replace(path, f"{path}.tmp")
        with caplog.at_level(logging.WARNING, RESILIENCE_LOGGER):
            recovered = SweepCheckpoint(path, meta={"profile": "quick"})
        assert recovered.get("fig3") == "text"
        assert "recovered from partial write" in caplog.text

    def test_partial_write_recovers_over_truncated_main(
        self, tmp_path, caplog
    ):
        path = tmp_path / "sweep.json"
        SweepCheckpoint(path, meta={"profile": "quick"}).put("fig3", "text")
        os.replace(path, f"{path}.tmp")
        # a crash mid-write of a *later* save leaves a truncated main
        # file alongside the last complete temp payload
        path.write_text('{"format": "mediaworm-checkpoint-v1", "me')
        with caplog.at_level(logging.WARNING, RESILIENCE_LOGGER):
            recovered = SweepCheckpoint(path, meta={"profile": "quick"})
        assert recovered.get("fig3") == "text"
        assert "unreadable" in caplog.text
        assert "recovered from partial write" in caplog.text

    def test_recovered_tmp_still_checks_meta(self, tmp_path):
        path = tmp_path / "sweep.json"
        SweepCheckpoint(path, meta={"profile": "quick"}).put("fig3", "text")
        os.replace(path, f"{path}.tmp")
        other = SweepCheckpoint(path, meta={"profile": "default"})
        assert "fig3" not in other

    def test_clear_removes_the_tmp_file_too(self, tmp_path):
        path = tmp_path / "sweep.json"
        cp = SweepCheckpoint(path, meta={})
        cp.put("a", 1)
        (tmp_path / "sweep.json.tmp").write_text("{}")
        cp.clear()
        assert not path.exists()
        assert not os.path.exists(f"{path}.tmp")


class TestReseedCollisionFreedom:
    """Retry and crash reseeds must never alias another point's stream."""

    def test_steps_are_distinct_primes(self):
        assert RESEED_STEP != CRASH_RESEED_STEP
        for step in (RESEED_STEP, CRASH_RESEED_STEP):
            assert step > 1
            assert all(step % d for d in range(2, int(step**0.5) + 1))

    def test_reseed_streams_never_collide(self):
        # a sweep's point seeds are typically a dense family (seed,
        # seed+1, ...); every (retry attempt, crash round) combination
        # must map each base to a distinct effective seed, or a retry of
        # one point would silently rerun another point's exact stream
        bases = range(101)
        attempts = range(3)  # in-worker retry reseeds (attempts=3)
        crashes = range(3)  # pool-crash resubmission reseeds
        seeds = {
            base + attempt * RESEED_STEP + crash * CRASH_RESEED_STEP
            for base in bases
            for attempt in attempts
            for crash in crashes
        }
        assert len(seeds) == len(bases) * len(attempts) * len(crashes)


class TestWallClockLimit:
    @pytest.mark.skipif(
        not hasattr(signal, "SIGALRM"), reason="needs SIGALRM"
    )
    def test_expiry_raises_point_timeout(self):
        with pytest.raises(PointTimeoutError, match="wall-clock limit"):
            with wall_clock_limit(0.05):
                deadline = time.monotonic() + 5.0  # hang protection
                while time.monotonic() < deadline:
                    pass

    @pytest.mark.skipif(
        not hasattr(signal, "SIGALRM"), reason="needs SIGALRM"
    )
    def test_timer_is_disarmed_after_the_block(self):
        with wall_clock_limit(30.0):
            pass
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)

    def test_none_and_nonpositive_disable_the_guard(self):
        with wall_clock_limit(None):
            pass
        with wall_clock_limit(0):
            pass
        with wall_clock_limit(-1.0):
            pass


class TestRunResilient:
    def _experiment(self):
        return SingleSwitchExperiment(load=0.5, mix=(80, 20), **TINY)

    def test_success_passes_through(self):
        experiment = self._experiment()
        seen = []
        result = run_resilient(lambda e: seen.append(e) or "ok", experiment)
        assert result == "ok"
        assert seen == [experiment]

    def test_retries_with_reseeded_experiment(self):
        experiment = self._experiment()
        seeds = []
        retries = []

        def flaky(trial):
            seeds.append(trial.seed)
            if len(seeds) < 3:
                raise DeadlockError("wedged")
            return "recovered"

        result = run_resilient(
            flaky,
            experiment,
            attempts=3,
            on_retry=lambda attempt, exc: retries.append(attempt),
        )
        assert result == "recovered"
        assert seeds == [
            experiment.seed,
            experiment.seed + RESEED_STEP,
            experiment.seed + 2 * RESEED_STEP,
        ]
        assert retries == [0, 1]

    def test_exhausted_attempts_raise_the_last_error(self):
        def always_fails(trial):
            raise DeadlockError(f"seed {trial.seed} wedged")

        with pytest.raises(DeadlockError, match="wedged"):
            run_resilient(always_fails, self._experiment(), attempts=2)

    def test_non_simulation_errors_propagate_immediately(self):
        calls = []

        def typo(trial):
            calls.append(trial)
            raise ValueError("a bug, not a wedge")

        with pytest.raises(ValueError):
            run_resilient(typo, self._experiment(), attempts=3)
        assert len(calls) == 1

    def test_cycle_budget_arms_the_watchdog(self):
        seen = []
        run_resilient(
            lambda e: seen.append(e), self._experiment(), cycle_budget=9999
        )
        assert seen[0].watchdog_window == 9999

    def test_cycle_budget_respects_explicit_watchdog(self):
        experiment = dataclasses.replace(
            self._experiment(), watchdog_window=123
        )
        seen = []
        run_resilient(lambda e: seen.append(e), experiment, cycle_budget=9999)
        assert seen[0].watchdog_window == 123

    def test_zero_attempts_rejected(self):
        with pytest.raises(SimulationError):
            run_resilient(lambda e: e, self._experiment(), attempts=0)


def _fake_result(policy, rate):
    """A stand-in ExperimentResult for stubbed campaign runs."""

    class _Result:
        metrics = _empty_metrics()
        fault_stats = {
            "flits_lost": 7,
            "delivered_fraction": 0.995,
            "retransmissions": 3,
            "abandoned": 0,
        }

    return _Result()


class TestFaultCampaign:
    @pytest.fixture
    def stub_runner(self, monkeypatch, tiny_profile):
        calls = []

        def fake(experiment):
            calls.append(
                (experiment.scheduler, experiment.faults.flit_loss_prob)
            )
            return _fake_result(experiment.scheduler, 0.0)

        monkeypatch.setattr(faultsweep, "simulate_fat_mesh", fake)
        return calls

    def test_campaign_sweeps_both_schedulers(self, stub_runner):
        fig = run_campaign(faultsweep.CAMPAIGN, "tiny", (0.0, 0.01))
        assert sorted(fig.series) == ["fifo", "virtual_clock"]
        assert [p.x for p in fig.series["fifo"]] == [0.0, 0.01]
        assert len(stub_runner) == 4
        text = campaign_to_text(faultsweep.CAMPAIGN, fig)
        assert "scheduler" in text
        assert "0.9950" in text

    def test_campaign_checkpoints_every_point(self, stub_runner, tmp_path):
        path = tmp_path / "faults.json"
        meta = {"rates": ["0.01"]}
        cp = SweepCheckpoint(path, meta=meta)
        run_campaign(faultsweep.CAMPAIGN, "tiny", (0.01,), checkpoint=cp)
        assert sorted(cp.done_keys) == ["fifo@0.01", "virtual_clock@0.01"]
        assert len(stub_runner) == 2

        # a rerun against the same checkpoint recomputes nothing
        logs = []
        cp2 = SweepCheckpoint(path, meta=meta)
        fig = run_campaign(
            faultsweep.CAMPAIGN, "tiny", (0.01,), checkpoint=cp2, log=logs.append
        )
        assert len(stub_runner) == 2  # no new simulation calls
        assert any("restored from checkpoint" in line for line in logs)
        point = fig.series["virtual_clock"][0]
        assert point.extra["delivered_fraction"] == 0.995

    def test_failing_point_is_recorded_not_fatal(
        self, monkeypatch, tiny_profile, tmp_path
    ):
        def wedge(experiment):
            raise DeadlockError("router 0 wedged")

        monkeypatch.setattr(faultsweep, "simulate_fat_mesh", wedge)
        cp = SweepCheckpoint(tmp_path / "faults.json", meta={})
        fig = run_campaign(faultsweep.CAMPAIGN, "tiny", (0.02,), checkpoint=cp)
        for points in fig.series.values():
            assert "DeadlockError" in points[0].extra["failed"]
        text = campaign_to_text(faultsweep.CAMPAIGN, fig)
        assert "FAILED" in text
        # the failure is checkpointed too: a rerun does not retry it
        assert sorted(cp.done_keys) == ["fifo@0.02", "virtual_clock@0.02"]

    def test_old_checkpoint_restores_without_recompute(
        self, monkeypatch, tmp_path
    ):
        """Keys and point encoding match a checkpoint an earlier release
        wrote (tests/campaign_fixtures/faults.checkpoint.json)."""
        monkeypatch.setattr(faultsweep, "simulate_fat_mesh", must_not_run)
        cp = restore_fixture("faults", tmp_path)
        logs = []
        fig = run_campaign(
            faultsweep.CAMPAIGN,
            "quick",
            CLI_VALUES["faults"],
            checkpoint=cp,
            log=logs.append,
        )
        assert len(logs) == len(cp.done_keys) == 4
        assert all("restored from checkpoint" in line for line in logs)
        assert [p.x for p in fig.series["virtual_clock"]] == [0.0, 0.02]
        assert "failed" in fig.series["fifo"][1].extra


class TestCliResilience:
    def test_faults_rejects_bad_rates(self, tiny_profile):
        with pytest.raises(SystemExit):
            cli.main(["faults", "--profile", "tiny", "--rates", "0.1x"])
        with pytest.raises(SystemExit):
            cli.main(["faults", "--profile", "tiny", "--rates", "1.5"])

    def test_faults_command_end_to_end(
        self, monkeypatch, tiny_profile, tmp_path, capsys
    ):
        monkeypatch.setattr(
            faultsweep, "simulate_fat_mesh", lambda e: _fake_result(None, 0)
        )
        path = tmp_path / "cp.json"
        code = cli.main(
            [
                "faults",
                "--profile",
                "tiny",
                "--rates",
                "0.01",
                "--checkpoint",
                str(path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "scheduler" in out
        assert "completed in" in out
        # a completed campaign clears its checkpoint
        assert not path.exists()

    def test_all_resumes_from_checkpoint(
        self, tiny_profile, tmp_path, capsys
    ):
        """A killed ``mediaworm all`` picks up where it stopped."""
        path = tmp_path / "all.json"
        cp = SweepCheckpoint(
            path, meta={"command": "all", "profile": "tiny"}
        )
        names = [
            "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "table3",
        ]
        for name in names:
            cp.put(name, f"cached output of {name}")
        code = cli.main(
            ["all", "--profile", "tiny", "--checkpoint", str(path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "[resuming from" in out
        for name in names:
            assert f"cached output of {name}" in out
            assert f"[{name} restored from checkpoint]" in out
        # every name was served from the checkpoint, which is then cleared
        assert not path.exists()

    def test_all_checkpoint_ignores_other_profile(self, tmp_path):
        path = tmp_path / "all.json"
        SweepCheckpoint(
            path, meta={"command": "all", "profile": "default"}
        ).put("fig3", "stale")
        cp = SweepCheckpoint(
            path, meta={"command": "all", "profile": "tiny"}
        )
        assert "fig3" not in cp
