"""The declarative campaign runner and the campaign subcommands.

The goldens under ``tests/campaign_fixtures/`` were captured from the
per-campaign drivers this runner replaced, with the simulators faked by
``campaign_fakes.fake_result``: stdout, ``--json`` output, checkpoints,
``--help`` text, and the transport knobs of every campaign experiment
must stay exactly as they were.
"""

import dataclasses
import hashlib
import itertools
import json
import re
import shutil

import pytest

from campaign_fakes import (
    CLI_AXES,
    CLI_VALUES,
    FIXTURES,
    fake_result,
    must_not_run,
)

from repro.errors import ConfigurationError
from repro.experiments import cli, disaster, failover, faultsweep
from repro.experiments.campaign import campaign_values, column, parse_axis
from repro.experiments.figures import Point, get_profile

GOLDEN = json.loads((FIXTURES / "cli_golden.json").read_text())

#: each campaign module and the simulator lookups its point function makes
SIMULATORS = {
    "faults": (faultsweep, ("simulate_fat_mesh",)),
    "failover": (failover, ("simulate_fat_mesh",)),
    "disaster": (disaster, ("simulate_fat_tree3", "simulate_butterfly")),
}


def _fake_simulators(monkeypatch, name, fake):
    module, lookups = SIMULATORS[name]
    for lookup in lookups:
        monkeypatch.setattr(module, lookup, fake)


def _masked(text: str) -> str:
    return re.sub(r"completed in [0-9.]+s\]", "completed in Ns]", text)


def _run_cli(argv, capsys) -> str:
    assert cli.main(argv) == 0
    return capsys.readouterr().out


@pytest.fixture
def columns80(monkeypatch):
    """Pin argparse's help wrapping width."""
    monkeypatch.setenv("COLUMNS", "80")


class TestCliOutputUnchanged:
    @pytest.mark.parametrize("name", list(CLI_AXES))
    def test_campaign_stdout_and_json(
        self, name, monkeypatch, tmp_path, capsys
    ):
        _fake_simulators(monkeypatch, name, fake_result)
        checkpoint = tmp_path / "cp.json"
        out_json = tmp_path / "out.json"
        out = _run_cli(
            [name, "--profile", "quick", *CLI_AXES[name],
             "--checkpoint", str(checkpoint), "--json", str(out_json)],
            capsys,
        )
        assert _masked(out) == _masked(GOLDEN[name])
        assert out_json.read_text() == GOLDEN[f"{name} --json"]
        assert not checkpoint.exists()  # a finished campaign clears it

    @pytest.mark.parametrize("name", list(CLI_AXES))
    def test_old_checkpoint_restores_through_the_cli(
        self, name, monkeypatch, tmp_path, capsys
    ):
        """The CLI's checkpoint meta matches the old one exactly, so every
        point restores and none recomputes."""
        _fake_simulators(monkeypatch, name, must_not_run)
        checkpoint = tmp_path / "cp.json"
        shutil.copy(FIXTURES / f"{name}.checkpoint.json", checkpoint)
        out = _run_cli(
            [name, "--profile", "quick", *CLI_AXES[name],
             "--checkpoint", str(checkpoint)],
            capsys,
        )
        assert _masked(out) == _masked(GOLDEN[f"{name} restored"])

    @pytest.mark.parametrize(
        "argv", [["list"], ["--help"]] + [[name, "--help"] for name in CLI_AXES]
    )
    def test_list_and_help(self, argv, columns80, capsys):
        try:
            cli.main(argv)
        except SystemExit as exc:
            assert exc.code == 0
        assert capsys.readouterr().out == GOLDEN[" ".join(argv)]


class TestAxisValidation:
    @pytest.mark.parametrize(
        "name, bad",
        [
            ("faults", "1.5"),
            ("faults", "0.1x"),
            ("failover", "9"),
            ("failover", "-1"),
            ("failover", "two"),
            ("disaster", "tsunami"),
            ("disaster", ","),
        ],
    )
    def test_bad_value_is_a_usage_error(self, name, bad, monkeypatch, tmp_path):
        _fake_simulators(monkeypatch, name, must_not_run)
        checkpoint = tmp_path / "cp.json"
        with pytest.raises(SystemExit) as info:
            cli.main(
                [name, *CLI_AXES[name][:1], bad, "--checkpoint", str(checkpoint)]
            )
        assert CLI_AXES[name][0] in str(info.value.code)  # names the flag
        assert not checkpoint.exists()

    @pytest.mark.parametrize(
        "name, repeated",
        [
            ("faults", "0.01,0.010"),
            ("failover", "2,2"),
            ("disaster", "link,link"),
        ],
    )
    def test_repeated_value_is_a_usage_error(self, name, repeated, monkeypatch):
        _fake_simulators(monkeypatch, name, must_not_run)
        with pytest.raises(SystemExit, match="more than once"):
            cli.main([name, CLI_AXES[name][0], repeated])

    def test_values_that_share_a_key_are_repeats(self):
        # 0.0100000001 and 0.01 both print as "0.01": one checkpoint key
        with pytest.raises(ConfigurationError, match="more than once"):
            campaign_values(faultsweep.CAMPAIGN, (0.01, 0.0100000001))

    @pytest.mark.parametrize("name", list(CLI_AXES))
    def test_parse_axis(self, name):
        campaign = cli.CAMPAIGNS[name]
        text = CLI_AXES[name][1]
        assert parse_axis(campaign, text) == CLI_VALUES[name]
        assert parse_axis(campaign, None) == campaign.defaults
        assert parse_axis(campaign, f"{text},") == CLI_VALUES[name]


class TestCampaignExperiments:
    def test_experiments_match_the_old_drivers(self):
        """Recovery, watchdog, fault plan, health and routing of every
        default point stay what the per-campaign builders produced."""
        pinned = json.loads((FIXTURES / "experiments.json").read_text())
        profiles = {
            "quick": get_profile("quick"),
            "default": get_profile("default"),
            "quick+watchdog": dataclasses.replace(
                get_profile("quick"), watchdog_window=777
            ),
        }
        checked = 0
        for label, profile in profiles.items():
            for campaign in cli.CAMPAIGNS.values():
                for combo in itertools.product(*campaign.series):
                    for value in campaign.defaults:
                        if campaign.applies and not campaign.applies(
                            *combo, value
                        ):
                            continue
                        point = "/".join(map(str, (*combo, value)))
                        e = campaign.experiment(profile, *combo, value)
                        knobs = repr(
                            (e.recovery, e.watchdog_window, e.faults,
                             e.health, e.routing_mode, e.scheduler)
                        )
                        digest = hashlib.sha256(knobs.encode()).hexdigest()
                        key = f"{campaign.name} {label} {point}"
                        assert pinned[key] == digest[:16], key
                        checked += 1
        assert checked == len(pinned)


class TestColumns:
    def test_plain_and_health_columns(self):
        point = Point(0, None, extra={"a": 0.5, "health": {"b": 3}})
        assert column("a", 6, "a", ".2f")[2](point) == "0.50"
        assert column("b", 6, "health.b")[2](point) == "3"
        assert column("c", 6, "health.c")[2](point) == "0"
        assert column("d", 6, "d", ".4f", 1.0)[2](point) == "1.0000"
