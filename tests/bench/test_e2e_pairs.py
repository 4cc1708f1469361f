"""``scripts/e2e_pairs.py`` judges a pair by its metric's direction and
passes its run options through to ``run.py``."""

import argparse
import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def pairs():
    spec = importlib.util.spec_from_file_location(
        "e2e_pairs", ROOT / "scripts" / "e2e_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def runs(*values):
    return [{"parent": {"m": parent}, "change": {"m": change}}
            for parent, change in values]


def test_every_end_to_end_metric_has_a_direction(pairs):
    metrics = pairs.end_to_end_metrics(str(ROOT))
    assert metrics["ops_per_wall_s"] == "higher"
    assert metrics["peak_rss_mb"] == "lower"
    assert set(metrics.values()) == {"higher", "lower"}


def test_lower_is_better_wins_by_being_lower(pairs):
    measured = runs((53.4, 31.4), (53.5, 31.2), (31.0, 53.0), (40.0, 40.0))
    assert pairs.change_wins(measured, "m", "lower") == 2
    assert pairs.change_wins(measured, "m", "higher") == 1


def options(**overrides):
    values = {"workload": "replicated-chain", "seed": 11, "seconds": None,
              "scale": None}
    values.update(overrides)
    return argparse.Namespace(**values)


def test_scale_and_seconds_pass_through_to_the_runner(pairs):
    command = pairs.runner_command(options(scale=4.0, seconds=3.0), "out.json")
    assert command[1] == pairs.RUNNER
    assert command[2:] == ["--workload", "replicated-chain", "--seed", "11",
                           "--json", "out.json", "--seconds", "3.0",
                           "--scale", "4.0"]


def test_runner_keeps_its_own_defaults_when_unset(pairs):
    command = pairs.runner_command(options(), "out.json")
    assert "--scale" not in command and "--seconds" not in command


def test_scale_must_be_positive(pairs, capsys):
    with pytest.raises(SystemExit):
        pairs.main(["--workload", "tpcc-local", "--scale", "0"])
    assert "--scale must be positive" in capsys.readouterr().err
