"""``scripts/e2e_pairs.py`` judges a pair by its metric's direction."""

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
