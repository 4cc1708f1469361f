"""Tests for the `python -m repro.bench` command-line entry point."""

import inspect
import json

import pytest

import repro.bench.__main__ as cli

JOBS_COMMANDS = {"fig09", "fig10", "fig11", "fig12", "fig13", "all",
                 "fleet", "dr", "slo"}


def stub_command(monkeypatch, name, returns=None):
    """Swap command ``name``'s runner for a recorder and drop its renderer.

    Returns the list of kwargs dicts the runner was called with.  The stub
    keeps the real runner's signature, which decides whether ``--jobs``
    is offered.
    """
    calls = []
    command = cli.COMMANDS[name]

    def run(**kwargs):
        calls.append(kwargs)
        return returns

    run.__signature__ = inspect.signature(command.run)
    monkeypatch.setitem(cli.COMMANDS, name,
                        command._replace(run=run, show=None))
    return calls


def _flag_dests(name):
    """The runner kwargs command ``name``'s flags can set."""
    args = cli.build_parser().parse_args([name])
    return set(vars(args)) - {"command", "json", "trace"}


class TestArgParsing:
    def test_unknown_figure_rejected(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["fig99"])

    def test_figure_table_names_registered(self):
        assert set(cli.FIGURES) == {"fig09", "fig10", "fig11", "fig12",
                                    "fig13"}
        assert set(cli.FIGURES) <= set(cli.COMMANDS)


class TestDispatch:
    def test_single_figure_dispatches_once(self, monkeypatch, capsys):
        calls = stub_command(monkeypatch, "fig09")
        assert cli.main(["fig09", "--txns", "7"]) == 0
        assert calls == [{"transactions_per_worker": 7}]

    def test_all_dispatches_every_figure(self, monkeypatch):
        calls = []
        for name in cli.FIGURES:
            monkeypatch.setitem(cli.COMMANDS, name, cli.COMMANDS[name]._replace(
                run=lambda name=name, **kwargs: calls.append((name, kwargs)),
                show=None))
        assert cli.main(["all", "--jobs", "3"]) == 0
        assert calls == [(name, {"jobs": 3}) for name in (
            "fig09", "fig10", "fig11", "fig12", "fig13")]

    def test_worker_list_parsed(self, monkeypatch):
        calls = stub_command(monkeypatch, "fig09")
        cli.main(["fig09", "--workers", "1", "4"])
        assert calls[0]["worker_counts"] == [1, 4]


class TestSubparsers:
    def test_figure_specific_flag_rejected_elsewhere(self):
        """--txns is a fig09 flag; fig12 must reject it, not ignore it."""
        with pytest.raises(SystemExit):
            cli.main(["fig12", "--txns", "7"])

    def test_workers_flag_rejected_on_fig13(self):
        with pytest.raises(SystemExit):
            cli.main(["fig13", "--workers", "1", "2"])

    def test_every_subcommand_accepts_jobs_and_json(self):
        parser = cli.build_parser()
        for name in (*cli.FIGURES, "all"):
            args = parser.parse_args([name, "--jobs", "2", "--json", "x.json"])
            assert args.jobs == 2
            assert args.json == "x.json"
        for name in set(cli.COMMANDS) - {"trace"}:
            args = parser.parse_args([name, "--json", "x.json"])
            assert args.json == "x.json"

    def test_jobs_offered_only_where_the_runner_takes_it(self):
        """A runner without ``jobs`` would drop --jobs silently; the flag
        must be a usage error there instead."""
        parser = cli.build_parser()
        for name, command in cli.COMMANDS.items():
            takes_jobs = "jobs" in inspect.signature(command.run).parameters
            assert takes_jobs == (name in JOBS_COMMANDS), name
            if takes_jobs:
                assert parser.parse_args([name, "--jobs", "2"]).jobs == 2
            else:
                with pytest.raises(SystemExit) as error:
                    parser.parse_args([name, "--jobs", "2"])
                assert error.value.code == 2

    def test_json_flag_writes_rows(self, monkeypatch, tmp_path):
        rows = [{"setup": "no-log", "workers": 1}]
        stub_command(monkeypatch, "fig09", returns=rows)
        path = tmp_path / "BENCH_fig09.json"
        assert cli.main(["fig09", "--json", str(path)]) == 0
        payload = json.loads(path.read_text())
        assert payload["bench"] == "fig09"
        assert payload["rows"] == rows

    def test_jobs_forwarded_to_figure_runner(self, monkeypatch):
        calls = stub_command(monkeypatch, "fig11")
        cli.main(["fig11", "--jobs", "3"])
        assert calls[0]["jobs"] == 3


def _plan_file(tmp_path):
    path = tmp_path / "plan.json"
    path.write_text(json.dumps({"faults": [
        {"time_ns": 1000.0, "site": "secondary-1", "kind": "replica-crash"},
    ]}))
    return str(path)


# Every flag of every command with a non-default value, and the kwargs the
# runner must receive for it, in runner units.
FORWARDING = {
    "fig09": (["--txns", "7", "--workers", "1", "3", "--jobs", "2"],
              {"transactions_per_worker": 7, "worker_counts": [1, 3],
               "jobs": 2}),
    "fig10": (["--total-kib", "8", "--jobs", "2"],
              {"total_bytes": 8 * 1024, "jobs": 2}),
    "fig11": (["--writes", "5", "--jobs", "2"], {"writes": 5, "jobs": 2}),
    "fig12": (["--duration-ms", "2.5", "--backend", "realistic",
               "--jobs", "2"],
              {"duration_ns": 2.5e6, "backend": "realistic", "jobs": 2}),
    "fig13": (["--periods", "0.5", "1.0", "--writes", "9", "--jobs", "2"],
              {"update_periods_us": [0.5, 1.0], "writes": 9, "jobs": 2}),
    "all": (["--jobs", "2"], {"jobs": 2}),
    "kernel": (["--events", "100", "--repeat", "2"],
               {"events": 100, "repeat": 2}),
    "nand": (["--reads", "5", "--aged-reads", "6", "--pages", "7"],
             {"reads": 5, "aged_reads": 6, "pages": 7}),
    "chaos": (["--seed", "3", "--faults", _plan_file, "--secondaries", "1",
               "--duration-ms", "4", "--fault-events", "2", "--txns", "9"],
              {"seed": 3, "plan": [{"time_ns": 1000.0, "site": "secondary-1",
                                    "kind": "replica-crash"}],
               "secondaries": 1, "duration_ns": 4e6, "fault_events": 2,
               "transactions": 9}),
    "health": (["--scenario", "failover", "--seed", "3"],
               {"scenario": "failover", "seed": 3}),
    "fleet": (["--devices", "1", "2", "--tenants", "2", "--duration-ms",
               "1.5", "--hot-duration-ms", "3", "--seed", "3",
               "--replicas", "2", "--no-hot", "--jobs", "2"],
              {"device_counts": [1, 2], "tenants_per_device": 2,
               "duration_ms": 1.5, "hot_duration_ms": 3.0, "seed": 3,
               "replicas": 2, "hot": False, "jobs": 2}),
    "dr": (["--seed", "3", "--shards", "1", "--duration-ms", "1.5",
            "--txns", "9", "--key-space", "4", "--segment-bytes", "1024",
            "--jobs", "2"],
           {"seed": 3, "shards": 1, "duration_ms": 1.5, "transactions": 9,
            "key_space": 4, "segment_bytes": 1024, "jobs": 2}),
    "slo": (["--seed", "3", "--nodes", "1", "--tenants", "4", "--day-ms",
             "1.5", "--windows", "6", "--target-p99-us", "90",
             "--mean-gap-us", "3", "--crowd-amplitude", "2", "--jobs", "2"],
            {"seed": 3, "nodes": 1, "tenants": 4, "day_ms": 1.5,
             "windows": 6, "target_p99_us": 90.0, "mean_gap_us": 3.0,
             "crowd_amplitude": 2.0, "jobs": 2}),
    "trace": (["--scenario", "fig09", "--out", "t.json", "--summary",
               "s.json", "--csv", "s.csv", "--seed", "3", "--secondaries",
               "1", "--txns", "4", "--duration-ms", "2"],
              {"scenario": "fig09", "out_path": "t.json",
               "summary_path": "s.json", "csv_path": "s.csv", "seed": 3,
               "secondaries": 1, "transactions": 4, "duration_ns": 2e6}),
}


def _runner_defaults(name):
    """Defaults of the parameters command ``name``'s runner names."""
    parameters = inspect.signature(cli.COMMANDS[name].run).parameters
    return {key: parameter.default for key, parameter in parameters.items()
            if parameter.default is not inspect.Parameter.empty}


class TestFlagForwarding:
    def test_table_covers_every_command(self):
        assert set(FORWARDING) == set(cli.COMMANDS)

    @pytest.mark.parametrize("name", sorted(FORWARDING))
    def test_every_flag_reaches_its_runner(self, name, monkeypatch,
                                           tmp_path):
        argv, expected = FORWARDING[name]
        argv = [arg(tmp_path) if callable(arg) else arg for arg in argv]
        assert set(expected) == _flag_dests(name), "untested flag"
        signature = inspect.signature(cli.COMMANDS[name].run)
        signature.bind_partial(**expected)  # every dest is a runner kwarg
        defaults = _runner_defaults(name)
        for key, value in expected.items():
            assert defaults.get(key, object()) != value, key
        calls = stub_command(monkeypatch, name)
        assert cli.main([name, *argv]) == 0
        (kwargs,) = calls
        if "plan" in kwargs:
            kwargs["plan"] = kwargs["plan"].as_dicts()
        assert kwargs == expected

    @pytest.mark.parametrize("name", sorted(FORWARDING))
    def test_bare_subcommand_leaves_runner_defaults(self, name, monkeypatch):
        """No default is stated in both the CLI and the runner: a bare
        subcommand passes its runner nothing at all."""
        calls = stub_command(monkeypatch, name)
        assert cli.main([name]) == 0
        assert calls == [{}]


MS_FLAGS = [(name, option) for name, command in cli.COMMANDS.items()
            for option, _ in command.flags if option.endswith("-ms")]


class TestDurationFlags:
    def test_every_command_with_a_duration_is_covered(self):
        assert {name for name, _ in MS_FLAGS} == {
            "fig12", "chaos", "fleet", "dr", "slo", "trace"}

    @pytest.mark.parametrize("value", ["0", "-1"])
    @pytest.mark.parametrize("name,option", MS_FLAGS)
    def test_non_positive_duration_is_a_usage_error(self, name, option,
                                                    value, monkeypatch,
                                                    capsys):
        calls = stub_command(monkeypatch, name)
        with pytest.raises(SystemExit) as error:
            cli.main([name, f"{option}={value}"])
        assert error.value.code == 2
        assert calls == []
        assert "positive number of milliseconds" in capsys.readouterr().err


class TestRealRun:
    def test_fig12_runs_end_to_end(self, capsys):
        """One real (fast) figure through the CLI path."""
        assert cli.main(["fig12"]) == 0
        output = capsys.readouterr().out
        assert "opportunistic destaging" in output
        assert "neutral" in output

    def test_kernel_microbench_runs_end_to_end(self, capsys, tmp_path):
        path = tmp_path / "BENCH_kernel.json"
        assert cli.main(["kernel", "--events", "2000", "--repeat", "1",
                        "--json", str(path)]) == 0
        output = capsys.readouterr().out
        assert "events/sec" in output
        assert "same-instant" in output
        payload = json.loads(path.read_text())
        assert payload["bench"] == "kernel"
        assert {row["workload"] for row in payload["rows"]} == {
            "same-instant", "event-churn", "timeout-heavy",
            "timeout-cancel-heavy", "fleet-scale",
        }
