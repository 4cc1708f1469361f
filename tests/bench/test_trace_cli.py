"""Tests for the ``trace`` subcommand and the ``--trace`` capture flag."""

import inspect
import json

import pytest

import repro.bench.__main__ as cli
from repro.obs.validate import validate_trace_file
from tests.bench.test_cli import stub_command


class TestTraceArgParsing:
    def test_defaults(self, monkeypatch):
        """A bare ``trace`` leaves every choice to ``run_trace``."""
        calls = stub_command(monkeypatch, "trace")
        assert cli.main(["trace"]) == 0
        assert calls == [{}]
        defaults = inspect.signature(cli.COMMANDS["trace"].run).parameters
        assert defaults["scenario"].default == "chain"
        assert defaults["out_path"].default == "trace.json"
        assert defaults["summary_path"].default is None
        assert defaults["seed"].default == 7

    def test_unknown_scenario_rejected(self, capsys):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(["trace", "--scenario", "fig99"])

    def test_trace_flag_on_every_figure_subcommand(self):
        parser = cli.build_parser()
        for figure in ("fig09", "fig10", "fig11", "fig12", "fig13",
                       "all", "chaos", "kernel"):
            args = parser.parse_args([figure, "--trace", "t.json"])
            assert args.trace == "t.json"

    def test_trace_forces_serial_execution(self, monkeypatch, tmp_path,
                                           capsys):
        calls = stub_command(monkeypatch, "fig10", returns=[])
        trace = tmp_path / "t.json"
        cli.main(["fig10", "--jobs", "4", "--trace", str(trace)])
        assert calls == [{}]
        assert "forces serial" in capsys.readouterr().err


class TestTraceSubcommand:
    def test_chain_trace_end_to_end(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        summary_json = tmp_path / "summary.json"
        summary_csv = tmp_path / "summary.csv"
        assert cli.main([
            "trace", "--scenario", "chain", "--txns", "6",
            "--duration-ms", "4",
            "--out", str(trace),
            "--summary", str(summary_json),
            "--csv", str(summary_csv),
        ]) == 0
        assert validate_trace_file(trace) == []
        summary = json.loads(summary_json.read_text())
        assert summary["scenario"] == "chain"
        assert summary["events_recorded"] > 0
        tracks = {stage["track"] for stage in summary["stages"]}
        assert any(track.startswith("host:") for track in tracks)
        assert any(track.endswith(".cmb") for track in tracks)
        assert any(track.endswith(".destage") for track in tracks)
        assert summary_csv.read_text().startswith("engine,track,stage")
        out = capsys.readouterr().out
        assert "events ->" in out

    def test_figure_run_with_trace_flag(self, tmp_path):
        trace = tmp_path / "fig12.json"
        assert cli.main([
            "fig12", "--duration-ms", "0.4", "--trace", str(trace),
        ]) == 0
        assert validate_trace_file(trace) == []
        payload = json.loads(trace.read_text())
        assert payload["otherData"]["label"] == "bench:fig12"

    def test_trace_written_even_when_body_fails(self, monkeypatch, tmp_path):
        def boom(**kwargs):
            from repro.sim import Engine

            engine = Engine()
            engine.tracer.instant("t", "before-failure")
            raise SystemExit(1)

        monkeypatch.setitem(cli.COMMANDS, "fig10",
                            cli.COMMANDS["fig10"]._replace(run=boom))
        trace = tmp_path / "failing.json"
        with pytest.raises(SystemExit):
            cli.main(["fig10", "--trace", str(trace)])
        payload = json.loads(trace.read_text())
        names = {event["name"] for event in payload["traceEvents"]}
        assert "before-failure" in names
