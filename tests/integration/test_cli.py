"""The command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main


def test_import_loads_no_experiment_or_workload_module():
    # `repro serve` imports the CLI module; the experiments (and, through
    # them, the workloads) load only in the subcommands that run them.
    code = (
        "import repro.cli, sys; "
        "print([m for m in ('repro.experiments', 'repro.workloads') if m in sys.modules])"
    )
    src = str(Path(__file__).resolve().parents[2] / "src")
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    assert proc.stdout.strip() == "[]"


class TestList:
    def test_lists_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "figure6" in out
        assert "table2  (slow)" in out


class TestExperiment:
    def test_runs_named_experiment(self, capsys):
        assert main(["experiment", "table1"]) == 0
        out = capsys.readouterr().out
        assert "Exascale Projection" in out
        assert "100,000" in out

    def test_overrides_forwarded(self, capsys):
        assert main(["experiment", "figure9", "-o", "mttis_min=(30, 60)"]) == 0
        out = capsys.readouterr().out
        assert "60 min" in out
        assert "90 min" not in out

    def test_string_override(self, capsys):
        assert main(["experiment", "table2", "-o", "source=paper"]) == 0
        assert "Table 2 (paper" in capsys.readouterr().out

    def test_bad_override_format(self):
        with pytest.raises(SystemExit):
            main(["experiment", "table1", "-o", "nonsense"])

    def test_unknown_experiment_rejected_by_argparse(self):
        with pytest.raises(SystemExit):
            main(["experiment", "figure42"])


class TestAll:
    def test_all_skip_slow(self, capsys):
        assert main(["all", "--skip-slow"]) == 0
        out = capsys.readouterr().out
        assert "skipping table2" in out
        assert "Figure 6" in out


class TestJsonExport:
    def test_writes_structured_result(self, tmp_path, capsys):
        out = tmp_path / "fig9.json"
        assert main(["experiment", "figure9", "--json", str(out)]) == 0
        import json

        data = json.loads(out.read_text())
        assert data["experiment"] == "figure9"
        assert len(data["rows"]) == 5
        assert "gain_at_min_mtti" in data["headline"]


class TestReport:
    def test_report_to_file(self, tmp_path, capsys):
        out = tmp_path / "report.md"
        assert main(["report", "-o", str(out), "--skip-slow"]) == 0
        body = out.read_text()
        assert body.startswith("# repro")
        assert "## Figure 6" in body
        assert "## Table 1" in body
        # Slow experiments excluded.
        assert "Table 2 (measured)" not in body


class TestTrace:
    def test_wraps_command_and_writes_jsonl(self, tmp_path, capsys):
        from repro.obs import trace as obs_trace

        out = tmp_path / "trace.jsonl"
        assert main(["trace", "--out", str(out), "experiment", "table1"]) == 0
        assert not obs_trace.enabled()  # disabled again on the way out
        assert "trace:" in capsys.readouterr().err
        # table1 is analytic-only; the file must exist and validate even
        # if no instrumented path ran.
        obs_trace.validate_file(out)

    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            main(["trace"])

    def test_rejects_self_nesting(self):
        with pytest.raises(SystemExit):
            main(["trace", "trace", "list"])


class TestMetrics:
    def test_prints_drift_tables(self, tmp_path, capsys):
        import json

        out = tmp_path / "drift.json"
        assert main(
            ["metrics", "--steps", "2", "--no-breakdown", "--json", str(out)]
        ) == 0
        text = capsys.readouterr().out
        assert "compress rate" in text
        assert "drain rate" in text
        assert "blocked local s/ckpt" in text
        data = json.loads(out.read_text())
        assert {"params", "compression", "reports", "metrics"} <= set(data)

    def test_prometheus_export(self, capsys):
        assert main(["metrics", "--steps", "2", "--no-breakdown", "--prometheus"]) == 0
        text = capsys.readouterr().out
        assert "# TYPE ndp_bytes_in gauge" in text
