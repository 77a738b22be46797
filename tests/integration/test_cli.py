"""Smoke tests for the ``python -m repro`` CLI and the dashboard example."""

import subprocess
import sys
from pathlib import Path

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def run_module(*args, stdin=None, timeout=240):
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True, text=True, input=stdin, timeout=timeout,
    )


class TestCli:
    def test_queries_listing(self):
        proc = run_module("queries")
        assert proc.returncode == 0, proc.stderr
        for token in ("SBI", "Q17", "C3", "GROUP BY"):
            assert token in proc.stdout

    def test_demo(self):
        proc = run_module("demo", "--rows", "4000", "--batches", "3")
        assert proc.returncode == 0, proc.stderr
        assert "batch 3/3" in proc.stdout
        assert "estimate" in proc.stdout

    def test_demo_prints_the_recovery_counters(self):
        # Every shard kills its one worker, so each runs on the
        # coordinator; the printout names the counters the pool bumps.
        proc = run_module(
            "demo", "--rows", "4000", "--batches", "3",
            "--workers", "workers=1,min_shard_rows=64",
            "--faults", "worker_kill_prob=1",
        )
        assert proc.returncode == 0, proc.stderr
        recovery = proc.stdout.split("recovery:\n", 1)[1]
        for name in ("parallel.serial_fallbacks", "parallel.restarts",
                     "parallel.worker_lost"):
            assert name in recovery

    def test_console_scripted(self):
        proc = run_module(
            "console", "--rows", "3000",
            stdin="SELECT COUNT(*) FROM sessions\n\\quit\n",
        )
        assert proc.returncode == 0, proc.stderr

    def test_requires_command(self):
        proc = run_module()
        assert proc.returncode != 0

    def test_trace_and_report(self, tmp_path):
        trace_file = tmp_path / "trace.jsonl"
        proc = run_module(
            "trace", "--rows", "4000", "--batches", "3",
            "--trace-out", str(trace_file),
        )
        assert proc.returncode == 0, proc.stderr
        assert "span profile" in proc.stdout
        assert "controller.rows_processed" in proc.stdout
        assert trace_file.exists()

        report = run_module("report", str(trace_file))
        assert report.returncode == 0, report.stderr
        assert "per-phase profile" in report.stdout
        assert "phase:fold" in report.stdout
        assert "batches: 3" in report.stdout

    def test_report_missing_events(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        proc = run_module("report", str(empty))
        assert proc.returncode == 1
        assert "no trace events" in proc.stdout


class TestDashboardExample:
    def test_dashboard(self):
        proc = subprocess.run(
            [sys.executable, str(EXAMPLES / "dashboard.py"), "8000", "3"],
            capture_output=True, text=True, timeout=240,
        )
        assert proc.returncode == 0, proc.stderr
        assert "dashboard tick 3/3" in proc.stdout
        assert "stream fully processed" in proc.stdout
        assert "±" in proc.stdout
