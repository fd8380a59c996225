"""Tests for ``repro monitor`` (repro.obs.monitor + CLI wiring)."""

from __future__ import annotations

import io
import json
import math
import os
import resource
import subprocess
import sys

import pytest

import repro
from repro.cli import main
from repro.errors import ObservabilityError
from repro.obs.monitor import MAX_MONITOR_WINDOWS, MONITOR_SCHEMA, run_monitor
from repro.obs.stream import MetricStream


@pytest.fixture(scope="module")
def chaos_report():
    return run_monitor("chaos.waves")


class TestRunMonitor:
    def test_chaos_scenario_flags_planned_fault_windows(self, chaos_report):
        assert chaos_report.anomalies, (
            "the chaos fault plan must be flagged")
        metrics = {a.metric for a in chaos_report.anomalies}
        # the injected faults/retries and the governor throttle/restore
        # are exactly the planned chaos — both must surface
        assert metrics & {"faults", "retries"}
        assert "governor_level" in metrics
        for anomaly in chaos_report.anomalies:
            assert anomaly.score > anomaly.threshold
            assert anomaly.evidence

    def test_fault_free_scenario_flags_nothing(self):
        report = run_monitor("decode.greedy")
        assert report.anomalies == []
        assert report.energy["total_j"] > 0.0

    def test_report_is_byte_identical_across_runs(self, chaos_report):
        again = run_monitor("chaos.waves")
        assert chaos_report.to_json_text() == again.to_json_text()

    def test_report_shape(self, chaos_report):
        data = chaos_report.to_json()
        assert data["schema"] == MONITOR_SCHEMA
        assert data["scenario"] == "chaos.waves"
        assert data["n_events"] > 0
        assert data["windows"], "windows must cover the run"
        assert data["requests"], "per-request timelines must be present"
        assert data["tokens_per_joule"] > 0.0
        for request in data["requests"]:
            assert request["chain"].startswith("queue->admit")
            assert request["chain"].endswith("complete")
        # energy buckets roll up to the total
        energy = data["energy"]
        parts = (energy["prefill_j"] + energy["decode_j"]
                 + energy["rebuild_j"] + energy["idle_j"])
        assert energy["total_j"] == pytest.approx(parts)

    def test_windows_derive_rates_and_watts(self, chaos_report):
        busy = [w for w in chaos_report.windows if w["tokens"] > 0]
        assert busy
        for window in busy:
            assert window["tokens_per_second"] > 0.0
            assert window["watts"] >= 0.0

    def test_explicit_window_width_is_respected(self):
        report = run_monitor("chaos.waves", window_seconds=5e-3)
        assert report.window_seconds == 5e-3
        assert len(report.windows) >= 2

    def test_rejects_unknown_scenario_device_and_bad_windows(self):
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            run_monitor("no.such.scenario")
        with pytest.raises(ReproError):
            run_monitor("chaos.waves", device_key="tricorder")
        with pytest.raises(ReproError):
            run_monitor("chaos.waves", n_windows=0)
        with pytest.raises(ReproError):
            run_monitor("chaos.waves", window_seconds=0.0)

    def test_rejects_a_width_that_is_not_finite(self):
        for width in (math.inf, math.nan):
            with pytest.raises(ObservabilityError):
                run_monitor("decode.greedy", window_seconds=width)
            with pytest.raises(ObservabilityError):
                MetricStream(window_seconds=width)

    def test_window_count_is_capped(self):
        _, end = run_monitor("decode.greedy").log.span()
        report = run_monitor("decode.greedy",
                             window_seconds=end / (MAX_MONITOR_WINDOWS - 8))
        assert MAX_MONITOR_WINDOWS - 8 <= len(report.windows) \
            <= MAX_MONITOR_WINDOWS
        with pytest.raises(ObservabilityError):
            run_monitor("decode.greedy",
                        window_seconds=end / (MAX_MONITOR_WINDOWS + 8))
        with pytest.raises(ObservabilityError):
            run_monitor("decode.greedy", n_windows=MAX_MONITOR_WINDOWS + 1)

    def test_global_event_log_restored_after_run(self):
        from repro.obs.timeline import get_event_log, timeline_enabled

        before = get_event_log()
        run_monitor("chaos.waves")
        assert get_event_log() is before
        assert timeline_enabled() is False


class TestMonitorCli:
    def _run(self, *argv):
        out = io.StringIO()
        status = main(list(argv), out=out)
        return status, out.getvalue()

    def test_text_report_renders(self):
        status, text = self._run("monitor")
        assert status == 0
        assert "== windows (simulated time) ==" in text
        assert "== anomalies (" in text
        assert "== request timelines ==" in text

    def test_json_stdout_is_schema_tagged_and_stable(self):
        status1, first = self._run("monitor", "--json", "-")
        status2, second = self._run("monitor", "--json", "-")
        assert status1 == status2 == 0
        assert first == second
        payload = first[first.index('{"'):] if '{"' in first \
            else first[first.index("{"):]
        data = json.loads(payload)
        assert data["schema"] == MONITOR_SCHEMA

    def test_json_file_output(self, tmp_path):
        path = tmp_path / "monitor.json"
        status, _ = self._run("monitor", "--json", str(path))
        assert status == 0
        data = json.loads(path.read_text())
        assert data["schema"] == MONITOR_SCHEMA

    def test_min_anomalies_gate(self):
        status, _ = self._run("monitor", "--min-anomalies", "1")
        assert status == 0
        status, text = self._run("monitor", "--min-anomalies", "99")
        assert status == 2
        assert "expected >= 99" in text

    def test_max_anomalies_gate_on_quiet_scenario(self):
        status, _ = self._run("monitor", "--scenario", "decode.greedy",
                              "--max-anomalies", "0")
        assert status == 0
        status, text = self._run("monitor", "--max-anomalies", "0")
        assert status == 2
        assert "expected <= 0" in text

    def test_trace_out_contains_request_lanes(self, tmp_path):
        path = tmp_path / "trace.json"
        status, text = self._run("monitor", "--trace-out", str(path))
        assert status == 0
        trace = json.loads(path.read_text())
        assert "thread_name" in {e.get("name") for e in trace["traceEvents"]}
        lanes = [e for e in trace["traceEvents"]
                 if e.get("ph") == "M" and e.get("name") == "thread_name"
                 and str(e.get("args", {}).get("name", "")).startswith(
                     "request ")]
        assert lanes, "per-request timeline lanes must be exported"

    def test_unknown_scenario_exits_2(self):
        status, text = self._run("monitor", "--scenario", "nope")
        assert status == 2
        assert "error:" in text

    def test_window_ms_flag(self):
        status, text = self._run("monitor", "--window-ms", "5")
        assert status == 0
        assert "window width" in text


def _cap_address_space() -> None:
    limit = 2 << 30
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def _run_child(*argv: str) -> subprocess.CompletedProcess:
    """``python -m repro ARGV`` in a child bounded in time and memory.

    A hang surfaces as ``subprocess.TimeoutExpired``; the 2 GiB
    address-space cap turns runaway window allocation into a failed run
    rather than a host out of memory.
    """
    src = os.path.dirname(os.path.dirname(repro.__file__))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=src if not path else src + os.pathsep + path)
    return subprocess.run([sys.executable, "-m", "repro", *argv], env=env,
                          capture_output=True, text=True, timeout=60,
                          preexec_fn=_cap_address_space)


class TestMonitorBoundaries:
    def test_infinite_window_width_exits_2(self):
        child = _run_child("monitor", "--scenario", "decode.greedy",
                           "--window-ms", "inf")
        assert child.returncode == 2, child.stdout + child.stderr
        assert "error:" in child.stdout
        assert "nan" not in child.stdout

    def test_window_width_beyond_the_window_cap_exits_2(self):
        child = _run_child("monitor", "--scenario", "decode.greedy",
                           "--windows", "3", "--window-ms", "1e-300")
        assert child.returncode == 2, child.stdout + child.stderr
        assert "error:" in child.stdout
