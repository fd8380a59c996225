"""Acceptance tests for the bench suite and its regression gate.

Proves the ISSUE-level contract: ``repro bench run`` emits a
schema-valid ``BENCH_<n>.json`` covering the canonical scenarios with a
git-sha/seed fingerprint, ``repro bench --check`` exits 0 against the
committed ``benchmarks/baseline.json``, and exits 2 when a synthetic
20% sim-time regression is injected.
"""

from __future__ import annotations

import copy
import io
import json
import os

import pytest

from repro.cli import main as cli_main
from repro.obs.bench import (
    BenchSnapshot,
    DEFAULT_BASELINE_PATH,
    compare_snapshots,
    run_suite,
    validate_snapshot,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASELINE = os.path.join(REPO_ROOT, DEFAULT_BASELINE_PATH)


def _run_cli(argv):
    out = io.StringIO()
    status = cli_main(argv, out=out)
    return status, out.getvalue()


@pytest.fixture(scope="module")
def suite_snapshot():
    """One full suite run shared across the module (it is deterministic)."""
    return run_suite()


class TestSuiteSnapshot:
    def test_covers_canonical_scenarios(self, suite_snapshot):
        assert len(suite_snapshot.records) >= 6
        assert {"decode.greedy", "prefill", "waves.n4", "waves.n16",
                "chaos.waves", "speculative.greedy", "kernel.gemm",
                "kernel.attention"} <= set(suite_snapshot.records)

    def test_written_snapshot_is_schema_valid(self, suite_snapshot, tmp_path):
        path = suite_snapshot.write(str(tmp_path / "BENCH_0.json"))
        with open(path) as handle:
            data = json.load(handle)
        validate_snapshot(data)
        assert data["fingerprint"]["git_sha"]
        assert data["fingerprint"]["seed"] == 0
        for record in data["records"].values():
            assert record["metrics"]

    def test_scheduler_scenarios_report_slo_percentiles(self, suite_snapshot):
        for name in ("waves.n4", "waves.n16", "chaos.waves"):
            metrics = suite_snapshot.records[name].metrics
            for key in ("token_latency_p50_seconds",
                        "token_latency_p95_seconds",
                        "token_latency_p99_seconds"):
                assert metrics[key] > 0.0
            assert (metrics["token_latency_p99_seconds"]
                    >= metrics["token_latency_p50_seconds"])

    def test_engine_utilization_recorded(self, suite_snapshot):
        metrics = suite_snapshot.records["decode.greedy"].metrics
        assert 0.0 < metrics["util_hvx"] <= 1.0
        assert 0.0 <= metrics["util_hmx"] <= 1.0

    def test_matches_committed_baseline(self, suite_snapshot):
        baseline = BenchSnapshot.load(BASELINE)
        report = compare_snapshots(baseline, suite_snapshot)
        assert report.ok, "\n" + report.render()


class TestBenchCLIGate:
    def test_cli_run_writes_numbered_snapshot(self, tmp_path):
        out_dir = str(tmp_path / "history")
        status, text = _run_cli(["bench", "run", "--only", "kernel.gemm",
                                 "--out-dir", out_dir])
        assert status == 0
        assert "BENCH_0.json" in text
        with open(os.path.join(out_dir, "BENCH_0.json")) as handle:
            validate_snapshot(json.load(handle))
        status, text = _run_cli(["bench", "run", "--only", "kernel.gemm",
                                 "--out-dir", out_dir])
        assert status == 0
        assert "BENCH_1.json" in text

    def test_check_against_committed_baseline_passes(self):
        status, text = _run_cli(["bench", "--check", "--baseline", BASELINE])
        assert status == 0, text
        assert "verdict: OK" in text

    def test_check_exits_2_on_synthetic_regression(self, tmp_path):
        """A 20% sim-time slowdown relative to baseline must gate."""
        with open(BASELINE) as handle:
            doctored = json.load(handle)
        for record in doctored["records"].values():
            metrics = record["metrics"]
            if "sim_seconds" in metrics:
                # shrink the baseline so the (unchanged) candidate run
                # reads as 20% slower
                metrics["sim_seconds"] /= 1.2
        doctored_path = tmp_path / "baseline.json"
        doctored_path.write_text(json.dumps(doctored))
        status, text = _run_cli(["bench", "--check",
                                 "--baseline", str(doctored_path)])
        assert status == 2
        assert "REGRESSION" in text
        assert "sim_seconds" in text

    def test_check_with_missing_baseline_exits_2_with_hint(self, tmp_path):
        status, text = _run_cli(["bench", "--check", "--only", "kernel.gemm",
                                 "--baseline", str(tmp_path / "none.json")])
        assert status == 2
        assert "--update-baseline" in text

    def test_update_baseline_then_check_round_trips(self, tmp_path):
        baseline = str(tmp_path / "baseline.json")
        status, _ = _run_cli(["bench", "--update-baseline",
                              "--baseline", baseline,
                              "--only", "kernel.gemm", "--only",
                              "kernel.attention"])
        assert status == 0
        status, text = _run_cli(["bench", "--check", "--baseline", baseline,
                                 "--only", "kernel.gemm", "--only",
                                 "kernel.attention"])
        assert status == 0, text
        assert "verdict: OK" in text

    def test_subset_check_skips_missing_scenarios(self, tmp_path):
        """--only against a full baseline lists, but never gates on,
        the scenarios that did not run."""
        status, text = _run_cli(["bench", "--check", "--baseline", BASELINE,
                                 "--only", "kernel.gemm"])
        assert status == 0, text
        assert "in baseline only (skipped)" in text

    def test_list_scenarios(self):
        status, text = _run_cli(["bench", "--list-scenarios"])
        assert status == 0
        assert "decode.greedy" in text
        assert "chaos.waves" in text

    def test_json_to_stdout_is_schema_valid(self, tmp_path):
        status, text = _run_cli(["bench", "run", "--only", "kernel.gemm",
                                 "--json", "-", "--out-dir", str(tmp_path)])
        # --json - prints the snapshot amid the human-readable lines
        assert status == 0
        payload, _ = json.JSONDecoder().raw_decode(text, text.index("{"))
        validate_snapshot(payload)


class TestDeterminism:
    def test_suite_is_bitwise_deterministic(self, suite_snapshot):
        assert run_suite().to_json() == suite_snapshot.to_json()
