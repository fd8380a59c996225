"""Tests for the SLO histograms (repro.obs.slo) and their scheduler wiring."""

from __future__ import annotations

import math

import pytest

from repro.errors import ObservabilityError
from repro.obs.metrics import MetricsRegistry, set_metrics
from repro.obs.slo import MAX_TRACKED_WAVES, SLOTracker, hdr_buckets, slo_summary
from repro.obs.timeline import EventLog


class TestHdrBuckets:
    def test_bounds_strictly_increasing(self):
        bounds = hdr_buckets(1e-6, 10.0, precision_bits=2)
        assert bounds == sorted(bounds)
        assert len(set(bounds)) == len(bounds)
        assert bounds[-1] >= 10.0

    def test_relative_width_bounded_by_precision(self):
        for bits in (1, 2, 4):
            bounds = hdr_buckets(1e-3, 1.0, precision_bits=bits)
            max_rel = 1.0 / 2 ** bits
            for lo, hi in zip(bounds, bounds[1:]):
                assert (hi - lo) / lo <= max_rel + 1e-12

    def test_precision_zero_is_pure_powers_of_two(self):
        bounds = hdr_buckets(1.0, 16.0, precision_bits=0)
        assert bounds == [2.0, 4.0, 8.0, 16.0]

    def test_rejects_bad_ranges(self):
        with pytest.raises(ObservabilityError):
            hdr_buckets(0.0, 1.0)
        with pytest.raises(ObservabilityError):
            hdr_buckets(2.0, 1.0)
        with pytest.raises(ObservabilityError):
            hdr_buckets(1e-6, 1.0, precision_bits=9)

    def test_rejects_nan_max(self):
        with pytest.raises(ObservabilityError):
            hdr_buckets(1e-6, math.nan)

    def test_rejects_nan_min(self):
        with pytest.raises(ObservabilityError):
            hdr_buckets(math.nan, 1.0)

    def test_rejects_infinite_max(self):
        with pytest.raises(ObservabilityError):
            hdr_buckets(1e-6, math.inf)

    def test_histogram_quantile_error_bounded(self):
        from repro.obs.metrics import Histogram

        h = Histogram("repro.test.hdr", buckets=hdr_buckets(1e-6, 100.0,
                                                            precision_bits=4))
        values = [1e-5 * (1.17 ** i) for i in range(100)]  # stays < 100.0
        for v in values:
            h.observe(v)
        exact = sorted(values)[int(0.95 * len(values)) - 1]
        assert h.percentile(95.0) == pytest.approx(exact, rel=1.0 / 16 + 0.02)


def _event(kind, request_id=None, **attrs):
    return EventLog().emit(kind, 0.0, request_id=request_id, **attrs)


def _step(seconds, live_ids):
    return _event("decode_step", seconds=seconds, live_ids=live_ids)


class TestSLOTracker:
    def test_records_step_token_wave_candidate(self):
        reg = MetricsRegistry()
        tracker = SLOTracker(reg, engine_batch=4)
        tracker.apply(_step(1e-3, [0, 1, 4, 5]))   # waves 0 and 1
        tracker.apply(_step(2e-3, [4, 5]))
        tracker.apply(_event("complete", request_id=0, latency_seconds=5e-3))
        summary = slo_summary(reg)
        assert summary["repro.slo.step_latency_seconds"]["count"] == 2
        assert summary["repro.slo.token_latency_seconds"]["count"] == 6
        assert summary["repro.slo.wave0.token_latency_seconds"]["count"] == 2
        assert summary["repro.slo.wave1.token_latency_seconds"]["count"] == 4
        assert summary["repro.slo.candidate_latency_seconds"]["count"] == 1
        assert (summary["repro.slo.candidate_latency_seconds"]["p50"]
                == pytest.approx(5e-3, rel=0.3))

    def test_wave_cardinality_capped(self):
        reg = MetricsRegistry()
        tracker = SLOTracker(reg, engine_batch=1)
        for candidate in range(2 * MAX_TRACKED_WAVES):
            tracker.apply(_step(1e-4, [candidate]))
        wave_names = [n for n in reg.snapshot() if ".wave" in n]
        assert len(wave_names) <= MAX_TRACKED_WAVES
        last = f"repro.slo.wave{MAX_TRACKED_WAVES - 1}.token_latency_seconds"
        assert reg.snapshot()[last]["count"] == MAX_TRACKED_WAVES + 1

    def test_rejects_bad_batch(self):
        with pytest.raises(ObservabilityError):
            SLOTracker(MetricsRegistry(), engine_batch=0)

    def test_prefill_chunk_histogram_is_lazy(self):
        reg = MetricsRegistry()
        tracker = SLOTracker(reg, engine_batch=2)
        assert "repro.slo.prefill_chunk_seconds" not in reg.snapshot()
        tracker.apply(_event("prefill_chunk", seconds=2e-3))
        assert reg.snapshot()["repro.slo.prefill_chunk_seconds"]["count"] == 1

    def test_counts_one_per_event(self):
        reg = MetricsRegistry()
        tracker = SLOTracker(reg, engine_batch=2)
        for event in (_event("admit", request_id=0),
                      _event("admit", request_id=1),
                      _event("rebuild", request_id=0, tokens=2),
                      _event("evict", request_id=1, tokens=1),
                      _event("complete", request_id=1, latency_seconds=1e-3),
                      _event("retry", retry_kind="dma_timeout"),
                      _event("retry", retry_kind="dma_timeout"),
                      _event("retry", retry_kind="session_abort")):
            tracker.apply(event)
        snap = reg.snapshot()
        assert snap["repro.scheduler.admissions"]["value"] == 2
        assert snap["repro.scheduler.retired"]["value"] == 1
        assert snap["repro.resilience.rebuilds"]["value"] == 1
        assert snap["repro.resilience.evictions"]["value"] == 1
        assert snap["repro.resilience.step_retries"]["value"] == 3
        assert snap["repro.resilience.step_retries{kind=dma_timeout}"][
            "value"] == 2
        assert snap["repro.resilience.step_retries{kind=session_abort}"][
            "value"] == 1

    def test_summary_skips_empty_and_non_slo(self):
        reg = MetricsRegistry()
        SLOTracker(reg, engine_batch=2)  # instruments exist but are empty
        reg.histogram("repro.other.h").observe(1.0)
        reg.counter("repro.slo.not_a_histogram").inc()
        assert slo_summary(reg) == {}


class TestSchedulerIntegration:
    def _run(self, registry, n_candidates=6, batch=2):
        from repro.llm import (
            ContinuousBatchingScheduler,
            InferenceEngine,
            NPUTransformer,
            Sampler,
            TransformerWeights,
        )
        from repro.llm.config import tiny_config

        previous = set_metrics(registry)
        try:
            weights = TransformerWeights.generate(tiny_config(), seed=0)
            engine = InferenceEngine(NPUTransformer(weights), batch=batch,
                                     max_context=32, kv_backend="paged")
            scheduler = ContinuousBatchingScheduler(engine)
            return scheduler.generate(
                [1, 2, 3], n_candidates=n_candidates, max_new_tokens=4,
                sampler=Sampler(temperature=0.8, seed=0))
        finally:
            set_metrics(previous)

    def test_scheduler_populates_slo_histograms(self):
        reg = MetricsRegistry()
        result = self._run(reg)
        summary = slo_summary(reg)
        steps = summary["repro.slo.step_latency_seconds"]
        assert steps["count"] == result.n_steps
        assert steps["p50"] > 0.0
        assert steps["p99"] >= steps["p50"]
        # one candidate-latency observation per candidate
        assert (summary["repro.slo.candidate_latency_seconds"]["count"]
                == len(result.candidates))
        # one token observation per live candidate per step
        assert (summary["repro.slo.token_latency_seconds"]["count"]
                == sum(result.live_batch_per_step))
        # N=6 over batch 2 spans three lock-step waves
        waves = [n for n in summary if ".wave" in n]
        assert len(waves) == 3

    def test_candidate_latency_matches_sim_clock(self):
        reg = MetricsRegistry()
        result = self._run(reg, n_candidates=2, batch=2)
        hist = slo_summary(reg)["repro.slo.candidate_latency_seconds"]
        # a candidate cannot live longer than the whole run
        assert hist["max"] <= result.sim_seconds + 1e-12

    def test_scheduler_binds_the_registry_installed_at_run_time(self):
        from repro.llm import (
            ContinuousBatchingScheduler,
            InferenceEngine,
            NPUTransformer,
            Sampler,
            TransformerWeights,
        )
        from repro.llm.config import tiny_config

        weights = TransformerWeights.generate(tiny_config(), seed=0)
        engine = InferenceEngine(NPUTransformer(weights), batch=2,
                                 max_context=32, kv_backend="paged")
        # built under whatever registry is installed now, run under reg
        scheduler = ContinuousBatchingScheduler(engine)
        reg = MetricsRegistry()
        previous = set_metrics(reg)
        try:
            result = scheduler.generate(
                [1, 2, 3], n_candidates=4, max_new_tokens=4,
                sampler=Sampler(temperature=0.8, seed=0))
        finally:
            set_metrics(previous)
        snap = reg.snapshot()
        assert snap["repro.scheduler.admissions"]["value"] == 4
        assert snap["repro.scheduler.retired"]["value"] == 4
        assert snap["repro.scheduler.live_batch"]["max"] == 2
        for name in ("repro.resilience.step_retries",
                     "repro.resilience.evictions",
                     "repro.resilience.rebuilds"):
            assert snap[name]["value"] == 0
        assert (snap["repro.slo.step_latency_seconds"]["count"]
                == result.n_steps)
