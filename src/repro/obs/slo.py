"""SLO observability: HDR-style latency histograms for the serving path.

The paper's serving claims are latency-shaped — tokens/s at a batch
size, makespan of a Best-of-N wave — but means hide exactly the tail
behavior a serving SLO cares about.  This module gives the scheduler hot
path cheap streaming percentiles:

* :func:`hdr_buckets` builds HdrHistogram-style bucket bounds: each
  power-of-two range ("octave") is split into ``2**precision_bits``
  linear sub-buckets, so the relative width of every bucket — and hence
  the relative error of an interpolated percentile — is bounded by
  ``1 / 2**precision_bits`` regardless of where in the range a value
  lands.
* :class:`SLOTracker` folds the continuous-batching scheduler's
  timeline events into token-latency histograms — per decode step, per
  token, per admission wave, and per candidate lifetime — and into the
  scheduler's admission/retirement/resilience counters.  All of them
  are plain :class:`~repro.obs.metrics` instruments living in a
  :class:`~repro.obs.metrics.MetricsRegistry`, so they appear in every
  metrics snapshot, the ``repro profile`` report and the bench
  snapshots without extra plumbing.

Naming: the histograms live under ``repro.slo.*``; per-wave instruments
are ``repro.slo.wave<k>.token_latency_seconds`` (wave ``k`` =
``candidate_id // engine_batch``, the lock-step wave the candidate
would have belonged to).
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Union

from ..errors import ObservabilityError
from .metrics import Counter, Histogram, MetricsRegistry, get_metrics

__all__ = ["hdr_buckets", "SLOTracker", "slo_summary", "SLO_PERCENTILES",
           "histogram_summary", "percentile_cutoff"]


def percentile_cutoff(values: "List[int]", q: float) -> int:
    """Nearest-rank percentile over exact integer samples.

    The HDR histograms above trade exactness for streaming; the blame
    aggregator (:mod:`repro.obs.blame`) works on *finite, exact*
    integer-nanosecond latencies and conditions cohorts on them (every
    request at or above the p99 cutoff), so it needs the textbook
    nearest-rank cutoff, not an interpolated estimate — and an integer
    result keeps the explain report byte-stable.
    """
    if not values:
        raise ObservabilityError("percentile_cutoff needs samples")
    if not 0.0 < q <= 100.0:
        raise ObservabilityError(
            f"percentile q must be in (0, 100], got {q}")
    ranked = sorted(values)
    rank = math.ceil(q / 100.0 * len(ranked))
    return ranked[max(rank - 1, 0)]

SLO_PERCENTILES = (50.0, 95.0, 99.0)

#: Cap on distinct per-wave histograms; waves beyond it aggregate into
#: the last tracked wave's instrument so metric cardinality stays
#: bounded even for huge candidate budgets.
MAX_TRACKED_WAVES = 32


def hdr_buckets(min_value: float, max_value: float,
                precision_bits: int = 2) -> List[float]:
    """HdrHistogram-style bounds from ``min_value`` to >= ``max_value``.

    Every power-of-two octave ``[v, 2v)`` is split into
    ``2**precision_bits`` equal-width sub-buckets, bounding the relative
    quantile-interpolation error at ``2**-precision_bits``.  The default
    (4 sub-buckets per octave) keeps the scheduler's latency histograms
    at a few dozen buckets across nine decades.
    """
    if not (math.isfinite(min_value) and math.isfinite(max_value)):
        raise ObservabilityError(
            f"hdr_buckets needs finite bounds, got [{min_value}, {max_value}]")
    if min_value <= 0.0 or max_value <= min_value:
        raise ObservabilityError(
            f"hdr_buckets needs 0 < min < max, got [{min_value}, {max_value}]")
    if not 0 <= precision_bits <= 8:
        raise ObservabilityError(
            f"precision_bits must be in [0, 8], got {precision_bits}")
    sub = 2 ** precision_bits
    bounds: List[float] = []
    base = float(min_value)
    while base < max_value:
        width = base / sub
        for i in range(1, sub + 1):
            bound = base + i * width
            if not bounds or bound > bounds[-1]:
                bounds.append(bound)
        base *= 2.0
    return bounds


def _default_latency_buckets() -> List[float]:
    """1 microsecond .. ~134 simulated seconds, 4 sub-buckets/octave."""
    return hdr_buckets(1e-6, 134.0, precision_bits=2)


#: Scheduler counters, one per event kind: each event increments its
#: counter once.
_EVENT_COUNTERS = (("admit", "repro.scheduler.admissions"),
                   ("complete", "repro.scheduler.retired"),
                   ("retry", "repro.resilience.step_retries"),
                   ("evict", "repro.resilience.evictions"),
                   ("rebuild", "repro.resilience.rebuilds"))


class SLOTracker:
    """Folds scheduler timeline events into SLO histograms and counters.

    One tracker is created per scheduler run and binds every instrument
    from the registry installed when the run starts, so a profiled or
    benched run that installs a fresh registry starts its percentiles
    and counters from zero.  :meth:`apply` folds ``decode_step``
    (step latency, plus one token latency per live candidate and its
    wave), ``complete`` (candidate latency) and ``prefill_chunk``
    (chunk latency), and counts ``admit``/``complete``/``retry``/
    ``evict``/``rebuild`` events; retries are also counted per kind.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None,
                 engine_batch: int = 1,
                 buckets: Optional[List[float]] = None) -> None:
        if engine_batch <= 0:
            raise ObservabilityError(
                f"engine_batch must be positive, got {engine_batch}")
        self._registry = registry if registry is not None else get_metrics()
        self._engine_batch = engine_batch
        self._buckets = buckets if buckets is not None \
            else _default_latency_buckets()
        self._step = self._histogram("repro.slo.step_latency_seconds")
        self._token = self._histogram("repro.slo.token_latency_seconds")
        self._candidate = self._histogram(
            "repro.slo.candidate_latency_seconds")
        self._waves: Dict[int, Histogram] = {}
        self._counters: Dict[str, Counter] = {
            kind: self._registry.counter(name)
            for kind, name in _EVENT_COUNTERS}

    def _histogram(self, name: str) -> Histogram:
        return self._registry.histogram(name, self._buckets)

    def _wave_histogram(self, wave: int) -> Histogram:
        wave = min(wave, MAX_TRACKED_WAVES - 1)
        hist = self._waves.get(wave)
        if hist is None:
            hist = self._histogram(
                f"repro.slo.wave{wave}.token_latency_seconds")
            self._waves[wave] = hist
        return hist

    def apply(self, event: Any) -> None:
        """Fold one timeline event into the histograms and counters.

        Each live candidate of a decode step commits one token, so the
        step's simulated latency *is* its token latency.
        """
        kind = event.kind
        attrs = event.attrs
        if kind == "decode_step":
            seconds = attrs["seconds"]
            self._step.observe(seconds)
            for candidate_id in attrs["live_ids"]:
                self._token.observe(seconds)
                self._wave_histogram(
                    candidate_id // self._engine_batch).observe(seconds)
        elif kind == "complete":
            self._candidate.observe(attrs["latency_seconds"])
        elif kind == "prefill_chunk":
            # bound on first use: runs without chunked prefill keep their
            # metrics snapshot free of the instrument
            self._histogram("repro.slo.prefill_chunk_seconds").observe(
                attrs["seconds"])
        elif kind == "retry":
            self._registry.counter("repro.resilience.step_retries",
                                   labels={"kind": attrs["retry_kind"]}).inc()
        counter = self._counters.get(kind)
        if counter is not None:
            counter.inc()


def histogram_summary(hist: Histogram) -> Dict[str, float]:
    """The canonical SLO percentile summary of one histogram.

    The same shape :func:`slo_summary` extracts from a registry
    snapshot, plus ``overflow`` — callers aggregating per-device
    histograms (the fleet layer) need saturation to stay visible after
    a mixed-resolution :meth:`~repro.obs.metrics.Histogram.merge`.
    Empty histograms summarize to zeros rather than raising, so report
    shapes stay total.
    """
    if hist.count == 0:
        return {"count": 0.0, "mean": 0.0, "p50": 0.0, "p95": 0.0,
                "p99": 0.0, "max": 0.0, "overflow": 0.0}
    return {
        "count": float(hist.count),
        "mean": hist.mean,
        "p50": hist.percentile(50.0),
        "p95": hist.percentile(95.0),
        "p99": hist.percentile(99.0),
        "max": hist.max,
        "overflow": float(hist.overflow),
    }


def slo_summary(source: Union[MetricsRegistry, Dict[str, Dict[str, Any]]]
                ) -> Dict[str, Dict[str, float]]:
    """Extract ``repro.slo.*`` histogram summaries from a registry or a
    registry snapshot, keyed by metric name.

    The engine's lock-step decode histogram
    (``repro.engine.decode_step_seconds``) is included too so
    non-scheduler runs still report token-latency percentiles.
    """
    snapshot = source.snapshot() if isinstance(source, MetricsRegistry) \
        else source
    out: Dict[str, Dict[str, float]] = {}
    for name, entry in sorted(snapshot.items()):
        if entry.get("type") != "histogram":
            continue
        if not (name.startswith("repro.slo.")
                or name == "repro.engine.decode_step_seconds"):
            continue
        if not entry.get("count"):
            continue
        out[name] = {
            "count": float(entry["count"]),
            "mean": float(entry["mean"]),
            "p50": float(entry["p50"]),
            "p95": float(entry["p95"]),
            "p99": float(entry["p99"]),
            "max": float(entry["max"]),
        }
    return out
