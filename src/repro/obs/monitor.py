"""``repro monitor``: replay a scenario and render live-style telemetry.

Production monitoring watches a serving fleet; the simulator's
equivalent replays a registered bench scenario (:mod:`repro.obs.bench`)
with the structured event log armed, then folds the recorded timeline
into the full streaming stack:

* per-request causal timelines (:mod:`repro.obs.timeline`),
* windowed metric streams (:mod:`repro.obs.stream`) — tokens/s, p95
  step latency, fault rate, governor level, KV occupancy, watts,
* online anomaly detection (:mod:`repro.obs.anomaly`) over the latency
  /fault/governor series,
* energy attribution (:mod:`repro.obs.energy`) — joules per phase and
  tokens-per-joule.

Everything in the report derives from the **simulated** clock, so the
``--json`` output (schema ``repro.monitor/v1``) is byte-identical
across runs and machines for a fixed (scenario, device, seed) — the CI
monitor-smoke job asserts exactly that, and asserts that the chaos
scenario's planned throttle/fault windows are flagged while the
fault-free greedy scenario flags nothing.  The simulator's own host
time is measured by ``perfbench/run.py --trace 1``, not here.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..errors import ObservabilityError
from .anomaly import AnomalyEvent, default_detectors, detect_series
from .bench import DEFAULT_DEVICE, DEFAULT_SEED, _replay
from .stream import MetricStream, stream_from_log
from .timeline import EventLog

__all__ = ["MONITOR_SCHEMA", "MAX_MONITOR_WINDOWS", "MonitorReport",
           "run_monitor", "WATCHED_SERIES"]

MONITOR_SCHEMA = "repro.monitor/v1"

#: Most windows one report folds.  The stream materializes every window
#: from time zero to the last event, so a width far below the recorded
#: span would otherwise allocate span/width windows.
MAX_MONITOR_WINDOWS = 4096

#: (metric, stat, detector names, require samples) series the anomaly
#: detectors watch.  Latency catches throttle cliffs but is only
#: meaningful in windows that actually ran steps (idle backoff windows
#: carry no latency measurement, not a zero); the fault/retry counters
#: catch injected chaos as spikes (rate-of-change is excluded there —
#: a counter falling back to zero is recovery, not an anomaly);
#: governor level catches DVFS transitions.  Volume series (tokens/s,
#: KV blocks) are deliberately excluded: they drift with admission
#: waves and context growth, which is load, not anomaly.
WATCHED_SERIES: Tuple[Tuple[str, str, Tuple[str, ...], bool], ...] = (
    ("step_latency_seconds", "mean",
     ("ewma", "mad", "rate_of_change"), True),
    ("step_latency_seconds", "p95",
     ("ewma", "mad", "rate_of_change"), True),
    ("faults", "value", ("ewma", "mad"), False),
    ("retries", "value", ("ewma", "mad"), False),
    ("governor_level", "value", ("ewma", "mad", "rate_of_change"), False),
)


@dataclass
class MonitorReport:
    """Rendered result of one monitored scenario replay."""

    scenario: str
    device: str
    seed: int
    window_seconds: float
    n_events: int
    span_seconds: float
    requests: List[Dict[str, Any]] = field(default_factory=list)
    windows: List[Dict[str, Any]] = field(default_factory=list)
    anomalies: List[AnomalyEvent] = field(default_factory=list)
    energy: Dict[str, float] = field(default_factory=dict)
    tokens: float = 0.0
    bench_metrics: Dict[str, float] = field(default_factory=dict)
    # run artifacts for trace export; never serialized into to_json()
    tracer: Any = None
    log: Any = None
    timing: Any = None

    @property
    def tokens_per_joule(self) -> float:
        total = self.energy.get("total_j", 0.0)
        return self.tokens / total if total > 0.0 else 0.0

    def to_json(self) -> Dict[str, Any]:
        return {
            "schema": MONITOR_SCHEMA,
            "scenario": self.scenario,
            "device": self.device,
            "seed": self.seed,
            "window_seconds": self.window_seconds,
            "n_events": self.n_events,
            "span_seconds": self.span_seconds,
            "requests": self.requests,
            "windows": self.windows,
            "anomalies": [a.to_json() for a in self.anomalies],
            "energy": {k: self.energy[k] for k in sorted(self.energy)},
            "tokens": self.tokens,
            "tokens_per_joule": self.tokens_per_joule,
            "bench_metrics": {k: self.bench_metrics[k]
                              for k in sorted(self.bench_metrics)},
        }

    def to_json_text(self) -> str:
        """Canonical serialization (sorted keys) for byte-wise diffing."""
        return json.dumps(self.to_json(), indent=2, sort_keys=True) + "\n"

    def render(self) -> str:
        lines: List[str] = []
        lines.append(f"== monitor: {self.scenario} on {self.device} "
                     f"(seed {self.seed}) ==")
        lines.append(f"events             {self.n_events}")
        lines.append(f"simulated span     {self.span_seconds * 1e3:.3f} ms")
        lines.append(f"window width       "
                     f"{self.window_seconds * 1e3:.3f} ms")
        lines.append(f"requests           {len(self.requests)}")
        lines.append(f"total joules       "
                     f"{self.energy.get('total_j', 0.0):.6f}")
        if self.tokens_per_joule > 0.0:
            lines.append(f"tokens per joule   {self.tokens_per_joule:.1f}")

        if self.windows:
            lines.append("")
            lines.append("== windows (simulated time) ==")
            lines.append(f"{'#':>3s} {'start ms':>9s} {'tok/s':>10s} "
                         f"{'p95 us':>9s} {'faults':>6s} {'retries':>7s} "
                         f"{'gov':>4s} {'kv':>4s} {'watts':>7s}")
            for w in self.windows:
                lines.append(
                    f"{w['index']:>3d} {w['start'] * 1e3:>9.3f} "
                    f"{w['tokens_per_second']:>10.0f} "
                    f"{w['token_latency_p95'] * 1e6:>9.1f} "
                    f"{int(w['faults']):>6d} {int(w['retries']):>7d} "
                    f"{int(w['governor_level']):>4d} "
                    f"{int(w['kv_blocks']):>4d} {w['watts']:>7.3f}")

        lines.append("")
        if self.anomalies:
            lines.append(f"== anomalies ({len(self.anomalies)}) ==")
            for a in self.anomalies:
                lines.append(
                    f"window {a.window_index:>3d}  {a.metric:<24s} "
                    f"{a.detector:<15s} value={a.value:.6g} "
                    f"score={a.score:.2f} (threshold {a.threshold:g})")
        else:
            lines.append("== anomalies (0) ==")
            lines.append("no anomalies detected")

        if self.requests:
            lines.append("")
            lines.append("== request timelines ==")
            lines.append(f"{'id':>3s} {'admit ms':>9s} {'done ms':>9s} "
                         f"{'tokens':>6s} {'joules':>10s} {'reason':<9s} "
                         f"events")
            for r in self.requests:
                lines.append(
                    f"{r['request_id']:>3d} "
                    f"{r['admitted_seconds'] * 1e3:>9.3f} "
                    f"{r['completed_seconds'] * 1e3:>9.3f} "
                    f"{int(r['tokens']):>6d} {r['joules']:>10.6f} "
                    f"{r['reason']:<9s} {r['chain']}")
        return "\n".join(lines) + "\n"


def _request_summaries(log: EventLog) -> List[Dict[str, Any]]:
    out: List[Dict[str, Any]] = []
    for request_id, chain in log.chains().items():
        admits = [e for e in chain if e.kind == "admit"]
        completes = [e for e in chain if e.kind == "complete"]
        last = completes[-1] if completes else chain[-1]
        admitted = admits[0].sim_time if admits else chain[0].sim_time
        kinds: List[str] = []
        for event in chain:
            if not kinds or kinds[-1] != event.kind:
                kinds.append(event.kind)
        out.append({
            "request_id": request_id,
            "admitted_seconds": admitted,
            "completed_seconds": last.sim_time,
            "tokens": float(last.attrs.get("tokens", 0)),
            "latency_seconds": float(
                last.attrs.get("latency_seconds",
                               last.sim_time - admitted)),
            "joules": float(last.attrs.get("joules", 0.0)),
            "reason": str(last.attrs.get("reason", "")),
            "n_events": len(chain),
            "chain": "->".join(kinds),
        })
    return out


def _window_rows(stream: MetricStream) -> List[Dict[str, Any]]:
    rows: List[Dict[str, Any]] = []
    for window in stream.windows():
        joules = window.value("joules")
        rows.append({
            "index": window.index,
            "start": window.start,
            "end": window.end,
            "tokens": window.value("tokens"),
            "tokens_per_second": window.value("tokens", "rate"),
            "token_latency_p95": window.value("step_latency_seconds", "p95"),
            "token_latency_mean": window.value("step_latency_seconds",
                                               "mean"),
            "steps": window.value("step_latency_seconds", "count"),
            "faults": window.value("faults"),
            "retries": window.value("retries"),
            "evictions": window.value("evictions"),
            "rebuilds": window.value("rebuilds"),
            "completions": window.value("completions"),
            "sheds": window.value("sheds"),
            "dispatches": window.value("dispatches"),
            "failovers": window.value("failovers"),
            "hedges": window.value("hedges"),
            "device_downs": window.value("device_downs"),
            "breaker_opens": window.value("breaker_opens"),
            "queue_wait_p95": window.value("queue_wait_seconds", "p95"),
            "governor_level": window.value("governor_level"),
            "kv_blocks": window.value("kv_blocks"),
            "live_batch": window.value("live_batch"),
            "joules": joules,
            "watts": (joules / window.seconds
                      if window.seconds > 0.0 else 0.0),
        })
    return rows


def _energy_totals(log: EventLog) -> Tuple[Dict[str, float], float]:
    """(phase joules, total tokens) folded straight from the event log."""
    totals = {"total_j": 0.0, "prefill_j": 0.0, "decode_j": 0.0,
              "rebuild_j": 0.0, "idle_j": 0.0}
    tokens = 0.0
    for event in log.events():
        joules = float(event.attrs.get("joules", 0.0))
        if event.kind == "prefill":
            totals["prefill_j"] += joules
        elif event.kind == "decode_step":
            totals["decode_j"] += joules
            tokens += float(event.attrs.get("live_batch", 0))
        elif event.kind == "rebuild":
            totals["rebuild_j"] += joules
        elif event.kind == "retry":
            totals["idle_j"] += joules
        else:
            continue
        totals["total_j"] += joules
    return totals, tokens


def run_monitor(scenario: str = "chaos.waves",
                device_key: str = DEFAULT_DEVICE,
                seed: int = DEFAULT_SEED,
                n_windows: int = 8,
                window_seconds: Optional[float] = None) -> MonitorReport:
    """Replay ``scenario`` with the event log armed; build the report.

    The replay is :func:`~repro.obs.bench.run_scenario`'s, with the
    event log installed; with a simulated device every value is a pure
    function of (scenario, device, seed).  ``window_seconds`` defaults
    to the recorded span divided into ``n_windows`` equal windows.  A
    width must be finite and give at most :data:`MAX_MONITOR_WINDOWS`
    windows from time zero to the last event.
    """
    if n_windows <= 0:
        raise ObservabilityError(
            f"n_windows must be positive, got {n_windows}")
    if window_seconds is not None and not 0.0 < window_seconds < math.inf:
        raise ObservabilityError(
            f"window_seconds must be positive and finite, got "
            f"{window_seconds}")
    log = EventLog(enabled=True)
    record, ctx = _replay(scenario, device_key, seed, log=log)

    start, end = log.span()
    span = max(end - start, 0.0)
    if window_seconds is None:
        window_seconds = (span / n_windows if span > 0.0
                          else 1e-3)
        # nudge past the last event so it does not open window n_windows
        window_seconds *= 1.0 + 1e-9
    if end / window_seconds >= MAX_MONITOR_WINDOWS:
        raise ObservabilityError(
            f"a {window_seconds:g} s window over a run ending at "
            f"{end:g} s gives more than {MAX_MONITOR_WINDOWS} windows")
    stream = stream_from_log(log, window_seconds=window_seconds)

    anomalies: List[AnomalyEvent] = []
    windows = stream.windows()
    for metric, stat, detector_names, require_samples in WATCHED_SERIES:
        points = [(w.index, w.start, w.value(metric, stat))
                  for w in windows
                  if not require_samples
                  or w.value(metric, "count") > 0.0]
        label = metric if stat == "value" else f"{metric}.{stat}"
        detectors = [d for d in default_detectors()
                     if d.name in detector_names]
        anomalies.extend(detect_series(label, points, detectors))
    anomalies.sort(key=lambda a: (a.window_index, a.metric, a.detector))

    energy, tokens = _energy_totals(log)
    return MonitorReport(
        scenario=scenario, device=device_key, seed=seed,
        window_seconds=window_seconds, n_events=len(log),
        span_seconds=span,
        requests=_request_summaries(log),
        windows=_window_rows(stream),
        anomalies=anomalies,
        energy=energy,
        tokens=tokens,
        bench_metrics={k: float(v) for k, v in record.metrics.items()},
        tracer=ctx.tracer, log=log, timing=ctx.timing)
