"""Committed golden fixtures: kernel outputs, decode traces, formats.

The differential oracles compare two *live* executions; goldens pin the
stack against its own past.  Each :class:`GoldenCase` regenerates one
deterministic artifact — a kernel output tensor (``.npz``), a decode
trace (``.json``), or an on-disk format digest — and
:func:`check_goldens` compares the regeneration against the committed
fixture bitwise.  Any intentional numerical change (a kernel rewrite, a
quantization tweak) must therefore show up as an explicit
``repro goldens --update`` diff in review, never as a silent drift.

CLI::

    repro goldens --check            # exit 1 on any mismatch
    repro goldens --update           # rewrite fixtures in place
    repro goldens --check --only decode_tiny

Fixtures live in ``src/repro/testing/_goldens/`` so the CLI finds them
from any working directory.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..errors import TestingError
from .oracles import _tiny_model, _tiny_weights

__all__ = [
    "GOLDEN_DIR",
    "GoldenCase",
    "GoldenMismatch",
    "GOLDEN_CASES",
    "check_goldens",
    "update_goldens",
]

GOLDEN_DIR = Path(__file__).resolve().parent / "_goldens"

_PROMPT = [3, 1, 4, 1, 5, 9, 2, 6]


@dataclass(frozen=True)
class GoldenCase:
    """One regenerable artifact with a committed reference fixture."""

    name: str
    kind: str          # "npz" | "json"
    description: str
    build: Callable[[], Dict]

    @property
    def filename(self) -> str:
        return f"{self.name}.{self.kind}"


@dataclass(frozen=True)
class GoldenMismatch:
    """One divergence between a fixture and its regeneration."""

    case: str
    path: str
    message: str


GOLDEN_CASES: Dict[str, GoldenCase] = {}


def _register(name: str, kind: str, description: str):
    if kind not in ("npz", "json"):
        raise TestingError(f"unknown golden kind {kind!r}")

    def wrap(fn: Callable[[], Dict]) -> Callable[[], Dict]:
        if name in GOLDEN_CASES:
            raise TestingError(f"duplicate golden case {name!r}")
        GOLDEN_CASES[name] = GoldenCase(name=name, kind=kind,
                                        description=description, build=fn)
        return fn
    return wrap


# ----------------------------------------------------------------------
# cases: kernels
# ----------------------------------------------------------------------
@_register("gemm_q4", "npz",
           "W4A16 GEMM output, 'ours' strategy, 24x64 @ 64x40")
def _gemm_q4() -> Dict:
    from ..kernels.gemm import MixedPrecisionGemm

    rng = np.random.default_rng(2024)
    activations = rng.normal(0.0, 1.0, (24, 64)).astype(np.float16)
    weight = rng.normal(0.0, 0.125, (64, 40))
    gemm = MixedPrecisionGemm(strategy="ours", bits=4)
    prepared = gemm.prepare_weight(weight)
    output, _ = gemm(activations, prepared)
    return {"output": output,
            "dequantized_weight": prepared.dequantized_matrix}


@_register("gemm_q8", "npz",
           "W8A16 GEMM output (the FFN down-projection path), 16x64 @ 64x32")
def _gemm_q8() -> Dict:
    from ..kernels.gemm import MixedPrecisionGemm

    rng = np.random.default_rng(2025)
    activations = rng.normal(0.0, 1.0, (16, 64)).astype(np.float16)
    weight = rng.normal(0.0, 0.125, (64, 32))
    gemm = MixedPrecisionGemm(strategy="ours", bits=8)
    prepared = gemm.prepare_weight(weight)
    output, _ = gemm(activations, prepared)
    return {"output": output,
            "dequantized_weight": prepared.dequantized_matrix}


@_register("awq_q4", "json",
           "AWQ search on a 72x48 weight (padded to 96x64) and a 16-token "
           "calibration batch, with its AoS-packed Q4 bytes")
def _awq_q4() -> Dict:
    from ..quant.awq import awq_quantize
    from ..quant.coalesce import pack_aos_q4

    rng = np.random.default_rng(2029)
    weight = rng.normal(0.0, 0.125, (72, 48))
    magnitudes = np.exp(rng.normal(0.0, 1.0, 72))
    calibration = rng.normal(0.0, 1.0, (16, 72)) * magnitudes
    result = awq_quantize(weight, calibration)
    groups = result.quantized.groups
    dequantized = result.dequantized_weight()

    def digest(array: np.ndarray) -> str:
        return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()

    return {"alpha": result.alpha,
            "reconstruction_error": result.reconstruction_error.hex(),
            "codes_sha256": digest(groups.codes),
            "scales_sha256": digest(groups.scales),
            "dequantized_weight": f"{dequantized.dtype}{dequantized.shape}",
            "dequantized_weight_sha256": digest(dequantized),
            "packed_aos_sha256": digest(pack_aos_q4(groups).data)}


@_register("attention_lut", "npz",
           "causal FlashAttention output, LUT exponent, 24 queries/40 keys")
def _attention_lut() -> Dict:
    return _attention_case("lut", seed=2026)


@_register("attention_poly32", "npz",
           "causal FlashAttention output, poly32 exponent, 24 queries/40 keys")
def _attention_poly32() -> Dict:
    return _attention_case("poly32", seed=2027)


def _attention_case(method: str, seed: int) -> Dict:
    from ..kernels.flash_attention import FlashAttention
    from ..npu.memory import TCM

    rng = np.random.default_rng(seed)
    q = rng.normal(0.0, 1.0, (24, 32)).astype(np.float16)
    k = rng.normal(0.0, 1.0, (40, 32)).astype(np.float16)
    v = rng.normal(0.0, 1.0, (40, 32)).astype(np.float16)
    attention = FlashAttention(method=method, tcm=TCM())
    out, _ = attention(q, k, v, q_positions=np.arange(16, 40),
                       k_positions=np.arange(40))
    return {"output": out}


# ----------------------------------------------------------------------
# cases: model logits
# ----------------------------------------------------------------------
@_register("model_logits", "npz",
           "FP32 logits of the accuracy-probe model: a 128-token prompt "
           "prefilled in 64-token chunks, then one batch-4 decode step")
def _model_logits() -> Dict:
    from ..harness.smallmodel import ACCURACY_MODEL_CONFIG
    from ..llm import NPUTransformer, TransformerWeights

    model = NPUTransformer(TransformerWeights.generate(ACCURACY_MODEL_CONFIG,
                                                       seed=0))
    rng = np.random.default_rng(2028)
    prompt = rng.integers(1, ACCURACY_MODEL_CONFIG.vocab_size, 128)
    cache = model.new_cache(batch=4, capacity=160)
    chunks = [model.forward(prompt[None, start:start + 64], cache,
                            sequences=[0])[0][0]
              for start in (0, 64)]
    # fork the prompt into every slot and cut three of them back, so one
    # decode step attends over 129/121/101/41 keys: three padded KV
    # lengths, two of them shared by sequences of different lengths
    cache.fork(0, [1, 2, 3])
    for seq, length in ((1, 120), (2, 100), (3, 40)):
        cache.truncate(seq, length)
    decode, _ = model.forward(np.array([[5], [17], [200], [301]]), cache)
    return {"prefill_logits": np.concatenate(chunks, axis=0),
            "decode_logits": decode[:, 0]}


# ----------------------------------------------------------------------
# cases: decode traces
# ----------------------------------------------------------------------
@_register("decode_tiny", "json",
           "lock-step batched decode trace on the tiny model")
def _decode_tiny() -> Dict:
    from ..llm import InferenceEngine, Sampler

    engine = InferenceEngine(_tiny_model(0), batch=4, max_context=32)
    result = engine.generate(_PROMPT, max_new_tokens=10,
                             sampler=Sampler(temperature=0.8, seed=7))
    return {"prompt": _PROMPT,
            "sequences": result.sequences,
            "n_generated_tokens": result.n_generated_tokens}


@_register("scheduler_chaos", "json",
           "continuous-batching decode under a fixed fault plan")
def _scheduler_chaos() -> Dict:
    from ..llm import ContinuousBatchingScheduler, InferenceEngine, Sampler
    from ..resilience import FaultPlan

    engine = InferenceEngine(_tiny_model(0), batch=4, max_context=32,
                             kv_backend="paged")
    scheduler = ContinuousBatchingScheduler(engine)
    plan = FaultPlan.parse("abort@2,alloc@4,throttle@1:efficiency:3")
    result = scheduler.generate(_PROMPT, n_candidates=6, max_new_tokens=10,
                                sampler=Sampler(temperature=0.8, seed=11),
                                fault_plan=plan)
    fault_kinds: Dict[str, int] = {}
    for record in result.faults:
        fault_kinds[record.kind] = fault_kinds.get(record.kind, 0) + 1
    return {"prompt": _PROMPT,
            "fault_plan": plan.spec(),
            "sequences": result.sequences,
            "n_steps": result.n_steps,
            "n_retries": result.n_retries,
            "n_evictions": result.n_evictions,
            "n_rebuilds": result.n_rebuilds,
            "fault_kinds": fault_kinds}


@_register("prefill_chunked", "json",
           "chunked prefill + mid-run prompt admission scheduler trace")
def _prefill_chunked() -> Dict:
    from ..llm import (ContinuousBatchingScheduler, InferenceEngine,
                       PromptAdmission, Sampler)

    engine = InferenceEngine(_tiny_model(0), batch=4, max_context=48,
                             kv_backend="paged")
    scheduler = ContinuousBatchingScheduler(engine)
    admission = PromptAdmission(prompt=[7, 7, 7, 2, 5, 1, 8, 8, 4, 3],
                                n_candidates=3, max_new_tokens=6, at_step=2)
    result = scheduler.generate(_PROMPT, n_candidates=6, max_new_tokens=10,
                                sampler=Sampler(temperature=0.8, seed=11),
                                prefill_chunk=3, admissions=[admission])
    return {"prompt": _PROMPT,
            "admitted_prompt": list(admission.prompt),
            "sequences": result.sequences,
            "n_steps": result.n_steps,
            "n_prefill_chunks": result.n_prefill_chunks,
            "n_prompt_admissions": result.n_prompt_admissions,
            "candidate_request_ids": [c.request_id
                                      for c in result.candidates],
            "finish_reasons": [c.finish_reason for c in result.candidates]}


#: The two device-backed scheduler runs the ``scheduler_ledger`` golden
#: pins: a waved decode under every fault kind, and chunked prefill
#: with stage dispatch and a mid-run prompt admission.
SCHEDULER_LEDGER_RUNS = ("faulted", "dispatch_chunked")


def scheduler_ledger_run(name: str):
    """Run one ledger config under a fresh metrics registry; returns
    ``(result, registry)``."""
    from ..llm import (BackendSelector, ContinuousBatchingScheduler,
                       InferenceEngine, PromptAdmission, Sampler)
    from ..npu import DEVICES
    from ..obs.metrics import MetricsRegistry, set_metrics
    from ..resilience import FaultPlan

    device, model = DEVICES["oneplus_12"], _tiny_model(0)
    if name == "faulted":
        kwargs = dict(fault_plan=FaultPlan.parse(
            "abort@4,dma@7,alloc@5,throttle@2:efficiency:6"))
    else:
        kwargs = dict(prefill_chunk=3,
                      dispatch=BackendSelector(device, model.config),
                      admissions=[PromptAdmission(
                          [7, 7, 7, 2, 5, 1, 8, 8, 4, 3, 9, 6],
                          n_candidates=3, max_new_tokens=6, at_step=2)])
    registry = MetricsRegistry()
    previous = set_metrics(registry)
    try:
        engine = InferenceEngine(model, batch=4, max_context=48,
                                 device=device, kv_backend="paged")
        result = ContinuousBatchingScheduler(engine).generate(
            _PROMPT, n_candidates=10, max_new_tokens=10,
            sampler=Sampler(temperature=0.8, seed=11),
            length_schedule=[3, 10, 5, 8], **kwargs)
    finally:
        set_metrics(previous)
    return result, registry


def scheduler_ledger(result, registry) -> Dict:
    """Every energy float (as ``float.hex``), SLO histogram and
    scheduler counter of one run."""
    ledger: Dict = {
        "joules": result.joules.hex(),
        "prefill_joules": result.prefill_joules.hex(),
        "idle_joules": result.idle_joules.hex(),
        "migration_seconds": result.migration_seconds.hex(),
        "wave_joules": {str(w): j.hex() for w, j in result.wave_joules.items()},
        "candidate_joules": [c.joules.hex() for c in result.candidates]}
    for name, entry in registry.snapshot().items():
        if name.startswith("repro.slo."):
            hist = registry.histogram(name)
            ledger[name] = {"count": hist.count, "sum": hist.total.hex(),
                            "bucket_counts": " ".join(map(str, hist.counts))}
        elif name.startswith(("repro.scheduler.", "repro.resilience.")) \
                and entry["type"] == "counter":
            ledger[name] = entry["value"]
    return ledger


@_register("scheduler_ledger", "json",
           "hex-exact energy, SLO histograms and counters of two "
           "device-backed scheduler runs (faulted; dispatch + chunked "
           "prefill + prompt admission)")
def _scheduler_ledger() -> Dict:
    return {name: scheduler_ledger(*scheduler_ledger_run(name))
            for name in SCHEDULER_LEDGER_RUNS}


@_register("speculative_greedy", "json",
           "greedy speculative decode trace (independent draft model)")
def _speculative_greedy() -> Dict:
    from ..llm import SpeculativeDecoder

    decoder = SpeculativeDecoder(_tiny_model(0), _tiny_model(1), draft_len=4)
    result = decoder.generate(_PROMPT, 12, temperature=0.0, seed=0)
    return {"prompt": _PROMPT,
            "tokens": result.tokens,
            "accepted_drafts": result.accepted_drafts,
            "proposed_drafts": result.proposed_drafts,
            "target_forward_passes": result.target_forward_passes}


# ----------------------------------------------------------------------
# cases: fleet serving
# ----------------------------------------------------------------------
@_register("fleet.capacity", "json",
           "100-device diurnal serving window with the capacity plan")
def _fleet_capacity() -> Dict:
    from ..fleet import run_fleet

    report = run_fleet(100, 10.0, horizon_seconds=30.0, seed=2026,
                       pattern="diurnal")
    return report.to_json()


@_register("fleet.chaos", "json",
           "8-device saturated window under a fixed fault schedule "
           "with failover and hedging")
def _fleet_chaos() -> Dict:
    from ..fleet import run_fleet

    report = run_fleet(
        8, 10.0, horizon_seconds=20.0, seed=2026,
        with_capacity_plan=False, hedge=True,
        fault_spec="dev#0:crash@3:6,dev#1:straggle@2:3:10,"
                   "dev#2:drop@5,dev#3:battery@8,dev#4:crash@12")
    return report.to_json()


@_register("fleet.explain", "json",
           "small chaos fleet with the critical-path blame ledger "
           "(repro.explain/v1 section embedded in the fleet report)")
def _fleet_explain() -> Dict:
    from ..fleet import run_fleet

    report = run_fleet(
        6, 8.0, horizon_seconds=10.0, seed=2026,
        with_capacity_plan=False, hedge=True,
        fault_spec="dev#0:crash@2:4,dev#1:straggle@1:2:8,dev#2:drop@3",
        explain=True)
    return report.to_json()


#: The two simulations the ``fleet_ledger`` golden pins: a saturated,
#: hedged window under every fleet fault kind with one engine-backed
#: device whose requests carry scheduler faults, and a fault-free
#: window that sheds.
FLEET_LEDGER_RUNS = ("faulted", "shedding")

#: The faulted run's fleet fault schedule; with it every
#: :class:`~repro.fleet.FleetResult` counter of that run is nonzero.
_FLEET_LEDGER_FAULTS = ("dev#4:battery@0.3,dev#0:crash@1.78:1.93,"
                        "dev#1:straggle@0.29:3:4,dev#3:drop@1.56,"
                        "dev#3:drop@2.12,dev#1:drop@2.05,dev#3:drop@2.75")


def fleet_ledger_run(name: str):
    """Simulate one ``fleet_ledger`` config; returns its FleetResult."""
    from dataclasses import replace

    from ..fleet import (AdmissionController, EngineFleetDevice,
                         FailoverPolicy, FleetSimulation, HedgePolicy,
                         TraceConfig, build_population, generate_trace)
    from ..llm import ContinuousBatchingScheduler, InferenceEngine
    from ..npu import DEVICES
    from ..resilience import FaultPlan

    trace = TraceConfig(qps=16.0, max_requests=60, seed=3,
                        prompt_tokens=(4, 12), n_candidates=(1, 4),
                        max_new_tokens=(4, 12))
    if name == "shedding":
        return FleetSimulation(
            build_population(3), generate_trace(trace),
            admission=AdmissionController(max_queue_depth=4)).run()
    device = DEVICES["oneplus_12"]
    engine = InferenceEngine(_tiny_model(0), batch=4, max_context=48,
                             device=device, kv_backend="paged")
    devices = build_population(4) + [EngineFleetDevice(
        device_id=4, scheduler=ContinuousBatchingScheduler(engine),
        device=device)]
    requests = [replace(r, fault_spec="abort@2")
                for r in generate_trace(trace)]
    return FleetSimulation(
        devices, requests,
        admission=AdmissionController(max_queue_depth=4),
        fault_plan=FaultPlan.parse(_FLEET_LEDGER_FAULTS),
        failover=FailoverPolicy(max_attempts=1, seed=3),
        hedge=HedgePolicy(threshold_seconds=0.2), seed=3,
        breaker_failure_threshold=1, breaker_cooldown_seconds=0.5).run()


def fleet_ledger_counters(result) -> Dict[str, int]:
    """Every integer tally of a FleetResult, by field name."""
    from dataclasses import fields

    values = {f.name: getattr(result, f.name) for f in fields(result)}
    return {name: value for name, value in values.items()
            if isinstance(value, int)}


def fleet_ledger(result) -> Dict:
    """Every tally, float total (as ``float.hex``) and latency histogram
    of one fleet run."""
    ledger: Dict = dict(fleet_ledger_counters(result))
    ledger["joules"] = result.joules.hex()
    ledger["makespan_seconds"] = result.makespan_seconds.hex()
    for name, hist in (("request_latency", result.request_latency),
                       ("queue_wait", result.queue_wait),
                       ("token_latency", result.token_latency())):
        ledger[name] = {"count": hist.count, "sum": hist.total.hex(),
                        "bucket_counts": " ".join(map(str, hist.counts))}
    return ledger


@_register("fleet_ledger", "json",
           "hex-exact tallies, energy and latency histograms of two "
           "fleet simulations (faulted + hedged; fault-free shedding)")
def _fleet_ledger() -> Dict:
    return {name: fleet_ledger(fleet_ledger_run(name))
            for name in FLEET_LEDGER_RUNS}


# ----------------------------------------------------------------------
# cases: on-disk format conformance
# ----------------------------------------------------------------------
@_register("checkpoint_q4_format", "json",
           "byte-level digest of the q4 checkpoint container format")
def _checkpoint_q4_format() -> Dict:
    from ..llm.checkpoint import save_checkpoint

    with tempfile.TemporaryDirectory(prefix="repro-golden-") as tmp:
        path = Path(tmp) / "tiny.ckpt"
        n_bytes = save_checkpoint(path, _tiny_weights(0), codec="q4")
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
    return {"codec": "q4", "bytes": n_bytes, "sha256": digest}


# ----------------------------------------------------------------------
# check / update
# ----------------------------------------------------------------------
def _select(only) -> List[GoldenCase]:
    if only is None:
        return [GOLDEN_CASES[name] for name in sorted(GOLDEN_CASES)]
    names = [only] if isinstance(only, str) else list(only)
    unknown = [name for name in names if name not in GOLDEN_CASES]
    if unknown:
        raise TestingError(
            f"unknown golden case(s) {unknown}; known: {sorted(GOLDEN_CASES)}")
    return [GOLDEN_CASES[name] for name in sorted(set(names))]


def _json_bytes(payload: Dict) -> bytes:
    return (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode()


def _compare_npz(case: GoldenCase, path: Path, built: Dict
                 ) -> Optional[str]:
    with np.load(path) as archive:
        committed = {name: archive[name] for name in archive.files}
    if sorted(committed) != sorted(built):
        return (f"array set differs: committed {sorted(committed)}, "
                f"regenerated {sorted(built)}")
    for name in sorted(built):
        a, b = np.asarray(built[name]), committed[name]
        if a.dtype != b.dtype or a.shape != b.shape:
            return (f"array {name!r}: dtype/shape changed "
                    f"({b.dtype}{b.shape} -> {a.dtype}{a.shape})")
        if a.tobytes() != b.tobytes():
            mismatch = (a != b) | (np.isnan(a.astype(np.float64))
                                   != np.isnan(b.astype(np.float64)))
            return (f"array {name!r}: {int(mismatch.sum())} of {a.size} "
                    "elements differ bitwise")
    return None


def check_goldens(directory: Optional[Path] = None,
                  only: Optional[Sequence[str]] = None) -> List[GoldenMismatch]:
    """Regenerate every case and diff it against the committed fixture."""
    directory = Path(directory) if directory is not None else GOLDEN_DIR
    mismatches: List[GoldenMismatch] = []
    for case in _select(only):
        path = directory / case.filename
        if not path.exists():
            mismatches.append(GoldenMismatch(
                case=case.name, path=str(path),
                message="fixture missing (run 'repro goldens --update')"))
            continue
        built = case.build()
        if case.kind == "npz":
            message = _compare_npz(case, path, built)
        else:
            committed = json.loads(path.read_text())
            message = None if committed == json.loads(_json_bytes(built)) \
                else "JSON payload differs from the committed fixture"
        if message is not None:
            mismatches.append(GoldenMismatch(case=case.name, path=str(path),
                                             message=message))
    return mismatches


def update_goldens(directory: Optional[Path] = None,
                   only: Optional[Sequence[str]] = None) -> List[str]:
    """Rewrite fixtures from the current implementation; returns paths."""
    directory = Path(directory) if directory is not None else GOLDEN_DIR
    directory.mkdir(parents=True, exist_ok=True)
    written: List[str] = []
    for case in _select(only):
        path = directory / case.filename
        built = case.build()
        if case.kind == "npz":
            with open(path, "wb") as handle:
                np.savez(handle, **built)
        else:
            path.write_bytes(_json_bytes(built))
        written.append(str(path))
    return written
