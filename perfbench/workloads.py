"""The four benchmark workloads, driven through repro's public API.

Each workload class is built from a seed (its set-up, timed as
``setup_s``) and then runs one closed-loop iteration per :meth:`run`
call.  An iteration returns an :class:`Outcome`: a digest of the
program's outputs, the simulated metrics read from the results the
program returns, how many operations were attempted and failed, and
every invariant the outputs broke.  The program receives only inputs the
workload generated from its seed.

Why these four (see README.md for the layer -> metric predictions):

* ``bon_decode`` is the paper's test-time-scaling workload: paged
  Best-of-N decode waved over a small batch.  Host time goes to one
  attention call per (sequence, head, layer) and to 1-row decode tiles
  padded to 32.
* ``chunked_prefill`` uses the same kernels with few, full tiles: long
  prompts forwarded in 64-token chunks.  It is the control for any
  change aimed at decode-shaped calls.
* ``fleet_explain`` serves a seeded Poisson trace on a 32-device fleet
  under faults with hedging and critical-path explain on.  It exercises
  the discrete-event simulator, the fleet and the ``obs`` folds and
  never touches the functional model.
* ``quant_sweep`` is the Table 1/4 path: four weight quantization
  schemes scored by KL divergence against FP32.  Only here do the
  ``quant`` layer and ``npu.hmx.matrix_to_hmx_layout`` do real work.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Type

import numpy as np

from repro.errors import FleetError
from repro.fleet import report as fleet_report
from repro.fleet.load import TraceConfig, generate_trace
from repro.harness.smallmodel import (
    ACCURACY_MODEL_CONFIG,
    QUANT_PROBE_CONFIG,
    SmallModelHarness,
)
from repro.llm import (
    ContinuousBatchingScheduler,
    InferenceEngine,
    NPUTransformer,
    TransformerWeights,
)
from repro.llm.sampler import Sampler
from repro.npu.soc import DEVICES
from repro.obs import metrics as obs_metrics
from repro.obs.bench import _CHAOS_FAULT_SPEC, DEFAULT_DEVICE

DEVICE = DEVICES[DEFAULT_DEVICE]


@dataclass
class Outcome:
    """What one iteration produced, reduced to checkable numbers."""

    digest: str
    sim: Dict[str, float]
    attempted: int = 1
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    #: Tokens the iteration processed, the base of per-token ratios.
    tokens: int = 0


def _digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()


def _seeded_prompt(rng: np.random.Generator, length: int) -> List[int]:
    return [int(t) for t in rng.integers(1, ACCURACY_MODEL_CONFIG.vocab_size,
                                         length)]


class BonDecode:
    """Paged Best-of-8 over an engine batch of 4: two waves of
    heterogeneous-length candidates, closed loop."""

    name = "bon_decode"
    N_CANDIDATES = 8
    BATCH = 4
    MAX_NEW_TOKENS = 8
    LENGTH_SCHEDULE = (2, 8, 4, 6)
    PROMPT_TOKENS = 8

    def __init__(self, seed: int) -> None:
        self.seed = seed
        rng = np.random.default_rng([seed, 1])
        self.prompt = _seeded_prompt(rng, self.PROMPT_TOKENS)
        self.model = NPUTransformer(
            TransformerWeights.generate(ACCURACY_MODEL_CONFIG, seed=seed))

    def run(self) -> Outcome:
        engine = InferenceEngine(
            self.model, batch=self.BATCH,
            max_context=self.PROMPT_TOKENS + self.MAX_NEW_TOKENS + 1,
            device=DEVICE, kv_backend="paged")
        result = ContinuousBatchingScheduler(engine).generate(
            self.prompt, n_candidates=self.N_CANDIDATES,
            max_new_tokens=self.MAX_NEW_TOKENS,
            sampler=Sampler(temperature=0.8, seed=self.seed),
            length_schedule=list(self.LENGTH_SCHEDULE))
        problems = []
        candidates = sorted(result.candidates, key=lambda c: c.candidate_id)
        ids = [c.candidate_id for c in candidates]
        if ids != list(range(self.N_CANDIDATES)):
            problems.append(f"candidate ids {ids}")
        for c in candidates:
            want = min(self.LENGTH_SCHEDULE[c.candidate_id
                                            % len(self.LENGTH_SCHEDULE)],
                       self.MAX_NEW_TOKENS)
            if len(c.tokens) != want:
                problems.append(f"candidate {c.candidate_id}: "
                                f"{len(c.tokens)} tokens, schedule {want}")
        tokens = result.total_generated_tokens
        if tokens != sum(len(c.tokens) for c in candidates):
            problems.append("generated-token count disagrees with candidates")
        token_hist = obs_metrics.get_metrics().histogram(
            "repro.slo.token_latency_seconds")
        sim = {
            "sim_tokens_per_s": tokens / result.sim_seconds,
            "sim_tokens_per_joule": result.tokens_per_joule,
            "sim_token_p50_ms": token_hist.percentile(50.0) * 1e3,
            "sim_token_p90_ms": token_hist.percentile(90.0) * 1e3,
            "sim_seconds": result.sim_seconds,
            "llm.scheduler.mean_live_batch": result.mean_live_batch,
            "llm.block_pool.peak_kv_bytes": float(result.peak_kv_bytes),
        }
        digest = _digest(
            np.array([t for c in candidates for t in c.tokens],
                     dtype=np.int64).tobytes(),
            np.array([len(c.tokens) for c in candidates],
                     dtype=np.int64).tobytes(),
            float(result.sim_seconds).hex().encode())
        return Outcome(digest, sim, problems=problems, tokens=tokens)


class _RecordingSampler(Sampler):
    """Greedy sampler that keeps every logits row it is handed."""

    def __init__(self) -> None:
        super().__init__(temperature=0.0)
        self.rows: List[np.ndarray] = []

    def sample(self, logits: np.ndarray) -> int:
        self.rows.append(np.array(logits, dtype=np.float32, copy=True))
        return super().sample(logits)


class ChunkedPrefill:
    """Four long prompts, each prefilled in 64-token chunks on a fresh
    batch-1 paged engine and answered with one token, closed loop."""

    name = "chunked_prefill"
    N_PROMPTS = 4
    PROMPT_TOKENS = 128
    CHUNK = 64

    def __init__(self, seed: int) -> None:
        rng = np.random.default_rng([seed, 2])
        self.prompts = [_seeded_prompt(rng, self.PROMPT_TOKENS)
                        for _ in range(self.N_PROMPTS)]
        self.model = NPUTransformer(
            TransformerWeights.generate(ACCURACY_MODEL_CONFIG, seed=seed))

    def run(self) -> Outcome:
        problems = []
        ttfts, joules, logits = [], 0.0, []
        for i, prompt in enumerate(self.prompts):
            engine = InferenceEngine(self.model, batch=1,
                                     max_context=len(prompt) + 2,
                                     device=DEVICE, kv_backend="paged")
            sampler = _RecordingSampler()
            result = ContinuousBatchingScheduler(engine).generate(
                prompt, n_candidates=1, max_new_tokens=1, sampler=sampler,
                prefill_chunk=self.CHUNK)
            want_chunks = math.ceil(len(prompt) / self.CHUNK)
            if result.n_prefill_chunks != want_chunks:
                problems.append(f"prompt {i}: {result.n_prefill_chunks} "
                                f"chunks, want {want_chunks}")
            if result.total_generated_tokens != 1 or len(sampler.rows) != 1:
                problems.append(f"prompt {i}: "
                                f"{result.total_generated_tokens} tokens from "
                                f"{len(sampler.rows)} logits rows, want 1")
            if sampler.rows and not np.all(np.isfinite(sampler.rows[0])):
                problems.append(f"prompt {i}: non-finite logits")
            ttfts.append(result.sim_seconds)
            joules += result.joules
            logits.extend(sampler.rows)
        tokens = sum(len(p) for p in self.prompts)
        sim = {
            "sim_tokens_per_s": tokens / sum(ttfts),
            "sim_tokens_per_joule": tokens / joules,
            "sim_ttft_ms": statistics.median(ttfts) * 1e3,
            "sim_seconds": sum(ttfts),
        }
        digest = _digest(*(row.tobytes() for row in logits))
        return Outcome(digest, sim, problems=problems, tokens=tokens)


class FleetExplain:
    """``repro fleet --faults ... --hedge --explain``: a seeded Poisson
    trace on 32 devices with the default capacity plan, open loop in
    simulated time.  The trace is capped by request count, not horizon,
    so every seed offers the same amount of work (~75% busy)."""

    name = "fleet_explain"
    N_DEVICES = 32
    QPS = 10.0
    MAX_REQUESTS = 1200

    def __init__(self, seed: int) -> None:
        # run_fleet generates this same trace from the seed; it is kept
        # to check the report's offered count against
        self.seed = seed
        self.trace = generate_trace(TraceConfig(
            qps=self.QPS, max_requests=self.MAX_REQUESTS, seed=seed))

    def run(self) -> Outcome:
        report = fleet_report.run_fleet(
            self.N_DEVICES, self.QPS, horizon_seconds=None,
            max_requests=self.MAX_REQUESTS, seed=self.seed,
            fault_spec=_CHAOS_FAULT_SPEC, hedge=True, explain=True)
        requests = report.requests
        recovery = report.chaos["recovery"]
        offered = requests["offered"]
        failed = (requests["shed"] + recovery["failed_permanently"]
                  + requests["unserved"])
        problems = []
        if offered != len(self.trace):
            problems.append(f"offered {offered} != trace {len(self.trace)}")
        if offered != requests["completed"] + failed:
            problems.append(f"conservation: offered {offered} != completed "
                            f"{requests['completed']} + failed {failed}")
        explained = report.explain["aggregate"]["n_requests"]
        if explained != offered:
            problems.append(f"explain covers {explained} of {offered}")
        try:
            report.result.check_conservation()
        except FleetError as exc:
            problems.append(f"check_conservation: {exc}")
        token = report.latency["token"]
        throughput = report.throughput
        sim = {
            "sim_tokens_per_s": throughput["tokens_per_second"],
            "sim_tokens_per_joule": (throughput["tokens"]
                                     / report.energy["total_joules"]),
            "sim_token_p50_ms": token["p50"] * 1e3,
            "sim_token_p99_ms": token["p99"] * 1e3,
            "sim_devices_at_slo": float(report.capacity["devices_needed"]),
            "sim_completed_share": requests["completed"] / offered,
            "sim_seconds": throughput["makespan_seconds"],
            "fleet.busy_fraction": throughput["busy_fraction"],
            "fleet.queue_wait_p99_ms": (report.latency["queue_wait"]["p99"]
                                        * 1e3),
            "fleet.hedges": float(recovery["hedges"]),
            "fleet.failovers": float(recovery["failovers"]),
            "fleet.shed": float(requests["shed"]),
        }
        digest = _digest(report.to_json_text().encode())
        return Outcome(digest, sim, attempted=offered, failed=failed,
                       problems=problems, tokens=int(throughput["tokens"]))


#: QUANT_PROBE_CONFIG at a quarter of its width: per-channel scales
#: still span 8 quantization groups, enough for the Table 1 collapse
#: (per-channel KL ~3x tile-group KL), at a host cost that fits a run.
QUANT_BENCH_CONFIG = dataclasses.replace(
    QUANT_PROBE_CONFIG, name="quant-bench", hidden_dim=256,
    head_dim=256 // QUANT_PROBE_CONFIG.n_heads, intermediate_dim=512)

QUANT_SCHEMES = ("tile_group", "conventional_group", "per_channel",
                 "awq_group")


class QuantSweep:
    """Quantize-dequantize every projection under four schemes and score
    each against the FP32 model, closed loop."""

    name = "quant_sweep"
    N_EVAL_TOKENS = 64

    def __init__(self, seed: int) -> None:
        self.harness = SmallModelHarness(
            QUANT_BENCH_CONFIG, seed=seed, embedding_std=0.07,
            n_eval_tokens=self.N_EVAL_TOKENS)
        self.harness.reference_logits  # noqa: B018  (computed once here)

    def run(self) -> Outcome:
        kl = {scheme: self.harness.evaluate_weights(
                  self.harness.quantized_projection_weights(scheme)
              ).kl_vs_reference
              for scheme in QUANT_SCHEMES}
        problems = []
        for other in ("tile_group", "awq_group"):
            if not kl["per_channel"] > kl[other]:
                problems.append(f"per_channel KL {kl['per_channel']} <= "
                                f"{other} KL {kl[other]}")
        if not all(math.isfinite(v) and v > 0.0 for v in kl.values()):
            problems.append(f"KL not finite and positive: {kl}")
        sim = {"kl_vs_fp32_tile": kl["tile_group"]}
        sim.update({f"kl.{scheme}": value for scheme, value in kl.items()})
        digest = _digest(*(float(kl[s]).hex().encode() for s in QUANT_SCHEMES))
        return Outcome(digest, sim, problems=problems,
                       tokens=self.N_EVAL_TOKENS)


WORKLOADS: Dict[str, Type] = {w.name: w for w in (
    BonDecode, ChunkedPrefill, FleetExplain, QuantSweep)}
