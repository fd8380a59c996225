"""FP16 FlashAttention on the NPU model (Algorithm 1, §5.2.1).

Implements the paper's on-chip attention exactly as Algorithm 1 states:

* ``S = MatMul(Q_i, K_j^T)`` on the HMX unit with FP32 accumulation,
  stored FP16;
* running row max ``m`` and the safe-softmax shift, stored FP16;
* ``P = exp(S - m)`` through a pluggable exponential (``lut`` /
  ``poly16`` / ``poly32``), stored FP16;
* the running denominator ``l`` with FP32 row summation, stored FP16;
* output accumulation ``O = diag(correction) O + P V`` on HMX with FP32
  accumulation, stored FP16;
* final normalization ``O / l``.

A conventional FP32 attention (:func:`attention_fp32_reference`) provides
the accuracy baseline of Table 5.  Every invocation returns a per-phase
cost breakdown (``qk_matmul`` / ``softmax`` / ``pv_matmul`` /
``rescale``) so Fig. 8's latency decomposition can be regenerated.  A
slice's breakdown depends only on its shape, so it is traced once per
shape and memoized.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from ..errors import KernelError
from ..obs import trace as obs_trace
from ..npu.hvx import HVXContext, InstructionTrace, vectors_for_bytes
from ..npu.hmx import HMXUnit, TILE_DIM
from ..npu.memory import TCM
from ..npu.timing import KernelCost
from .lut import ExpLUT
from .softmax import (
    CALL_FIXED_PACKETS,
    EXP_METHODS,
    LUT_ROW_EXPOSED_PACKETS,
    ROW_REDUCE_PACKETS,
    exp_lut,
    exp_poly16,
    exp_poly32,
)

__all__ = [
    "AttentionBreakdown",
    "FlashAttention",
    "attention_fp32_reference",
]

_NEG_LIMIT = np.float16(-65504.0)  # most negative finite FP16
_PHASES = ("qk_matmul", "softmax", "pv_matmul", "rescale")
_NO_POSITION = np.iinfo(np.int64).max  # position of padded rows/keys
_COST_MEMO_LIMIT = 4096  # shapes memoized per kernel before a reset


@dataclass
class AttentionBreakdown:
    """Per-phase instruction costs of one attention invocation."""

    qk_matmul: KernelCost = field(default_factory=KernelCost)
    softmax: KernelCost = field(default_factory=KernelCost)
    pv_matmul: KernelCost = field(default_factory=KernelCost)
    rescale: KernelCost = field(default_factory=KernelCost)

    def total(self) -> KernelCost:
        out = KernelCost()
        for part in (self.qk_matmul, self.softmax, self.pv_matmul, self.rescale):
            out.merge(part)
        return out


def _round_up(n: int) -> int:
    return -(-n // TILE_DIM) * TILE_DIM


def _stage(x: np.ndarray, rows: int, lengths: Optional[np.ndarray] = None
           ) -> np.ndarray:
    """Copy ``(slices, n, d)`` operands into a zeroed FP16 tile buffer of
    ``rows >= n`` rows; rows at or past each slice's ``lengths`` stay
    zero."""
    n_slices, n, d = x.shape
    out = np.zeros((n_slices, rows, _round_up(d)), dtype=np.float16)
    out[:, :n, :d] = x
    if lengths is not None:
        out[np.arange(rows) >= lengths[:, None]] = 0
    return out


class FlashAttention:
    """Blockwise FP16 attention with the paper's precision discipline.

    One call runs one head or a whole stack of independent (sequence,
    head) slices, as the NPU kernel sees a layer's attention.  Slices are
    grouped by padded KV length; each group runs Algorithm 1 once with
    every tile product of a block in one batched HMX GEMM, so each
    slice's output is bitwise what a call on that slice alone returns.
    """

    def __init__(self, method: str = "lut", tcm: Optional[TCM] = None,
                 qfloat_mode: str = "qfloat",
                 block_q: int = TILE_DIM, block_kv: int = TILE_DIM) -> None:
        if method not in EXP_METHODS:
            raise KernelError(f"unknown exp method {method!r}; expected {EXP_METHODS}")
        if block_q % TILE_DIM or block_kv % TILE_DIM:
            raise KernelError(
                f"block sizes must be multiples of {TILE_DIM}, got "
                f"{block_q}x{block_kv}")
        self.method = method
        self.block_q = block_q
        self.block_kv = block_kv
        self.qfloat_mode = qfloat_mode
        self._lut: Optional[ExpLUT] = None
        self._slice_costs: Dict[Tuple[int, int, int, bool],
                                AttentionBreakdown] = {}
        if method == "lut":
            if tcm is None:
                raise KernelError("LUT attention needs a TCM for the exp table")
            self._lut = ExpLUT(tcm)

    # ------------------------------------------------------------------
    def _exp(self, hvx: HVXContext, values: np.ndarray) -> np.ndarray:
        if self.method == "poly32":
            return exp_poly32(hvx, values).astype(np.float16)
        if self.method == "poly16":
            return exp_poly16(hvx, values)
        clipped = np.minimum(values, np.float16(0.0))
        return exp_lut(hvx, clipped, self._lut)

    @staticmethod
    def _phase(trace_holder: Dict[str, InstructionTrace], name: str) -> InstructionTrace:
        if name not in trace_holder:
            trace_holder[name] = InstructionTrace()
        return trace_holder[name]

    # ------------------------------------------------------------------
    def __call__(self, q: np.ndarray, k: np.ndarray, v: np.ndarray,
                 scale: Optional[float] = None,
                 q_positions: Optional[np.ndarray] = None,
                 k_positions: Optional[np.ndarray] = None,
                 kv_lengths: Optional[np.ndarray] = None
                 ) -> "tuple[np.ndarray, AttentionBreakdown]":
        """Attention ``softmax(Q K^T * scale) V`` over one head or a stack.

        ``q`` is ``(n_q, d)``, ``k``/``v`` are ``(n_kv, d)``; optional
        position arrays enable causal masking (a key is visible to a
        query iff ``k_pos <= q_pos``).  Returns the FP16 output and the
        per-phase cost breakdown.

        Stacked, ``q`` is ``(slices, n_q, d)`` and ``k``/``v`` are
        ``(slices, n_kv, d)``.  ``kv_lengths`` gives each slice's number
        of keys (default ``n_kv``); rows past it are ignored.  Positions
        broadcast to ``(slices, n_q)`` and ``(slices, n_kv)``.  The
        output is ``(slices, n_q, d)`` and the breakdown sums the
        slices' costs.
        """
        q = np.asarray(q, dtype=np.float16)
        k = np.asarray(k, dtype=np.float16)
        v = np.asarray(v, dtype=np.float16)
        single = q.ndim == 2
        if single:
            q, k, v = q[np.newaxis], k[np.newaxis], v[np.newaxis]
        if q.ndim != 3 or k.ndim != 3 or v.ndim != 3:
            raise KernelError("attention operands must be 2-D (tokens, head_dim) "
                              "or 3-D (slices, tokens, head_dim)")
        if (k.shape != v.shape or q.shape[0] != k.shape[0]
                or q.shape[2] != k.shape[2]):
            raise KernelError(
                f"shape mismatch: q{q.shape}, k{k.shape}, v{v.shape}")
        n_slices, n_q, d = q.shape
        n_kv = k.shape[1]
        lengths = np.full(n_slices, n_kv, dtype=np.int64) if kv_lengths is None \
            else np.asarray(kv_lengths, dtype=np.int64)
        if (lengths.shape != (n_slices,) or n_slices == 0
                or lengths.min() < 1 or lengths.max() > n_kv):
            raise KernelError(f"kv_lengths must give 1..{n_kv} keys for each "
                              f"of {n_slices} slices, got {kv_lengths!r}")
        if scale is None:
            scale = 1.0 / float(np.sqrt(d))
        causal = q_positions is not None and k_positions is not None
        q_pos = k_pos = None
        if causal:
            if (np.shape(q_positions)[-1:] != (n_q,)
                    or np.shape(k_positions)[-1:] != (n_kv,)):
                raise KernelError("position arrays must match q/k lengths")
            try:
                q_pos = np.broadcast_to(q_positions, (n_slices, n_q))
                k_pos = np.broadcast_to(k_positions, (n_slices, n_kv))
            except ValueError:
                raise KernelError("position arrays must match the slice "
                                  "count") from None

        padded = -(-lengths // TILE_DIM) * TILE_DIM
        out = np.empty((n_slices, n_q, d), dtype=np.float16)
        for n_kv_pad in np.unique(padded):
            idx = np.flatnonzero(padded == n_kv_pad)
            out[idx] = self._forward(
                q[idx], k[idx, :n_kv_pad], v[idx, :n_kv_pad], lengths[idx],
                scale, None if q_pos is None else q_pos[idx],
                None if k_pos is None else k_pos[idx, :n_kv_pad])

        breakdown = AttentionBreakdown()
        for length, count in zip(*np.unique(lengths, return_counts=True)):
            cost = self.slice_cost(n_q, int(length), d, causal)
            for phase in _PHASES:
                getattr(breakdown, phase).merge(
                    getattr(cost, phase).scaled(int(count)))
        tracer = obs_trace.get_tracer()
        if tracer.enabled:
            # one structural span per slice, one cost-only child per
            # Algorithm 1 phase — the Fig. 8 decomposition
            for length in lengths.tolist():
                cost = self.slice_cost(n_q, length, d, causal)
                with tracer.span("kernel.flash_attention", category="kernel",
                                 n_q=n_q, n_kv=length, head_dim=d,
                                 method=self.method,
                                 flops=4.0 * n_q * length * d):
                    for phase in _PHASES:
                        with tracer.span(f"kernel.attention.{phase}",
                                         category="kernel") as phase_span:
                            phase_span.add_cost(
                                KernelCost() + getattr(cost, phase))
        return (out[0] if single else out), breakdown

    # ------------------------------------------------------------------
    def slice_cost(self, n_q: int, n_kv: int, d: int,
                   causal: bool = False) -> AttentionBreakdown:
        """Per-phase cost of attention over one slice of this shape.

        Costs depend only on the shape and on this kernel's method,
        qfloat mode and block size, so each shape is traced once (on zero
        operands) and memoized.  The returned record is shared: do not
        mutate it.
        """
        key = (n_q, n_kv, d, causal)
        cost = self._slice_costs.get(key)
        if cost is None:
            if len(self._slice_costs) >= _COST_MEMO_LIMIT:
                self._slice_costs.clear()
            traces: Dict[str, InstructionTrace] = {}
            q = np.zeros((1, n_q, d), dtype=np.float16)
            kv = np.zeros((1, n_kv, d), dtype=np.float16)
            positions = (np.arange(n_q)[None], np.arange(n_kv)[None]) if causal \
                else (None, None)
            self._forward(q, kv, kv, np.array([n_kv]), 1.0, *positions,
                          traces=traces)
            cost = self._slice_costs[key] = AttentionBreakdown(**{
                phase: KernelCost.from_trace(self._phase(traces, phase))
                for phase in _PHASES})
        return cost

    def _forward(self, q: np.ndarray, k: np.ndarray, v: np.ndarray,
                 lengths: np.ndarray, scale: float,
                 q_pos: Optional[np.ndarray], k_pos: Optional[np.ndarray],
                 traces: Optional[Dict[str, InstructionTrace]] = None
                 ) -> np.ndarray:
        """Algorithm 1 over slices that share one padded KV length.

        Instructions are recorded into ``traces`` at one slice's count;
        the vector-unit charges are only exact for a one-slice stack,
        which is how :meth:`slice_cost` traces.
        """
        if traces is None:
            traces = {}
        n_slices, n_q, d = q.shape
        n_kv_pad = _round_up(int(lengths.max()))
        q_pad = _stage(q, _round_up(n_q))
        k_pad = _stage(k, n_kv_pad, lengths)
        v_pad = _stage(v, n_kv_pad, lengths)
        n_q_pad, d_pad = q_pad.shape[1:]
        tile_elems = n_q_pad * d_pad

        out = np.zeros((n_slices, n_q_pad, d_pad), dtype=np.float16)
        m = np.full((n_slices, n_q_pad), _NEG_LIMIT, dtype=np.float16)
        l = np.zeros((n_slices, n_q_pad), dtype=np.float16)
        n_blocks = -(-n_kv_pad // self.block_kv)
        padded_key = np.arange(n_kv_pad) >= lengths[:, None]
        if q_pos is not None:
            kv_pos = np.full((n_slices, n_kv_pad), _NO_POSITION)
            kv_pos[:, :k_pos.shape[1]] = k_pos
            kv_pos[padded_key] = _NO_POSITION
            q_pos_pad = np.full((n_slices, n_q_pad), _NO_POSITION)
            q_pos_pad[:, :n_q] = q_pos

        for kv_start in range(0, n_kv_pad, self.block_kv):
            kv_end = min(kv_start + self.block_kv, n_kv_pad)
            k_blk = k_pad[:, kv_start:kv_end]
            v_blk = v_pad[:, kv_start:kv_end]

            # --- S = Q K^T (HMX, FP32 accumulate, FP16 store) ----------
            hmx = HMXUnit(self._phase(traces, "qk_matmul"))
            s = hmx.gemm(q_pad, k_blk.swapaxes(-1, -2), out_dtype=np.float32)
            s = (s * np.float32(scale)).astype(np.float16)
            # vector-side softmax work touches only the true query rows;
            # padded rows are masked out of the tile
            valid_elems = n_q * (kv_end - kv_start)
            hvx_soft = HVXContext(self.qfloat_mode, self._phase(traces, "softmax"))
            hvx_soft.trace.record("vmpy_hf", vectors_for_bytes(valid_elems * 2))

            # mask out padded keys (and causal-future keys)
            s[np.broadcast_to(padded_key[:, np.newaxis, kv_start:kv_end],
                              s.shape)] = _NEG_LIMIT
            if q_pos is not None:
                s[q_pos_pad[:, :, np.newaxis]
                  < kv_pos[:, np.newaxis, kv_start:kv_end]] = _NEG_LIMIT

            # --- online softmax (FP16 with FP32 row sums) --------------
            block_max = s.max(axis=-1).astype(np.float16)
            hvx_soft.trace.record("vmax_hf", vectors_for_bytes(valid_elems * 2))
            new_m = np.maximum(m, block_max)
            # the per-row rescale factor e^(m - m') is produced by the
            # scalar core fused into the rescale pass, so it is computed
            # here without vector charges
            with np.errstate(over="ignore"):
                correction = np.exp(np.minimum(
                    m.astype(np.float32) - new_m.astype(np.float32), 0.0)
                ).astype(np.float16)
            p = np.zeros_like(s)
            shifted = (s[:, :n_q].astype(np.float32)
                       - new_m[:, :n_q, np.newaxis].astype(np.float32)
                       ).astype(np.float16)
            p[:, :n_q] = self._exp(hvx_soft, shifted)
            hvx_soft.trace.record("vsub_hf", vectors_for_bytes(valid_elems * 2))
            row_sum = p.astype(np.float32).sum(axis=-1)  # FP32 upcast (Alg. 1)
            hvx_soft.trace.record("vadd_qf32", vectors_for_bytes(valid_elems * 4))
            # cross-vector row reductions + exposed gather latency
            overhead = ROW_REDUCE_PACKETS
            if self.method == "lut":
                overhead += LUT_ROW_EXPOSED_PACKETS
            hvx_soft.trace.record("stall", max(1, n_q * overhead // n_blocks))
            l = (correction.astype(np.float32) * l.astype(np.float32)
                 + row_sum).astype(np.float16)
            m = new_m

            # --- O = diag(correction) O + P V (HMX) ---------------------
            hvx_rescale = HVXContext(self.qfloat_mode, self._phase(traces, "rescale"))
            out = (out.astype(np.float32)
                   * correction.astype(np.float32)[..., np.newaxis])
            hvx_rescale.trace.record("vmpy_hf", vectors_for_bytes(tile_elems * 2))
            hmx_pv = HMXUnit(self._phase(traces, "pv_matmul"))
            pv = hmx_pv.gemm(p, v_blk, out_dtype=np.float32)
            out = (out + pv).astype(np.float16)
            hvx_rescale.trace.record("vadd_hf", vectors_for_bytes(tile_elems * 2))

        # --- final normalization O / l ---------------------------------
        hvx_final = HVXContext(self.qfloat_mode, self._phase(traces, "rescale"))
        denom = l.astype(np.float32)
        denom = np.where(denom > 0, denom, 1.0)
        out = (out.astype(np.float32) / denom[..., np.newaxis]).astype(np.float16)
        hvx_final.trace.record("vmpy_hf", vectors_for_bytes(tile_elems * 2))
        hvx_final.trace.record("stall", CALL_FIXED_PACKETS)
        return out[:, :n_q, :d]


def attention_fp32_reference(q: np.ndarray, k: np.ndarray, v: np.ndarray,
                             scale: Optional[float] = None,
                             q_positions: Optional[np.ndarray] = None,
                             k_positions: Optional[np.ndarray] = None) -> np.ndarray:
    """Conventional FP32 attention (the Table 5 baseline)."""
    q32 = np.asarray(q, dtype=np.float32)
    k32 = np.asarray(k, dtype=np.float32)
    v32 = np.asarray(v, dtype=np.float32)
    d = q32.shape[1]
    if scale is None:
        scale = 1.0 / float(np.sqrt(d))
    scores = q32 @ k32.T * np.float32(scale)
    if q_positions is not None and k_positions is not None:
        mask = np.asarray(q_positions)[:, None] < np.asarray(k_positions)[None, :]
        scores = np.where(mask, np.float32(-1e30), scores)
    scores = scores - scores.max(axis=1, keepdims=True)
    probs = np.exp(scores)
    probs = probs / probs.sum(axis=1, keepdims=True)
    return (probs @ v32).astype(np.float32)
