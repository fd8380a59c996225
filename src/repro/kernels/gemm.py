"""Mixed-precision GEMM: 4-bit weights through the FP16 matrix unit.

The paper's core compute path (§4): weights are stored in 4-bit
fine-grained groups, dequantized on the fly by the HVX vector unit, and
multiplied on the FP16 HMX unit.  :class:`MixedPrecisionGemm` packages
the full pipeline —

    DMA packed weights -> HVX dequantization (one of the Fig. 15
    strategies) -> HMX tile GEMM -> FP16 output

— and returns both the numerical result and the aggregated
:class:`~repro.npu.timing.KernelCost`, so a single invocation feeds both
accuracy tests and latency benchmarks.  All strategies produce identical
numerics; they differ only in instruction mix and memory traffic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from ..errors import KernelError
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from ..npu.hvx import HVXContext, InstructionTrace
from ..npu.hmx import HMXUnit
from ..npu.memory import DMAEngine
from ..npu.timing import KernelCost
from ..quant.codebooks import Codebook, Q4_0_CODEBOOK
from ..quant.coalesce import (
    PackedWeight,
    pack_aos_q4,
    pack_supergroups_q4,
)
from ..quant.tile_quant import (
    QuantizedWeight,
    dequantize_weight,
    quantize_conventional_group,
    quantize_tile_group,
)
from .dequant import (
    DEQUANT_STRATEGIES,
    dequant_span,
    dequantize_stream,
    stream_weights,
)

__all__ = ["PreparedWeight", "MixedPrecisionGemm"]


@dataclass
class PreparedWeight:
    """A weight quantized and packed for one dequantization strategy."""

    quantized: QuantizedWeight
    packed: Optional[PackedWeight]
    dequantized_matrix: np.ndarray  # FP16, original shape
    strategy: str
    #: HVX trace of one dequantization pass per (qfloat mode, coalesce),
    #: recorded on first use: the instructions depend only on the weight
    dequant_traces: Dict[Tuple[str, int], InstructionTrace] = field(
        default_factory=dict, repr=False, compare=False)

    @property
    def storage_bytes(self) -> int:
        if self.packed is not None:
            return int(self.packed.data.size)
        return self.quantized.storage_bytes


class MixedPrecisionGemm:
    """W4A16 GEMM kernel parameterized by dequantization strategy.

    ``strategy`` selects the Fig. 15 variant; ``bits=8`` switches to the
    Q8_0 path used for FFN down projections (§7.1).  The 8-bit path skips
    nibble packing but follows the same layout rules.
    """

    def __init__(self, strategy: str = "ours", bits: int = 4,
                 codebook: Codebook = Q4_0_CODEBOOK, coalesce: int = 8,
                 qfloat_mode: str = "qfloat") -> None:
        if strategy not in DEQUANT_STRATEGIES:
            raise KernelError(
                f"unknown strategy {strategy!r}; expected one of {DEQUANT_STRATEGIES}")
        if bits not in (4, 8):
            raise KernelError(f"unsupported weight width {bits}")
        self.strategy = strategy
        self.bits = bits
        self.codebook = codebook
        self.coalesce = coalesce
        self.qfloat_mode = qfloat_mode

    # ------------------------------------------------------------------
    def prepare_weight(self, weight: np.ndarray) -> PreparedWeight:
        """Offline pipeline: layout transform, quantize, pack (§5.1)."""
        w = np.asarray(weight, dtype=np.float32)
        if self.strategy == "baseline":
            quantized = quantize_conventional_group(w, bits=self.bits)
        else:
            quantized = quantize_tile_group(w, bits=self.bits)
        packed: Optional[PackedWeight] = None
        if self.bits == 4:
            if self.strategy == "ours" or self.strategy == "no_dequant":
                packed = pack_supergroups_q4(quantized.groups, self.coalesce)
            else:
                packed = pack_aos_q4(quantized.groups)
        matrix = dequantize_weight(quantized)
        return PreparedWeight(quantized=quantized, packed=packed,
                              dequantized_matrix=matrix, strategy=self.strategy)

    # ------------------------------------------------------------------
    def __call__(self, activations: np.ndarray, prepared: PreparedWeight
                 ) -> Tuple[np.ndarray, KernelCost]:
        """Run ``activations @ weight`` and return (output, cost)."""
        if prepared.strategy != self.strategy:
            raise KernelError(
                f"weight was prepared for strategy {prepared.strategy!r}, "
                f"kernel runs {self.strategy!r}")
        acts = np.asarray(activations, dtype=np.float16)
        if acts.ndim != 2:
            raise KernelError(f"activations must be 2-D, got shape {acts.shape}")
        in_dim, out_dim = prepared.quantized.original_shape
        if acts.shape[1] != in_dim:
            raise KernelError(
                f"activation width {acts.shape[1]} != weight input dim {in_dim}")

        flops = 2.0 * acts.shape[0] * in_dim * out_dim
        with obs_trace.span("kernel.gemm", category="kernel",
                            m=acts.shape[0], k=in_dim, n=out_dim,
                            strategy=self.strategy, bits=self.bits,
                            flops=flops,
                            weight_bytes=prepared.storage_bytes) as sp:
            trace = InstructionTrace()
            dma = DMAEngine()

            # stage activations into TCM (2-D DMA descriptor)
            dma.transfer_2d(acts.shape[0], acts.shape[1] * 2,
                            direction="ddr_to_tcm")

            # weight dequantization (streams packed weights via DMA)
            self._dequantize(prepared, trace, dma)

            # HMX tile GEMM on the dequantized FP16 weights
            hmx = HMXUnit(trace)
            if self.strategy == "no_dequant":
                # upper-bound variant computes nothing; charge the MACs the
                # real kernel would issue so only dequantization differs
                trace.record("hmx_tile_mac",
                             HMXUnit.tile_macs_for_gemm(acts.shape[0], in_dim,
                                                        out_dim))
                output = np.zeros((acts.shape[0], out_dim), dtype=np.float16)
            else:
                output = hmx.gemm(acts, prepared.dequantized_matrix)

            cost = KernelCost.from_trace(trace, dma)
            sp.add_cost(cost)
        if obs_trace.enabled():
            reg = obs_metrics.get_metrics()
            reg.counter("repro.kernels.gemm_flops").inc(flops)
            reg.counter("repro.kernels.gemm_weight_bytes").inc(
                prepared.storage_bytes)
        return output, cost

    def _dequantize(self, prepared: PreparedWeight, trace: InstructionTrace,
                    dma: DMAEngine) -> None:
        """Charge one dequantization pass over ``prepared`` to the call.

        The first pass runs :func:`dequantize_stream` and keeps its HVX
        trace; later passes replay that trace and the weight DMA.  The
        FP16 values a pass produces equal ``prepared.dequantized_matrix``
        in HMX layout, which is what the tile GEMM multiplies.
        """
        key = (self.qfloat_mode, self.coalesce)
        cached = prepared.dequant_traces.get(key)
        if cached is None:
            cached = InstructionTrace()
            dequantize_stream(prepared.quantized, self.strategy,
                              HVXContext(self.qfloat_mode, cached), dma,
                              packed=prepared.packed, codebook=self.codebook,
                              coalesce=self.coalesce)
            prepared.dequant_traces[key] = cached
        else:
            with dequant_span(prepared.quantized, self.strategy,
                              prepared.packed):
                stream_weights(dma, prepared.quantized, prepared.packed)
        trace.merge(cached)

    # ------------------------------------------------------------------
    def gemv(self, activation: np.ndarray, prepared: PreparedWeight
             ) -> Tuple[np.ndarray, KernelCost]:
        """Single-token convenience wrapper (the decode-phase GEMV)."""
        vec = np.asarray(activation, dtype=np.float16)
        if vec.ndim != 1:
            raise KernelError(f"gemv expects a vector, got shape {vec.shape}")
        out, cost = self(vec[np.newaxis, :], prepared)
        return out[0], cost
