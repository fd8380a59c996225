"""Differential: layer-granularity kernels equal their per-call forms.

* One stacked FlashAttention call equals one 2-D call per slice,
  bitwise, with the summed breakdown — for every exp method, decode
  and prefill query counts, 1-4 KV blocks, and KV lengths that differ
  inside one padded group.
* The memoized per-slice breakdown equals the cost traced while running
  that slice, for every key the grid used.
* A GEMM's cached dequantization trace equals a fresh
  :func:`dequantize_stream` trace, and the FP16 stream it skips equals
  the weight the tile GEMM multiplies.
"""

import numpy as np
import pytest

from repro.errors import KernelError
from repro.kernels.dequant import dequantize_stream
from repro.kernels.flash_attention import AttentionBreakdown, FlashAttention
from repro.kernels.gemm import MixedPrecisionGemm
from repro.npu.hmx import matrix_from_hmx_layout
from repro.npu.hvx import HVXContext, InstructionTrace
from repro.npu.memory import TCM, DMAEngine
from repro.npu.timing import KernelCost

# poly16 overflows FP16 on masked (-65504) scores before flushing them
# to zero, as in the per-call kernel
pytestmark = pytest.mark.filterwarnings(
    "ignore:(overflow|invalid value) encountered:RuntimeWarning")

PHASES = ("qk_matmul", "softmax", "pv_matmul", "rescale")
METHODS = ("lut", "poly16", "poly32")


def _stack(rng, n_q, lengths, d=32):
    n_kv = int(max(lengths))
    q = rng.normal(0, 1, (len(lengths), n_q, d)).astype(np.float16)
    k = rng.normal(0, 1, (len(lengths), n_kv, d)).astype(np.float16)
    v = rng.normal(0, 1, (len(lengths), n_kv, d)).astype(np.float16)
    return q, k, v


def _lengths(n_q, blocks):
    """Mixed KV lengths: two inside the last padded block of ``blocks``
    blocks (one padded group), plus one in a shorter group."""
    top = 32 * blocks
    lengths = [top, max(n_q, top - 19)]
    if blocks > 1:
        lengths.append(max(n_q, top - 40))
    return lengths


def _check_stacked(attention, n_q, blocks, causal):
    """One stacked call through ``attention`` vs fresh per-slice calls."""
    lengths = [n for n in _lengths(n_q, blocks) if n >= n_q]
    method = attention.method
    rng = np.random.default_rng([n_q, blocks, METHODS.index(method)])
    q, k, v = _stack(rng, n_q, lengths)
    n_kv = k.shape[1]
    q_pos = np.stack([np.arange(n - n_q, n) for n in lengths]) if causal \
        else None
    k_pos = np.arange(n_kv) if causal else None
    out, breakdown = attention(q, k, v, q_positions=q_pos, k_positions=k_pos,
                               kv_lengths=lengths)
    assert out.shape == q.shape
    expected = AttentionBreakdown()
    for i, n in enumerate(lengths):
        single, cost = FlashAttention(
            method, tcm=TCM(), qfloat_mode=attention.qfloat_mode)(
            q[i], k[i, :n], v[i, :n],
            q_positions=None if q_pos is None else q_pos[i],
            k_positions=None if k_pos is None else k_pos[:n])
        assert out[i].tobytes() == single.tobytes(), (i, n)
        for phase in PHASES:
            getattr(expected, phase).merge(getattr(cost, phase))
    assert breakdown == expected


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("n_q", (1, 8, 64))
@pytest.mark.parametrize("blocks", (1, 2, 3, 4))
@pytest.mark.parametrize("causal", (False, True))
def test_stacked_equals_per_slice(method, n_q, blocks, causal):
    _check_stacked(FlashAttention(method, tcm=TCM()), n_q, blocks, causal)


def _traced(attention, n_q, n_kv, d, causal, rng):
    """The breakdown recorded while running one random slice."""
    traces = {}
    q, k, v = _stack(rng, n_q, [n_kv], d)
    positions = (np.arange(n_kv - n_q, n_kv)[None], np.arange(n_kv)[None]) \
        if causal else (None, None)
    attention._forward(q, k, v, np.array([n_kv]), 1.0 / np.sqrt(d),
                       *positions, traces=traces)
    return AttentionBreakdown(**{
        phase: KernelCost.from_trace(traces[phase]) for phase in PHASES})


def _assert_memo_equals_traced(attention, rng):
    assert attention._slice_costs
    for (n_q, n_kv, d, causal), cost in attention._slice_costs.items():
        assert cost == _traced(attention, n_q, n_kv, d, causal, rng), \
            (attention.method, attention.qfloat_mode, n_q, n_kv, d, causal)


@pytest.mark.parametrize("qfloat_mode", ("qfloat", "ieee"))
@pytest.mark.parametrize("method", METHODS)
def test_memoized_breakdowns_equal_traced(method, qfloat_mode, rng):
    """Every key the stacked grid memoized."""
    attention = FlashAttention(method, tcm=TCM(), qfloat_mode=qfloat_mode)
    for n_q in (1, 8, 64):
        for blocks in (1, 2, 4):
            for causal in (False, True):
                _check_stacked(attention, n_q, blocks, causal)
    _assert_memo_equals_traced(attention, rng)


def test_model_memo_equals_traced(tiny_model, rng):
    """Every key a model prefill and a mixed-length decode memoized."""
    cache = tiny_model.new_cache(batch=2, capacity=48)
    tiny_model.forward(np.array([[3, 1, 4, 1, 5], [9, 2, 6, 5, 3]]), cache)
    cache.truncate(1, 2)
    tiny_model.forward(np.array([[5], [8]]), cache)
    _assert_memo_equals_traced(tiny_model._attention, rng)


def test_memo_is_not_aliased_by_callers(rng):
    q, k, v = _stack(rng, 1, [40])
    attention = FlashAttention("lut", tcm=TCM())
    _, first = attention(q[0], k[0], v[0])
    first.softmax.merge(first.softmax)
    _, second = attention(q[0], k[0], v[0])
    assert second != first
    assert second == _traced(attention, 1, 40, 32, False, rng)


@pytest.mark.parametrize("strategy,bits", [
    ("baseline", 4), ("hmx_layout", 4), ("ours", 4), ("ours", 8),
    ("no_dequant", 4)])
@pytest.mark.parametrize("qfloat_mode", ("qfloat", "ieee"))
def test_cached_dequant_cost_equals_stream_trace(strategy, bits, qfloat_mode,
                                                 monkeypatch, rng):
    kernel = MixedPrecisionGemm(strategy, bits=bits, qfloat_mode=qfloat_mode)
    prepared = kernel.prepare_weight(rng.normal(0, 0.1, (64, 96)))
    acts = rng.normal(0, 1, (3, 64)).astype(np.float16)
    first_out, first_cost = kernel(acts, prepared)

    fresh, dma = InstructionTrace(), DMAEngine()
    dequantize_stream(prepared.quantized, strategy,
                      HVXContext(qfloat_mode, fresh), dma,
                      packed=prepared.packed, coalesce=kernel.coalesce)
    (cached,) = prepared.dequant_traces.values()
    assert cached.as_dict() == fresh.as_dict()

    # later calls replay the cache instead of dequantizing again
    def no_second_pass(*args, **kwargs):
        raise AssertionError("dequantize_stream ran on a cached weight")
    monkeypatch.setattr("repro.kernels.gemm.dequantize_stream",
                        no_second_pass)
    out, cost = kernel(acts, prepared)
    assert cost == first_cost
    assert out.tobytes() == first_out.tobytes()
    assert cost.dma_bytes == dma.total_bytes() + acts.nbytes


@pytest.mark.parametrize("strategy,bits", [
    ("hmx_layout", 4), ("ours", 4), ("ours", 8)])
def test_skipped_dequant_stream_equals_gemm_weight(strategy, bits, rng):
    """The FP16 values a dequant pass streams, put back in matrix order,
    are the weight the HMX GEMM multiplies — so skipping them is sound."""
    kernel = MixedPrecisionGemm(strategy, bits=bits)
    prepared = kernel.prepare_weight(rng.normal(0, 0.1, (70, 40)))
    stream = dequantize_stream(prepared.quantized, strategy, HVXContext(),
                               packed=prepared.packed)
    matrix = matrix_from_hmx_layout(stream.weights_fp16,
                                    prepared.quantized.padded_shape,
                                    prepared.quantized.original_shape)
    assert matrix.dtype == prepared.dequantized_matrix.dtype
    assert matrix.tobytes() == prepared.dequantized_matrix.tobytes()


def test_stacked_input_checks(rng):
    attention = FlashAttention("lut", tcm=TCM())
    q, k, v = _stack(rng, 2, [40, 40, 40])
    for lengths in ([41, 40, 40], [0, 40, 40], [40, 40]):
        with pytest.raises(KernelError):
            attention(q, k, v, kv_lengths=lengths)
    with pytest.raises(KernelError):
        attention(q, k[0], v[0])
    with pytest.raises(KernelError):
        attention(q, k, v, q_positions=np.zeros((2, 2)),
                  k_positions=np.arange(40))
    with pytest.raises(KernelError):
        attention(q, k, v, q_positions=np.arange(3), k_positions=np.arange(40))
