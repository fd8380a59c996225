"""Differential: the whole-GEMM HMX path equals a per-tile reference.

:meth:`HMXUnit.gemm` runs every tile product of a GEMM in one batched
matmul and accumulates over K afterwards.  The reference below is the
plain decomposition: ``np.pad`` both operands, then one
:meth:`HMXUnit.tile_mac` per (m, n, k) tile into a zeroed accumulator.
The two must agree bitwise, with equal instruction counts.

BLAS rounds a transposed (column-major) operand differently from a
row-major copy, and one M=64 product differently from two M=32 ones, so
the grid covers column-major weights (``k.T`` as in Q K^T), strided
views, ``m`` > 32 and K/N that do not fill whole tiles.
"""

import numpy as np
import pytest

from repro.npu.hmx import TILE_DIM, HMXUnit, pad_to_tiles
from repro.npu.hvx import InstructionTrace


def _np_pad(x):
    rows, cols = x.shape
    pad = ((0, (-rows) % TILE_DIM), (0, (-cols) % TILE_DIM))
    return x if pad == ((0, 0), (0, 0)) else np.pad(x, pad)


def tile_mac_reference(a, w, out_dtype=np.float16):
    """``a @ w`` as one ``tile_mac`` per tile, and its trace."""
    a_pad = _np_pad(np.asarray(a, dtype=np.float16))
    w_pad = _np_pad(np.asarray(w, dtype=np.float16))
    hmx = HMXUnit(InstructionTrace())
    out = np.zeros((a_pad.shape[0], w_pad.shape[1]), dtype=np.float32)
    tile = lambda x, r, c: x[r * TILE_DIM:(r + 1) * TILE_DIM,  # noqa: E731
                             c * TILE_DIM:(c + 1) * TILE_DIM]
    for tm in range(a_pad.shape[0] // TILE_DIM):
        for tn in range(w_pad.shape[1] // TILE_DIM):
            acc = np.zeros((TILE_DIM, TILE_DIM), dtype=np.float32)
            for tk in range(a_pad.shape[1] // TILE_DIM):
                hmx.tile_mac(tile(a_pad, tm, tk), tile(w_pad, tk, tn), acc)
            tile(out, tm, tn)[...] = acc
            hmx.trace.record("hmx_tile_out")
    return out[:a.shape[0], :w.shape[1]].astype(out_dtype), hmx.trace


def _operand(rng, rows, cols, layout):
    """A ``(rows, cols)`` FP16 operand in the given memory layout."""
    if layout == "row":
        return rng.normal(0, 1, (rows, cols)).astype(np.float16)
    if layout == "column":
        return rng.normal(0, 1, (cols, rows)).astype(np.float16).T
    if layout == "strided_row":  # one head of a (tokens, heads, d) array
        return rng.normal(0, 1, (rows, 3, cols)).astype(np.float16)[:, 1]
    # strided column: k.T of one head's keys
    return rng.normal(0, 1, (cols, 3, rows)).astype(np.float16)[:, 1].T


LAYOUTS = ("row", "column", "strided_row", "strided_column")
SHAPES = [(1, 32, 32), (1, 256, 512), (4, 64, 40), (5, 32, 1), (31, 33, 70),
          (33, 96, 64), (64, 32, 32), (65, 70, 33), (100, 16, 16)]


@pytest.mark.parametrize("m,k,n", SHAPES)
@pytest.mark.parametrize("w_layout", LAYOUTS)
@pytest.mark.parametrize("a_layout", ("row", "strided_row", "column"))
def test_gemm_equals_tile_mac_reference(m, k, n, w_layout, a_layout):
    rng = np.random.default_rng([m, k, n, LAYOUTS.index(w_layout)])
    a = _operand(rng, m, k, a_layout)
    w = _operand(rng, k, n, w_layout)
    for out_dtype in (np.float16, np.float32):
        expected, expected_trace = tile_mac_reference(a, w, out_dtype)
        hmx = HMXUnit(InstructionTrace())
        got = hmx.gemm(a, w, out_dtype=out_dtype)
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes(), (m, k, n, out_dtype)
        assert hmx.trace.as_dict() == expected_trace.as_dict()


@pytest.mark.parametrize("w_layout", ("row", "column"))
@pytest.mark.parametrize("m,k,n", [(1, 32, 32), (8, 64, 40), (64, 32, 96)])
def test_stacked_gemm_equals_per_slice(m, k, n, w_layout):
    """Leading dimensions are independent GEMMs, each bitwise the 2-D one."""
    rng = np.random.default_rng([m, k, n])
    a = rng.normal(0, 1, (3, m, k)).astype(np.float16)
    w = rng.normal(0, 1, (3, k, n)).astype(np.float16)
    if w_layout == "column":
        w = np.ascontiguousarray(w.swapaxes(1, 2)).swapaxes(1, 2)
    hmx = HMXUnit(InstructionTrace())
    stacked = hmx.gemm(a, w, out_dtype=np.float32)
    for i in range(3):
        expected, _ = tile_mac_reference(a[i], w[i], np.float32)
        assert stacked[i].tobytes() == expected.tobytes()
    assert hmx.trace.count("hmx_tile_mac") == \
        3 * HMXUnit.tile_macs_for_gemm(m, k, n)


def test_pad_to_tiles_keeps_np_pad_layout(rng):
    for layout in LAYOUTS:
        x = _operand(rng, 40, 50, layout)
        padded, expected = pad_to_tiles(x), np.pad(x, ((0, 24), (0, 14)))
        assert np.array_equal(padded, expected)
        assert padded.flags.f_contiguous == expected.flags.f_contiguous
        assert padded.flags.c_contiguous == expected.flags.c_contiguous
