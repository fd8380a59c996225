"""Functional model of the Hexagon Matrix eXtension (HMX) unit.

The HMX unit (Section 3.1.2, Fig. 4) is the source of the NPU's matrix
throughput.  Its basic data unit is a *tile*: a 32x32 FP16 matrix stored
in 2 KiB with a special permuted layout —

* within a tile, every two adjacent rows are stored as the transposed
  2x32 sub-matrix (elements of the even and odd row interleave
  column-by-column, Fig. 4a);
* across a weight matrix, tiles are laid out column-major because the
  hardware computes a tile-level inner product (Fig. 4b).

The unit multiplies pairs of activation/weight tiles, accumulating into an
internal higher-precision accumulator, and can independently scale and
bias each output channel (column).  This module implements those
semantics exactly (FP16 inputs, FP32 accumulation, FP16 output) and
counts tile multiply-accumulate operations for the timing model.

The layout helpers here are the foundation of the paper's *tile-group
quantization* (Section 5.1.1): quantization groups are formed in this
memory order so dequantized weights stream contiguously into TCM.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..errors import TileShapeError
from .hvx import InstructionTrace

__all__ = [
    "TILE_DIM",
    "TILE_ELEMS",
    "TILE_BYTES_FP16",
    "tile_permute",
    "tile_unpermute",
    "pad_to_tiles",
    "matrix_to_hmx_layout",
    "matrix_from_hmx_layout",
    "hmx_layout_order",
    "HMXUnit",
]

TILE_DIM = 32
TILE_ELEMS = TILE_DIM * TILE_DIM
TILE_BYTES_FP16 = TILE_ELEMS * 2


def tile_permute(tile: np.ndarray) -> np.ndarray:
    """Permute one 32x32 tile into the FP16 HMX memory order (Fig. 4a).

    Every two adjacent rows ``(2p, 2p+1)`` are stored as the transposed
    2x32 sub-matrix: ``(2p, 0), (2p+1, 0), (2p, 1), (2p+1, 1), ...``.
    Returns the flat 1024-element array in memory order.
    """
    tile = np.asarray(tile)
    if tile.shape != (TILE_DIM, TILE_DIM):
        raise TileShapeError(f"HMX tile must be {TILE_DIM}x{TILE_DIM}, got {tile.shape}")
    paired = tile.reshape(TILE_DIM // 2, 2, TILE_DIM)
    return paired.transpose(0, 2, 1).reshape(TILE_ELEMS).copy()


def tile_unpermute(flat: np.ndarray) -> np.ndarray:
    """Inverse of :func:`tile_permute`: memory order back to a 32x32 tile."""
    flat = np.asarray(flat)
    if flat.size != TILE_ELEMS:
        raise TileShapeError(f"HMX tile buffer must have {TILE_ELEMS} elements, got {flat.size}")
    paired = flat.reshape(TILE_DIM // 2, TILE_DIM, 2)
    return paired.transpose(0, 2, 1).reshape(TILE_DIM, TILE_DIM).copy()


def pad_to_tiles(matrix: np.ndarray) -> np.ndarray:
    """Zero-pad a matrix (or a stack of them) to whole 32x32 tiles.

    The last two dimensions are padded to multiples of 32.  Each padded
    matrix is column-major when its source matrix is only column-major,
    as ``np.pad`` lays a 2-D copy out, because the tile memory order sets
    how BLAS rounds each tile product (see :meth:`HMXUnit.gemm`).
    """
    matrix = np.asarray(matrix)
    if matrix.ndim < 2:
        raise TileShapeError(f"expected a 2-D matrix, got shape {matrix.shape}")
    *lead, rows, cols = matrix.shape
    pad_r = (-rows) % TILE_DIM
    pad_c = (-cols) % TILE_DIM
    if pad_r == 0 and pad_c == 0:
        return matrix
    first = matrix[(0,) * len(lead)].flags
    if first.f_contiguous and not first.c_contiguous:
        out = np.zeros((*lead, cols + pad_c, rows + pad_r),
                       dtype=matrix.dtype).swapaxes(-1, -2)
    else:
        out = np.zeros((*lead, rows + pad_r, cols + pad_c), dtype=matrix.dtype)
    out[..., :rows, :cols] = matrix
    return out


# A tile-aligned (R, C) matrix viewed as (R/32, 16, 2, C/32, 32) names
# each element by (tile row, row pair, row in pair, tile column, column).
# HMX memory order runs, outermost first, over tile columns, tile rows,
# row pairs, columns and the row within the pair: Fig. 4b around
# Fig. 4a, the order one tile_permute call per column-major tile gives.
_TO_LAYOUT = (3, 0, 1, 4, 2)
_FROM_LAYOUT = tuple(_TO_LAYOUT.index(axis) for axis in range(5))


def _layout_axes(rows: int, cols: int) -> Tuple[int, ...]:
    return (rows // TILE_DIM, TILE_DIM // 2, 2, cols // TILE_DIM, TILE_DIM)


def _to_layout(padded: np.ndarray) -> np.ndarray:
    """HMX memory order of a tile-aligned matrix, as a fresh flat array."""
    axes = _layout_axes(*padded.shape)
    return padded.reshape(axes).transpose(_TO_LAYOUT).ravel()


def matrix_to_hmx_layout(matrix: np.ndarray) -> Tuple[np.ndarray, Tuple[int, int]]:
    """Convert a matrix into the full HMX weight memory layout.

    The matrix is zero-padded to whole tiles; tiles are emitted in
    column-major order (Fig. 4b) and each tile is internally permuted
    (Fig. 4a).  Returns ``(flat_layout, padded_shape)``; the layout is a
    new array, never a view of ``matrix``.
    """
    padded = pad_to_tiles(matrix)
    if padded.ndim != 2:
        raise TileShapeError(f"expected a 2-D matrix, got shape {padded.shape}")
    return _to_layout(padded), padded.shape


def matrix_from_hmx_layout(flat: np.ndarray, padded_shape: Tuple[int, int],
                           original_shape: Optional[Tuple[int, int]] = None) -> np.ndarray:
    """Inverse of :func:`matrix_to_hmx_layout`.

    ``original_shape`` crops away the zero padding when provided.
    """
    rows, cols = padded_shape
    if rows % TILE_DIM or cols % TILE_DIM:
        raise TileShapeError(f"padded shape must be tile-aligned, got {padded_shape}")
    flat = np.asarray(flat)
    if flat.size != rows * cols:
        raise TileShapeError(
            f"layout buffer size {flat.size} does not match padded shape {padded_shape}")
    axes = _layout_axes(rows, cols)
    layout_axes = tuple(axes[i] for i in _TO_LAYOUT)
    out = flat.reshape(layout_axes).transpose(_FROM_LAYOUT).reshape(rows, cols)
    if original_shape is not None:
        out = out[:original_shape[0], :original_shape[1]]
    return out


def hmx_layout_order(rows: int, cols: int) -> np.ndarray:
    """Return flat original-matrix indices in HMX memory order.

    ``order[i]`` is the row-major index (into the *padded* matrix) of the
    element stored at layout position ``i``.  Quantizing padded weights in
    this order is exactly the paper's tile-group quantization.
    """
    if rows % TILE_DIM or cols % TILE_DIM:
        raise TileShapeError(f"shape ({rows}, {cols}) must be tile-aligned")
    return _to_layout(np.arange(rows * cols, dtype=np.int64).reshape(rows, cols))


def _tiles(matrix: np.ndarray) -> np.ndarray:
    """View a tile-aligned ``(..., R, C)`` contiguous matrix as
    ``(..., R/32, C/32, 32, 32)`` tiles, each in the matrix's own
    memory order (row- or column-major)."""
    if matrix.strides[-2] < matrix.strides[-1]:
        return _tiles(matrix.swapaxes(-1, -2)).swapaxes(-4, -3).swapaxes(-1, -2)
    *lead, rows, cols = matrix.shape
    return matrix.reshape(*lead, rows // TILE_DIM, TILE_DIM,
                          cols // TILE_DIM, TILE_DIM).swapaxes(-3, -2)


class HMXUnit:
    """The HMX matrix engine: tile MACs with FP32 accumulation.

    Each :meth:`tile_mac` multiplies a 32x32 FP16 activation tile by a
    32x32 FP16 weight tile and accumulates into an FP32 accumulator,
    which models the "higher-precision floating point numbers for
    accumulation internally" noted in Section 5.2.1.  :meth:`gemm` runs a
    whole GEMM's tile MACs at once with the same arithmetic.  The trace
    records one ``hmx_tile_mac`` per operation for the timing model.
    """

    def __init__(self, trace: Optional[InstructionTrace] = None) -> None:
        self.trace = trace if trace is not None else InstructionTrace()

    def tile_mac(self, activation_tile: np.ndarray, weight_tile: np.ndarray,
                 accumulator: np.ndarray) -> np.ndarray:
        """Accumulate ``activation_tile @ weight_tile`` into ``accumulator``."""
        a = np.asarray(activation_tile, dtype=np.float16)
        w = np.asarray(weight_tile, dtype=np.float16)
        if a.shape != (TILE_DIM, TILE_DIM) or w.shape != (TILE_DIM, TILE_DIM):
            raise TileShapeError(
                f"tile_mac expects {TILE_DIM}x{TILE_DIM} tiles, got {a.shape} and {w.shape}")
        acc = np.asarray(accumulator, dtype=np.float32)
        if acc.shape != (TILE_DIM, TILE_DIM):
            raise TileShapeError(f"accumulator must be {TILE_DIM}x{TILE_DIM}, got {acc.shape}")
        self.trace.record("hmx_tile_mac")
        acc += a.astype(np.float32) @ w.astype(np.float32)
        return acc

    def emit_output_tile(self, accumulator: np.ndarray,
                         channel_scale: Optional[np.ndarray] = None,
                         channel_bias: Optional[np.ndarray] = None) -> np.ndarray:
        """Convert an accumulator to an FP16 output tile.

        Per Section 3.1.2 the HMX unit "can independently scale and add
        biases to each channel (column) of the output tile".
        """
        acc = np.asarray(accumulator, dtype=np.float32)
        if channel_scale is not None:
            scale = np.asarray(channel_scale, dtype=np.float32)
            if scale.shape != (TILE_DIM,):
                raise TileShapeError(f"channel scale must have {TILE_DIM} entries")
            acc = acc * scale[np.newaxis, :]
        if channel_bias is not None:
            bias = np.asarray(channel_bias, dtype=np.float32)
            if bias.shape != (TILE_DIM,):
                raise TileShapeError(f"channel bias must have {TILE_DIM} entries")
            acc = acc + bias[np.newaxis, :]
        self.trace.record("hmx_tile_out")
        return acc.astype(np.float16)

    def accumulate(self, products: np.ndarray) -> np.ndarray:
        """Sum FP32 tile products over their K-tile axis, in K order.

        ``products`` holds ``(..., K tiles, 32, 32)`` tile products; each
        ``(..., 32, 32)`` accumulator starts at zero and adds the products
        in ascending K order, exactly as repeated :meth:`tile_mac` calls
        do.  Records one ``hmx_tile_mac`` per product.
        """
        acc = np.zeros(products.shape[:-3] + products.shape[-2:],
                       dtype=np.float32)
        for tk in range(products.shape[-3]):
            acc += products[..., tk, :, :]
        self.trace.record("hmx_tile_mac", products.size // TILE_ELEMS)
        return acc

    def gemm(self, activations: np.ndarray, weights: np.ndarray,
             out_dtype: np.dtype = np.float16) -> np.ndarray:
        """Full GEMM ``activations @ weights`` through tile decomposition.

        Both operands are padded to whole tiles; the per-(m,n) tile output
        is the inner product over the K tile dimension.  Tile MAC counts
        grow as ``ceil(m/32) * ceil(k/32) * ceil(n/32)``, which is why a
        single-token decode (m=1) wastes 31/32 of the activation tile —
        the underutilization the paper's test-time scaling exploits.

        Operands may carry equal leading dimensions, ``(..., m, k) @
        (..., k, n)``: one independent GEMM per leading index.  Every
        tile product of the call runs in one batched matmul, then
        :meth:`accumulate` sums them over K.  Each product reaches BLAS
        as its own 32x32 matrix in the memory order the tile has in its
        operand (column-major tiles for ``k.T``-style operands), because
        BLAS rounds a transposed operand, and a larger M, differently.
        """
        a = np.asarray(activations, dtype=np.float16)
        w = np.asarray(weights, dtype=np.float16)
        if a.ndim < 2 or w.ndim != a.ndim or a.shape[:-2] != w.shape[:-2]:
            raise TileShapeError(
                f"gemm expects 2-D operands (or equal stacks of them), got "
                f"{a.shape} and {w.shape}")
        if a.shape[-1] != w.shape[-2]:
            raise TileShapeError(
                f"inner dimensions differ: {a.shape} @ {w.shape}")
        m, n = a.shape[-2], w.shape[-1]
        a_tiles = _tiles(pad_to_tiles(a).astype(np.float32))
        w_tiles = _tiles(pad_to_tiles(w).astype(np.float32))
        # (..., M tiles, N tiles, K tiles, 32, 32): every tile product
        products = np.matmul(a_tiles[..., :, None, :, :, :],
                             w_tiles.swapaxes(-4, -3)[..., None, :, :, :, :])
        acc = self.accumulate(products)
        self.trace.record("hmx_tile_out", acc.size // TILE_ELEMS)
        tiles_m, tiles_n = acc.shape[-4], acc.shape[-3]
        out = acc.swapaxes(-3, -2).reshape(
            *acc.shape[:-4], tiles_m * TILE_DIM, tiles_n * TILE_DIM)
        return out[..., :m, :n].astype(out_dtype)

    @staticmethod
    def tile_macs_for_gemm(m: int, k: int, n: int) -> int:
        """Number of tile MAC operations a GEMM of this shape issues."""
        if min(m, k, n) <= 0:
            raise TileShapeError(f"GEMM dimensions must be positive, got ({m}, {k}, {n})")
        tiles = lambda d: -(-d // TILE_DIM)  # noqa: E731 - tiny local helper
        return tiles(m) * tiles(k) * tiles(n)
