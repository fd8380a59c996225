"""Whole-array HMX layout and Q4 packing against per-tile references.

The HMX weight layout (Fig. 4) and the packed Q4 byte streams (Fig. 7)
are computed on whole arrays.  These tests rebuild both one tile and one
group at a time from the single-unit primitives — ``tile_permute`` /
``tile_unpermute`` and ``pack_nibbles`` — and require bitwise equality.
"""

import numpy as np
import pytest

from repro.errors import TileShapeError
from repro.npu.hmx import (
    TILE_DIM,
    TILE_ELEMS,
    hmx_layout_order,
    matrix_from_hmx_layout,
    matrix_to_hmx_layout,
    pad_to_tiles,
    tile_permute,
    tile_unpermute,
)
from repro.quant.coalesce import (
    pack_aos_q4,
    pack_nibbles,
    pack_supergroups_q4,
    unpack_aos_q4,
    unpack_supergroups_q4,
)
from repro.quant.schemes import QuantizedGroups, quantize_q4_0

SHAPES = [
    (32, 32),     # a single tile
    (1, 1),       # a single padded element
    (64, 96),     # aligned, several tiles each way
    (50, 70),     # padded on both axes
    (32, 320),    # wide
    (288, 32),    # tall
    (17, 33),     # pads to 32x64
]
DTYPES = [np.int64, np.float32, np.float16, np.uint8]


def _matrix(shape, dtype, order="C"):
    rng = np.random.default_rng(sum(shape))
    if np.issubdtype(dtype, np.integer):
        values = rng.integers(0, np.iinfo(dtype).max, shape, dtype=dtype,
                              endpoint=True)
    else:
        values = rng.normal(0.0, 1.0, shape).astype(dtype)
    return np.asarray(values, order=order)


def reference_to_layout(matrix):
    """Column-major tiles, each through :func:`tile_permute`."""
    padded = pad_to_tiles(matrix)
    rows, cols = padded.shape
    chunks = [tile_permute(padded[tr * TILE_DIM:(tr + 1) * TILE_DIM,
                                  tc * TILE_DIM:(tc + 1) * TILE_DIM])
              for tc in range(cols // TILE_DIM)
              for tr in range(rows // TILE_DIM)]
    return np.concatenate(chunks), (rows, cols)


def reference_from_layout(flat, padded_shape, original_shape=None):
    """Each 1024-element run through :func:`tile_unpermute`."""
    rows, cols = padded_shape
    out = np.empty((rows, cols), dtype=flat.dtype)
    tiles = iter(flat.reshape(-1, TILE_ELEMS))
    for tc in range(cols // TILE_DIM):
        for tr in range(rows // TILE_DIM):
            out[tr * TILE_DIM:(tr + 1) * TILE_DIM,
                tc * TILE_DIM:(tc + 1) * TILE_DIM] = tile_unpermute(next(tiles))
    if original_shape is not None:
        out = out[:original_shape[0], :original_shape[1]]
    return out


def _same(a, b):
    return a.dtype == b.dtype and a.shape == b.shape \
        and a.tobytes() == b.tobytes()


class TestLayoutAgainstTiles:
    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_to_layout(self, shape, dtype, order):
        matrix = _matrix(shape, dtype, order)
        flat, padded_shape = matrix_to_hmx_layout(matrix)
        expected, expected_shape = reference_to_layout(matrix)
        assert padded_shape == expected_shape
        assert _same(flat, expected)

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_from_layout(self, shape, dtype):
        matrix = _matrix(shape, dtype)
        flat, padded_shape = reference_to_layout(matrix)
        got = matrix_from_hmx_layout(flat, padded_shape, shape)
        assert _same(got, reference_from_layout(flat, padded_shape, shape))
        assert _same(got, matrix)
        uncropped = matrix_from_hmx_layout(flat, padded_shape)
        assert _same(uncropped, reference_from_layout(flat, padded_shape))

    @pytest.mark.parametrize("shape", [(32, 32), (64, 96), (32, 320),
                                       (288, 32)])
    def test_layout_order(self, shape):
        rows, cols = shape
        index = np.arange(rows * cols, dtype=np.int64).reshape(shape)
        expected, _ = reference_to_layout(index)
        assert _same(hmx_layout_order(rows, cols), expected)

    @pytest.mark.parametrize("shape", [(32, 32), (64, 96), (50, 70)])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_to_layout_is_a_fresh_array(self, shape, order):
        matrix = _matrix(shape, np.float32, order)
        before = matrix.copy()
        flat, _ = matrix_to_hmx_layout(matrix)
        assert not np.shares_memory(flat, matrix)
        flat[:] = 0
        assert _same(matrix, before)

    @pytest.mark.parametrize("shape", [(32, 32), (64, 96)])
    def test_from_layout_is_a_fresh_array(self, shape):
        flat, padded_shape = reference_to_layout(_matrix(shape, np.float16))
        before = flat.copy()
        matrix = matrix_from_hmx_layout(flat, padded_shape)
        assert not np.shares_memory(matrix, flat)
        matrix[...] = 0
        assert _same(flat, before)

    def test_to_layout_rejects_a_stack(self):
        with pytest.raises(TileShapeError):
            matrix_to_hmx_layout(np.zeros((2, TILE_DIM, TILE_DIM)))

    def test_strided_input(self):
        base = _matrix((96, 130), np.float32)
        view = base[::2, 1::2]  # neither C- nor F-contiguous
        flat, _ = matrix_to_hmx_layout(view)
        assert _same(flat, reference_to_layout(np.ascontiguousarray(view))[0])
        assert not np.shares_memory(flat, base)


def _groups(n_groups, group_size=32, seed=0):
    rng = np.random.default_rng(seed)
    codes = rng.integers(0, 16, (n_groups, group_size), dtype=np.uint8)
    scales = rng.normal(0.0, 1.0, n_groups).astype(np.float16)
    # sign, zero and non-finite scale bit patterns travel as raw bytes
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 6e-8],
                       dtype=np.float16)
    scales[:min(n_groups, special.size)] = special[:n_groups]
    return QuantizedGroups(codes=codes, scales=scales, bits=4,
                           group_size=group_size)


def _scale_bytes(groups):
    return groups.scales.astype(np.float16).view(np.uint8).reshape(-1, 2)


def reference_aos(groups):
    """One ``pack_nibbles`` call per group, then its two scale bytes."""
    records = [np.concatenate([pack_nibbles(codes), scale])
               for codes, scale in zip(groups.codes, _scale_bytes(groups))]
    return np.concatenate(records)


def reference_supergroups(groups, coalesce):
    """One ``pack_nibbles`` call per super-group, then its scales."""
    scales = _scale_bytes(groups)
    records = []
    for s in range(groups.n_groups // coalesce):
        block = slice(s * coalesce, (s + 1) * coalesce)
        records.append(pack_nibbles(groups.codes[block]))
        records.append(scales[block].ravel())
    return np.concatenate(records)


def _same_groups(a, b):
    return (_same(a.codes, b.codes)
            and _same(a.scales.view(np.uint16), b.scales.view(np.uint16))
            and a.bits == b.bits and a.group_size == b.group_size)


class TestPackingAgainstGroups:
    @pytest.mark.parametrize("n_groups,group_size", [(1, 32), (7, 32),
                                                     (48, 32), (10, 16),
                                                     (3, 2)])
    def test_aos(self, n_groups, group_size):
        groups = _groups(n_groups, group_size)
        packed = pack_aos_q4(groups)
        assert _same(packed.data, reference_aos(groups))
        assert (packed.layout, packed.n_groups, packed.group_size) == \
            ("aos", n_groups, group_size)
        assert _same_groups(unpack_aos_q4(packed), groups)

    @pytest.mark.parametrize("n_groups,group_size,coalesce",
                             [(8, 32, 8), (48, 32, 8), (12, 32, 4),
                              (5, 32, 1), (6, 16, 3), (64, 32, 16)])
    def test_supergroups(self, n_groups, group_size, coalesce):
        groups = _groups(n_groups, group_size, seed=n_groups)
        packed = pack_supergroups_q4(groups, coalesce)
        assert _same(packed.data, reference_supergroups(groups, coalesce))
        assert (packed.layout, packed.n_groups, packed.coalesce) == \
            ("supergroup", n_groups, coalesce)
        assert _same_groups(unpack_supergroups_q4(packed), groups)

    def test_quantized_weights_round_trip(self, rng):
        groups = quantize_q4_0(rng.normal(0.0, 0.1, 64 * 96))
        for packed in (pack_aos_q4(groups), pack_supergroups_q4(groups)):
            unpack = unpack_aos_q4 if packed.layout == "aos" \
                else unpack_supergroups_q4
            back = unpack(packed)
            assert _same_groups(back, groups)
            assert not np.shares_memory(back.codes, packed.data)
            assert not np.shares_memory(back.scales, packed.data)
