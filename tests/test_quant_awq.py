"""Unit tests for the simplified AWQ search."""

import numpy as np
import pytest

from repro.errors import QuantizationError
from repro.quant.awq import activation_channel_scales, awq_quantize
from repro.quant.schemes import quantization_mse
from repro.quant.tile_quant import dequantize_weight, quantize_tile_group


@pytest.fixture
def calibration(rng):
    # heterogeneous activation magnitudes across channels
    mags = np.exp(rng.normal(0, 1, 64))
    return rng.normal(0, 1, (48, 64)) * mags[None, :]


class TestActivationScales:
    def test_positive(self, calibration):
        scales = activation_channel_scales(calibration)
        assert np.all(scales > 0)
        assert scales.shape == (64,)

    def test_requires_2d(self):
        with pytest.raises(QuantizationError):
            activation_channel_scales(np.zeros(10))


class TestAWQ:
    def test_never_worse_than_rtn_on_calibration(self, rng, calibration):
        """alpha=0 is in the grid, so AWQ can only match or beat plain RTN."""
        w = rng.normal(0, 0.2, (64, 96)).astype(np.float32)
        w.ravel()[rng.choice(w.size, 12, replace=False)] *= 8
        result = awq_quantize(w, calibration)
        rtn = quantize_tile_group(w)
        rtn_effective = dequantize_weight(rtn).astype(np.float32)
        rtn_error = float(np.mean(
            (calibration @ w - calibration @ rtn_effective) ** 2))
        assert result.reconstruction_error <= rtn_error + 1e-12

    def test_scales_normalized(self, rng, calibration):
        w = rng.normal(0, 0.2, (64, 32)).astype(np.float32)
        result = awq_quantize(w, calibration)
        log_mean = np.mean(np.log(result.channel_scales))
        assert abs(log_mean) < 1e-6

    def test_alpha_in_grid(self, rng, calibration):
        w = rng.normal(0, 0.2, (64, 32)).astype(np.float32)
        result = awq_quantize(w, calibration,
                              alpha_grid=np.array([0.0, 0.5, 1.0]))
        assert result.alpha in (0.0, 0.5, 1.0)

    def test_dequantized_weight_shape(self, rng, calibration):
        w = rng.normal(0, 0.2, (64, 32)).astype(np.float32)
        result = awq_quantize(w, calibration)
        assert result.dequantized_weight().shape == w.shape

    def test_dequantized_weight_close(self, rng, calibration):
        w = rng.normal(0, 0.2, (64, 32)).astype(np.float32)
        result = awq_quantize(w, calibration)
        rel = quantization_mse(w, result.dequantized_weight()) / w.var()
        assert rel < 0.02

    def test_dimension_check(self, rng):
        w = rng.normal(size=(64, 32)).astype(np.float32)
        with pytest.raises(QuantizationError):
            awq_quantize(w, rng.normal(size=(8, 128)))

    def test_requires_matrix(self, rng, calibration):
        with pytest.raises(QuantizationError):
            awq_quantize(rng.normal(size=64), calibration)

    def test_requires_2d_calibration(self, rng):
        w = rng.normal(size=(64, 32)).astype(np.float32)
        with pytest.raises(QuantizationError, match="tokens, channels"):
            awq_quantize(w, rng.normal(size=64))

    def test_empty_alpha_grid(self, rng, calibration):
        w = rng.normal(size=(64, 32)).astype(np.float32)
        with pytest.raises(QuantizationError, match="alpha_grid"):
            awq_quantize(w, calibration, alpha_grid=[])
