"""Tests for fixed-point quantization schemes and calibration."""

import numpy as np
import pytest

from repro.errors import CalibrationError, ConfigurationError
from repro.quantization import (
    ActivationObserver,
    AffineQuantization,
    LayerQuantizationConfig,
    QuantizationConfig,
    SymmetricQuantization,
    calibrate_affine,
    calibrate_symmetric,
)


class TestAffineQuantization:
    def test_quantize_bounds(self):
        scheme = AffineQuantization(scale=1 / 255, zero_point=0, bits=8)
        codes = scheme.quantize(np.array([0.0, 0.5, 1.0, 2.0, -1.0]))
        assert codes.min() >= 0
        assert codes.max() <= 255

    def test_roundtrip_error_bounded_by_half_scale(self):
        scheme = AffineQuantization(scale=0.01, zero_point=10, bits=8)
        values = np.linspace(-0.05, 2.0, 200)
        recovered = scheme.round_trip(values)
        in_range = (values >= scheme.dequantize(0)) & (values <= scheme.dequantize(255))
        assert np.all(np.abs(recovered[in_range] - values[in_range]) <= 0.005 + 1e-12)

    def test_zero_point_maps_zero(self):
        scheme = AffineQuantization(scale=0.02, zero_point=17, bits=8)
        assert scheme.quantize(np.array([0.0]))[0] == 17
        assert scheme.dequantize(np.array([17]))[0] == pytest.approx(0.0)

    def test_qmax(self):
        assert AffineQuantization(scale=1.0, zero_point=0, bits=4).qmax == 15

    def test_packed_codes_round_ties_before_the_zero_point(self):
        # half-to-even rounding of x / scale, then the zero point: adding
        # the zero point first would round 0.5 + 3 up to 4
        scheme = AffineQuantization(scale=1.0, zero_point=3, bits=8)
        values = np.array([0.5, 1.5, 2.5, -0.5, 300.0])
        packed = scheme.quantize_packed(values)
        assert packed.dtype == np.uint8
        assert packed.tolist() == [3, 5, 5, 3, 255]
        assert scheme.quantize(values).tolist() == packed.tolist()

    def test_rejects_bad_scale(self):
        with pytest.raises(ConfigurationError):
            AffineQuantization(scale=0.0, zero_point=0)

    def test_rejects_bad_zero_point(self):
        with pytest.raises(ConfigurationError):
            AffineQuantization(scale=1.0, zero_point=300, bits=8)


class TestSymmetricQuantization:
    def test_quantize_symmetric_range(self):
        scheme = SymmetricQuantization(scale=0.1, bits=8)
        codes = scheme.quantize(np.array([-100.0, 0.0, 100.0]))
        assert codes.min() == -127
        assert codes.max() == 127

    def test_roundtrip_small_error(self):
        scheme = SymmetricQuantization(scale=0.01, bits=8)
        values = np.linspace(-1.2, 1.2, 100)
        recovered = scheme.round_trip(values)
        clipped = np.clip(values, -1.27, 1.27)
        assert np.all(np.abs(recovered - clipped) <= 0.005 + 1e-12)

    def test_rejects_bad_bits(self):
        with pytest.raises(ConfigurationError):
            SymmetricQuantization(scale=1.0, bits=1)


class TestCalibration:
    def test_affine_covers_range(self):
        rng = np.random.default_rng(0)
        data = rng.uniform(0.0, 3.0, size=1000)
        scheme = calibrate_affine(data, bits=8)
        codes = scheme.quantize(data)
        assert codes.max() == 255 or data.max() < scheme.dequantize(255)
        assert np.all(np.abs(scheme.round_trip(data) - data) <= scheme.scale)

    def test_affine_includes_zero(self):
        data = np.array([1.0, 2.0, 3.0])
        scheme = calibrate_affine(data)
        # zero must be representable (activations after ReLU include 0)
        assert scheme.dequantize(scheme.quantize(np.array([0.0])))[0] == pytest.approx(
            0.0, abs=scheme.scale
        )

    def test_symmetric_covers_negative(self):
        data = np.array([-4.0, 2.0])
        scheme = calibrate_symmetric(data)
        assert np.abs(scheme.round_trip(data) - data).max() <= scheme.scale

    def test_empty_raises(self):
        with pytest.raises(CalibrationError):
            calibrate_affine(np.array([]))
        with pytest.raises(CalibrationError):
            calibrate_symmetric(np.array([]))

    def test_constant_zero_tensor(self):
        scheme = calibrate_affine(np.zeros(10))
        assert scheme.quantize(np.zeros(3)).tolist() == [scheme.zero_point] * 3


class TestActivationObserver:
    def test_tracks_min_max_over_batches(self):
        observer = ActivationObserver()
        observer.update(np.array([0.1, 0.5]))
        observer.update(np.array([0.9, 0.2]))
        scheme = observer.affine_scheme(bits=8)
        assert scheme.dequantize(255) >= 0.9 - 1e-9
        assert observer.observed_batches == 2

    def test_unseen_observer_raises(self):
        with pytest.raises(CalibrationError):
            ActivationObserver().affine_scheme()

    def test_empty_update_ignored(self):
        observer = ActivationObserver()
        observer.update(np.array([]))
        assert observer.observed_batches == 0


class TestModelConfig:
    def test_layer_config_calibrate(self):
        config = LayerQuantizationConfig.calibrate(
            activations=np.array([0.0, 1.0]), weights=np.array([-0.5, 0.5])
        )
        assert config.activation.bits == 8
        assert config.weight.bits == 8

    def test_quantization_config_lookup(self):
        config = QuantizationConfig()
        layer = LayerQuantizationConfig.calibrate(np.array([0.0, 1.0]), np.array([0.3]))
        config.add_layer("conv1", layer)
        assert "conv1" in config
        assert len(config) == 1
        assert config.layer("conv1") is layer

    def test_missing_layer_raises(self):
        with pytest.raises(CalibrationError):
            QuantizationConfig().layer("missing")
