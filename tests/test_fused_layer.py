"""Tests for the fused native layer call (repro.axnn.layers.NativeLayerCall).

Every Ax layer whose kernel is ``native`` runs its LUT product and its
dequantize epilogue in one compiled call, alone or together with the same
layer of the other native victims of a panel group.  The reference is the
int64 accumulator of ``NativeLUTKernel.matmul`` (the same loops with the
epilogue off) followed by the NumPy epilogue in
``oracle.dequantize_reference``; outputs must match it byte for byte.
"""

import numpy as np
import pytest

from oracle import ax_model_reference, dequantize_reference
from repro.axnn import build_axdnn
from repro.axnn.kernels import NativeLUTKernel
from repro.axnn.layers import AxConv2D, AxDense, NativeLayerCall, _dequantize_into
from repro.axnn.native import (
    FusedMember,
    check_layer_members,
    get_backend,
)
from repro.axnn.panel import VictimPanel
from repro.errors import ConfigurationError, ShapeError
from repro.models import build_lenet5
from repro.multipliers import LUTMultiplier
from repro.nn.layers.dense import Dense
from repro.quantization.schemes import AffineQuantization
from repro.robustness import build_victims

pytestmark = pytest.mark.skipif(
    get_backend() is None,
    reason="no native backend available on this host (no C compiler)",
)

LENET_LABELS = [f"M{index}" for index in range(1, 10)]
BATCHES = [1, 2, 7, 60]


def _centred(images):
    return np.asarray(images, dtype=np.float64) - 0.5


@pytest.fixture(scope="module")
def lenet_victims(mnist_small):
    return build_victims(
        build_lenet5(seed=5),
        LENET_LABELS,
        _centred(mnist_small.train.images[:64]),
        convolution_only=False,
    )


def _ax_layers(victim):
    return [layer for layer in victim.layers if isinstance(layer, (AxConv2D, AxDense))]


def _is_native(layer):
    return isinstance(layer.kernel, NativeLUTKernel)


def _reference(layer, codes):
    return dequantize_reference(layer, layer.kernel.matmul(codes))


def _codes(seed, rows, inner):
    return np.random.default_rng(seed).integers(0, 256, (rows, inner), dtype=np.uint8)


def _same_bytes(actual, expected):
    return actual.dtype == np.float64 and actual.tobytes() == np.ascontiguousarray(
        expected, dtype=np.float64
    ).tobytes()


class TestLoneLayer:
    @pytest.mark.parametrize("rows", BATCHES)
    @pytest.mark.parametrize("label", LENET_LABELS)
    def test_matches_numpy_epilogue(self, lenet_victims, label, rows):
        for depth, layer in enumerate(_ax_layers(lenet_victims[label])):
            codes = _codes(depth * 100 + rows, rows, layer.kernel.inner)
            expected = _reference(layer, codes)
            if not _is_native(layer):
                assert layer._native_call is None
                continue
            out = np.empty((rows, layer.kernel.outputs))
            layer._native_call(codes, out)
            assert _same_bytes(out, expected), (label, depth)
            # the in-source NumPy epilogue agrees with the oracle too
            numpy_out = _dequantize_into(layer, layer.kernel.matmul(codes), np.empty_like(out))
            assert _same_bytes(numpy_out, expected)

    def test_both_product_loops_are_covered(self, lenet_victims):
        loops = {
            (label, depth): layer.kernel._table is None
            for label, victim in lenet_victims.items()
            for depth, layer in enumerate(_ax_layers(victim))
            if _is_native(layer)
        }
        # conv3 and fc1 of the full-rank M6 and M9 exceed the table budget
        assert loops[("M6", 2)] and loops[("M9", 3)]
        assert not loops[("M2", 0)]

    @pytest.mark.parametrize("rows", [1, 7])
    def test_conv_forward_from_codes(self, lenet_victims, rows):
        layer = _ax_layers(lenet_victims["M6"])[1]
        assert _is_native(layer)
        codes = _codes(rows, rows * 8 * 8, layer.kernel.inner)
        out = layer.forward_from_codes(codes, rows, 8, 8)
        assert out.shape == (rows, 8, 8, layer.filters)
        expected = _reference(layer, codes).reshape(out.shape)
        assert _same_bytes(out, expected)

    def test_layer_without_bias(self, mnist_small):
        model = build_axdnn(
            build_lenet5(seed=7), "M6", _centred(mnist_small.train.images[:32])
        )
        dense = _ax_layers(model)[-1]
        assert _is_native(dense) and dense.bias is not None
        before = dense._native_call
        dense.bias = None
        assert dense._native_call is not before  # rebound without the bias
        codes = _codes(3, 5, dense.kernel.inner)
        assert _same_bytes(dense.forward_from_codes(codes), _reference(dense, codes))
        x = _centred(mnist_small.test.images[:4])
        assert _same_bytes(model.forward(x), ax_model_reference(model, x))

    @pytest.mark.parametrize("zero_point", [0, 7, 200])
    def test_zero_points(self, mnist_small, zero_point):
        model = build_axdnn(
            build_lenet5(seed=7), "M9", _centred(mnist_small.train.images[:32])
        )
        for layer in _ax_layers(model):
            layer.activation_scheme = AffineQuantization(
                scale=0.013, zero_point=zero_point
            )
            codes = _codes(zero_point, 6, layer.kernel.inner)
            out = np.empty((6, layer.kernel.outputs))
            layer._native_call(codes, out)
            assert _same_bytes(out, _reference(layer, codes))
        x = _centred(mnist_small.test.images[:3])
        assert _same_bytes(model.forward(x), ax_model_reference(model, x))


class TestGroupCall:
    @pytest.mark.parametrize("stacked", [False, True])
    @pytest.mark.parametrize("rows", BATCHES)
    def test_members_write_their_own_blocks(self, lenet_victims, rows, stacked):
        victims = list(lenet_victims.values())
        n_slots = len(victims)
        for depth in range(len(_ax_layers(victims[0]))):
            layers = [_ax_layers(victim)[depth] for victim in victims]
            native = [(slot, layer) for slot, layer in enumerate(layers) if _is_native(layer)]
            slots, members = zip(*native)
            inner, outputs = members[0].kernel.inner, members[0].kernel.outputs
            codes = _codes(depth + rows, rows * (n_slots if stacked else 1), inner)
            out = np.full((n_slots * rows, outputs), np.nan)
            NativeLayerCall(members, slots, n_slots, stacked)(codes, out)
            for slot, layer in enumerate(layers):
                block = out[slot * rows : (slot + 1) * rows]
                if slot not in slots:
                    assert np.isnan(block).all()  # left to the member's own path
                    continue
                own = codes[slot * rows : (slot + 1) * rows] if stacked else codes
                assert _same_bytes(block, _reference(layer, own)), (depth, slot)

    @pytest.mark.parametrize("batch", BATCHES)
    def test_panel_logits_match_per_victim_forward(self, lenet_victims, mnist_small, batch):
        panel = VictimPanel(lenet_victims)
        x = _centred(mnist_small.test.images[:batch])
        fused = panel.forward(x)
        for label, victim in lenet_victims.items():
            expected = victim.forward(x)
            assert _same_bytes(np.ascontiguousarray(fused[label]), expected), label
            assert _same_bytes(expected, ax_model_reference(victim, x)), label


class TestCodeFallback:
    def _dense(self, multiplier, scheme, weight_bits=8, units=5, inputs=4):
        source = Dense(units)
        source.build((inputs,), np.random.default_rng(0))
        source.params["bias"] = np.linspace(-1.0, 1.0, units)
        return AxDense(source, multiplier, scheme, weight_bits, kernel="native")

    def test_wide_scheme_codes_fall_back_as_matmul_does(self):
        table = np.arange(256 * 256, dtype=np.int64).reshape(256, 256) % 977
        layer = self._dense(
            LUTMultiplier("fused-wide", table), AffineQuantization(0.01, 3, bits=10)
        )
        codes = layer.quantize_input(np.linspace(-0.02, 2.5, 8).reshape(2, 4))
        assert codes.dtype == np.int64 and codes.max() < 256
        assert _same_bytes(layer.forward_from_codes(codes), _reference(layer, codes))
        codes[0, 0] = 300
        with pytest.raises(ConfigurationError, match="operand range") as from_kernel:
            layer.kernel.matmul(codes)
        with pytest.raises(ConfigurationError, match="operand range") as from_call:
            layer.forward_from_codes(codes)
        assert str(from_call.value) == str(from_kernel.value)

    def test_narrow_multiplier_codes_are_range_checked(self):
        table = np.arange(256, dtype=np.int64).reshape(16, 16)
        layer = self._dense(
            LUTMultiplier("fused-4bit", table), AffineQuantization(0.1, 2), weight_bits=4
        )
        codes = np.full((2, 4), 15, dtype=np.uint8)
        assert _same_bytes(layer.forward_from_codes(codes), _reference(layer, codes))
        codes[1, 3] = 16
        with pytest.raises(ConfigurationError):
            layer.kernel.matmul(codes)
        with pytest.raises(ConfigurationError):
            layer.forward_from_codes(codes)

    def test_strided_uint8_codes_are_packed(self, lenet_victims):
        layer = _ax_layers(lenet_victims["M2"])[-1]
        wide = _codes(5, 3, 2 * layer.kernel.inner)
        codes = wide[:, ::2]
        assert not codes.flags.c_contiguous
        assert _same_bytes(layer.forward_from_codes(codes), _reference(layer, codes))

    def test_bad_shapes_are_rejected(self, lenet_victims):
        layer = _ax_layers(lenet_victims["M2"])[-1]
        with pytest.raises(ShapeError):
            layer.forward_from_codes(_codes(1, 2, layer.kernel.inner + 1))
        codes = _codes(1, 2, layer.kernel.inner)
        with pytest.raises(ShapeError):
            layer.forward_from_codes(codes, out=np.empty((2, layer.units * 2))[:, ::2])
        with pytest.raises(ShapeError):
            layer.forward_from_codes(codes, out=np.empty((3, layer.units)))
        call = NativeLayerCall([layer], [0], 2, True)
        with pytest.raises(ShapeError):  # 3 stacked rows do not split in 2 slots
            call(_codes(1, 3, layer.kernel.inner), np.empty((3, layer.units)))


class TestBindChecks:
    def _member(self, **overrides):
        fields = dict(
            slot=0,
            zero_point=0,
            correction=np.zeros(3, dtype=np.int64),
            alpha=1.0,
            table=np.zeros((2, 256, 8), dtype=np.int32),
        )
        fields.update(overrides)
        return FusedMember(**fields)

    def test_valid_member_binds(self):
        check_layer_members([self._member()], 2, 3, 1)
        get_backend().bind_layer([self._member()], 2, 3, 1, False)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"table": np.zeros((2, 256, 8), dtype=np.int64)},
            {"table": np.zeros((3, 256, 8), dtype=np.int32)},
            {"table": np.zeros((2, 256, 16), dtype=np.int32)[:, :, ::2]},
            {"table": np.zeros((2, 256, 4), dtype=np.int32)},
            {"correction": np.zeros(4, dtype=np.int64)},
            {"bias": np.zeros(3, dtype=np.float32)},
            {"slot": 1},
            {"table": None, "sign": np.zeros((2, 3), np.int8),
             "mag": np.full((2, 3), 16, np.uint8), "lut": np.zeros((16, 16), np.int16)},
            {"table": None, "sign": np.zeros((2, 3), np.int64),
             "mag": np.zeros((2, 3), np.uint8), "lut": np.zeros((16, 16), np.int16)},
        ],
    )
    def test_layout_errors_are_caught_once(self, overrides):
        with pytest.raises(ShapeError):
            check_layer_members([self._member(**overrides)], 2, 3, 1)
        with pytest.raises(ShapeError):
            get_backend().bind_layer([self._member(**overrides)], 2, 3, 1, False)

    def test_duplicate_slots_rejected(self):
        with pytest.raises(ShapeError):
            check_layer_members([self._member(), self._member()], 2, 3, 2)
