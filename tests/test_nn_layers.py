"""Tests for the NN layers, including numerical gradient checks."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, ShapeError
from repro.nn.initializers import he_normal
from repro.nn.layers import (
    AvgPool2D,
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    Layer,
    ReLU,
)
from repro.nn.layers.base import no_grad_cache

RNG = np.random.default_rng(0)


def numerical_input_gradient(layer, x, grad_output, epsilon=1e-6):
    """Central-difference gradient of sum(layer(x) * grad_output) wrt x."""
    grad = np.zeros_like(x)
    flat_x = x.reshape(-1)
    flat_grad = grad.reshape(-1)
    for i in range(flat_x.size):
        original = flat_x[i]
        flat_x[i] = original + epsilon
        plus = np.sum(layer.forward(x, training=True) * grad_output)
        flat_x[i] = original - epsilon
        minus = np.sum(layer.forward(x, training=True) * grad_output)
        flat_x[i] = original
        flat_grad[i] = (plus - minus) / (2 * epsilon)
    return grad


def check_input_gradient(layer, x, atol=1e-5):
    """Compare analytic backward() against the numerical gradient."""
    out = layer.forward(x, training=True)
    grad_output = np.random.default_rng(1).normal(size=out.shape)
    analytic = layer.backward(grad_output)
    # re-run forward passes for numerical differentiation afterwards
    numerical = numerical_input_gradient(layer, x.copy(), grad_output)
    assert np.allclose(analytic, numerical, atol=atol), (
        f"{type(layer).__name__} input gradient mismatch"
    )


def check_param_gradient(layer, x, param_name, atol=1e-5):
    """Compare analytic parameter gradients against numerical ones."""
    out = layer.forward(x, training=True)
    grad_output = np.random.default_rng(2).normal(size=out.shape)
    layer.backward(grad_output)
    analytic = layer.grads[param_name].copy()
    param = layer.params[param_name]
    numerical = np.zeros_like(param)
    flat_param = param.reshape(-1)
    flat_num = numerical.reshape(-1)
    epsilon = 1e-6
    for i in range(flat_param.size):
        original = flat_param[i]
        flat_param[i] = original + epsilon
        plus = np.sum(layer.forward(x, training=True) * grad_output)
        flat_param[i] = original - epsilon
        minus = np.sum(layer.forward(x, training=True) * grad_output)
        flat_param[i] = original
        flat_num[i] = (plus - minus) / (2 * epsilon)
    assert np.allclose(analytic, numerical, atol=atol), (
        f"{type(layer).__name__}.{param_name} gradient mismatch"
    )


class TestInitializers:
    def test_he_normal_scale(self):
        w = he_normal((1000, 10), np.random.default_rng(0))
        assert w.std() == pytest.approx(np.sqrt(2.0 / 1000), rel=0.2)

    def test_conv_shape_fans(self):
        # a conv kernel's fan-in is kh * kw * in_channels
        w = he_normal((3, 3, 8, 160), np.random.default_rng(0))
        assert w.shape == (3, 3, 8, 160)
        assert w.std() == pytest.approx(np.sqrt(2.0 / 72), rel=0.1)

    def test_layers_draw_he_normal_weights(self):
        conv = Conv2D(4, 3)
        conv.build((6, 6, 2), np.random.default_rng(5))
        dense = Dense(3)
        dense.build((7,), np.random.default_rng(5))
        assert np.array_equal(
            conv.params["weight"], he_normal((3, 3, 2, 4), np.random.default_rng(5))
        )
        assert np.array_equal(
            dense.params["weight"], he_normal((7, 3), np.random.default_rng(5))
        )


class TestDense:
    def _build(self, in_features=6, units=4):
        layer = Dense(units)
        layer.build((in_features,), np.random.default_rng(0))
        return layer

    def test_output_shape(self):
        layer = self._build()
        assert layer.output_shape((6,)) == (4,)
        assert layer.forward(np.zeros((3, 6))).shape == (3, 4)

    def test_parameter_count(self):
        assert self._build().parameter_count() == 6 * 4 + 4

    def test_forward_matches_matmul(self):
        layer = self._build()
        x = RNG.normal(size=(5, 6))
        expected = x @ layer.params["weight"] + layer.params["bias"]
        assert np.allclose(layer.forward(x), expected)

    def test_input_gradient(self):
        layer = self._build()
        check_input_gradient(layer, RNG.normal(size=(3, 6)))

    def test_weight_gradient(self):
        layer = self._build()
        check_param_gradient(layer, RNG.normal(size=(3, 6)), "weight")

    def test_bias_gradient(self):
        layer = self._build()
        check_param_gradient(layer, RNG.normal(size=(3, 6)), "bias")

    def test_no_bias_variant(self):
        layer = Dense(4, use_bias=False)
        layer.build((6,), np.random.default_rng(0))
        assert "bias" not in layer.params

    def test_rejects_bad_units(self):
        with pytest.raises(ConfigurationError):
            Dense(0)

    def test_rejects_wrong_input_rank(self):
        layer = self._build()
        with pytest.raises(ShapeError):
            layer.forward(np.zeros((2, 3, 2)))


class TestConv2D:
    def _build(self, **kwargs):
        layer = Conv2D(kwargs.pop("filters", 3), kwargs.pop("kernel_size", 3), **kwargs)
        layer.build((6, 6, 2), np.random.default_rng(0))
        return layer

    def test_output_shape_valid(self):
        layer = self._build()
        assert layer.output_shape((6, 6, 2)) == (4, 4, 3)

    def test_output_shape_same(self):
        layer = self._build(padding="same")
        assert layer.output_shape((6, 6, 2)) == (6, 6, 3)

    def test_output_shape_strided(self):
        layer = self._build(stride=2)
        assert layer.output_shape((6, 6, 2)) == (2, 2, 3)

    def test_forward_shape(self):
        layer = self._build()
        assert layer.forward(RNG.normal(size=(2, 6, 6, 2))).shape == (2, 4, 4, 3)

    def test_input_gradient(self):
        layer = self._build()
        check_input_gradient(layer, RNG.normal(size=(2, 6, 6, 2)))

    def test_input_gradient_with_padding_and_stride(self):
        layer = self._build(padding="same", stride=2)
        check_input_gradient(layer, RNG.normal(size=(1, 6, 6, 2)))

    def test_weight_gradient(self):
        layer = self._build()
        check_param_gradient(layer, RNG.normal(size=(1, 6, 6, 2)), "weight")

    def test_bias_gradient(self):
        layer = self._build()
        check_param_gradient(layer, RNG.normal(size=(1, 6, 6, 2)), "bias")

    def test_flattened_weight_layout(self):
        layer = self._build()
        assert layer.flattened_weight().shape == (3 * 3 * 2, 3)

    def test_rejects_bad_padding(self):
        with pytest.raises(ConfigurationError):
            Conv2D(3, 3, padding="full")

    def test_rejects_wrong_rank(self):
        layer = self._build()
        with pytest.raises(ShapeError):
            layer.forward(np.zeros((2, 6, 6)))


#: AvgPool2D geometries: (pool_size, stride, input height; width is one more)
POOL_GEOMETRIES = {
    "1x1": (1, 1, 3),
    "1x1-gapped": (1, 2, 5),
    "tiling": (2, 2, 4),
    "remainder": (2, 2, 5),
    "overlapping": (2, 1, 4),
    "gapped": (2, 3, 7),
}


class TestPooling:
    def test_avg_pool_values(self):
        layer = AvgPool2D(pool_size=2)
        x = np.arange(16, dtype=np.float64).reshape(1, 4, 4, 1)
        out = layer.forward(x)
        assert out[0, 0, 0, 0] == pytest.approx((0 + 1 + 4 + 5) / 4)

    def test_avg_pool_gradient(self):
        layer = AvgPool2D(pool_size=2)
        check_input_gradient(layer, RNG.normal(size=(2, 4, 4, 3)))

    def test_output_shapes(self):
        assert AvgPool2D(2).output_shape((8, 8, 5)) == (4, 4, 5)
        assert AvgPool2D(2, stride=1).output_shape((8, 8, 5)) == (7, 7, 5)

    def test_rejects_bad_pool_size(self):
        with pytest.raises(ConfigurationError):
            AvgPool2D(0)

    @pytest.mark.parametrize("pool, stride, size", POOL_GEOMETRIES.values(),
                             ids=list(POOL_GEOMETRIES))
    def test_forward_is_the_window_mean(self, pool, stride, size):
        layer = AvgPool2D(pool, stride=stride)
        x = RNG.normal(size=(2, size, size + 1, 3))
        out = layer.forward(x)
        assert out.shape[1:] == layer.output_shape(x.shape[1:])
        for oh in range(out.shape[1]):
            for ow in range(out.shape[2]):
                window = x[:, oh * stride : oh * stride + pool, ow * stride : ow * stride + pool]
                assert np.allclose(out[:, oh, ow], window.mean(axis=(1, 2)))

    @pytest.mark.parametrize("pool, stride, size", POOL_GEOMETRIES.values(),
                             ids=list(POOL_GEOMETRIES))
    def test_gradient_across_geometries(self, pool, stride, size):
        # gapped and remainder geometries leave input cells no window reads:
        # their gradient must be zero, not stale
        check_input_gradient(
            AvgPool2D(pool, stride=stride), RNG.normal(size=(2, size, size + 1, 2))
        )

    @pytest.mark.parametrize("pool_size", [3, 4])
    def test_rejects_pools_above_two(self, pool_size):
        # a 9-element window mean is NumPy's pairwise sum, which the
        # offset loop does not reproduce bit for bit
        with pytest.raises(ConfigurationError, match="pool_size"):
            AvgPool2D(pool_size=pool_size)


class TestActivations:
    def test_relu_values(self):
        layer = ReLU()
        assert np.array_equal(
            layer.forward(np.array([-1.0, 0.0, 2.0])), np.array([0.0, 0.0, 2.0])
        )

    def test_relu_gradient(self):
        check_input_gradient(ReLU(), RNG.normal(size=(4, 7)) + 0.05)


def _built(layer, input_shape):
    layer.build(input_shape, np.random.default_rng(0))
    return layer


#: float layers whose backward needs a cached forward: (factory, input shape)
CACHING_LAYERS = {
    "relu": (ReLU, (2, 4, 4, 3)),
    "avg_pool": (lambda: AvgPool2D(2), (2, 4, 4, 3)),
    "avg_pool_overlapping": (lambda: AvgPool2D(2, stride=1), (2, 4, 4, 3)),
    "conv2d": (lambda: _built(Conv2D(2, 3), (4, 4, 3)), (2, 4, 4, 3)),
    "dense": (lambda: _built(Dense(3), (5,)), (2, 5)),
}


class TestBackwardWithoutForward:
    """Every float layer refuses a backward that has no cached forward with
    the same ShapeError, whether the layer is fresh or its last forward ran
    under ``no_grad_cache``."""

    @pytest.mark.parametrize("forward_first", [False, True], ids=["fresh", "no_grad"])
    @pytest.mark.parametrize("kind", sorted(CACHING_LAYERS))
    def test_raises_shape_error(self, kind, forward_first):
        factory, shape = CACHING_LAYERS[kind]
        layer = factory()
        x = RNG.normal(size=shape)
        if forward_first:
            with no_grad_cache():
                out = layer.forward(x)
        else:
            out = factory().forward(x)
        with pytest.raises(ShapeError, match="backward called without a training"):
            layer.backward(np.ones_like(out))


class TestFlattenDropout:
    def test_flatten_roundtrip(self):
        layer = Flatten()
        x = RNG.normal(size=(2, 3, 4, 5))
        out = layer.forward(x)
        assert out.shape == (2, 60)
        assert layer.backward(out).shape == x.shape

    def test_flatten_output_shape(self):
        assert Flatten().output_shape((3, 4, 5)) == (60,)

    def test_dropout_identity_in_eval(self):
        layer = Dropout(0.5, seed=0)
        x = RNG.normal(size=(4, 6))
        assert np.array_equal(layer.forward(x, training=False), x)

    def test_dropout_scales_in_training(self):
        layer = Dropout(0.5, seed=0)
        x = np.ones((1000, 10))
        out = layer.forward(x, training=True)
        # inverted dropout keeps the expectation roughly unchanged
        assert out.mean() == pytest.approx(1.0, abs=0.1)

    def test_dropout_backward_uses_mask(self):
        layer = Dropout(0.5, seed=0)
        x = np.ones((10, 10))
        out = layer.forward(x, training=True)
        grad = layer.backward(np.ones_like(out))
        assert np.array_equal(grad == 0, out == 0)

    def test_dropout_rejects_bad_rate(self):
        with pytest.raises(ConfigurationError):
            Dropout(1.0)


class TestLayerNaming:
    def test_auto_names_unique(self):
        a, b = Dense(3), Dense(3)
        assert a.name != b.name

    def test_explicit_name(self):
        assert Dense(3, name="classifier").name == "classifier"

    def test_base_layer_is_abstract_interface(self):
        layer = Layer()
        with pytest.raises(NotImplementedError):
            layer.forward(np.zeros(3))
