"""Tests for the deterministic training runtime (repro.nn.engine).

The load-bearing properties, in rough order of importance:

* ``Trainer.fit`` (fused loss + skipped input gradient + flat optimizer)
  trains the bytes of the seed loop in ``tests/oracle.py``, for every
  optimizer, and four pinned weight hashes hold — the artifact store keeps
  serving earlier model weights;
* the fused softmax cross-entropy is bit-identical to the unfused
  value/gradient pair;
* ``col2im`` is the exact adjoint of ``im2col`` for arbitrary shapes,
  strides and paddings (checked on integer-valued floats, where the inner
  products are exact);
* ``AvgPool2D`` and ``im2col`` (NumPy and compiled) reproduce their slow
  oracles' bits on edge-case floats;
* ``Sequential.backward`` computes only the gradients its caller consumes,
  and each one it computes is bit-identical to a full backward's;
* both trainers refuse bad training inputs with a ``ConfigurationError``
  that names the argument.
"""

import hashlib
import os
import warnings
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.axnn.native import BACKEND_ENV_VAR, backend_name, reset_backend
from repro.errors import ConfigurationError
from repro.nn import (
    SGD,
    Adam,
    AvgPool2D,
    Conv2D,
    CrossEntropyLoss,
    Dense,
    Flatten,
    FlatParameterView,
    ReLU,
    Sequential,
    Trainer,
    col2im,
    im2col,
    softmax_cross_entropy,
)
from repro.datasets import load_synthetic_cifar10, load_synthetic_mnist
from repro.defenses.adversarial_training import AdversarialTrainer
from repro.nn.layers import conv as conv_module
from repro.nn.layers.dropout import Dropout
from repro.models.architectures import build_alexnet, build_ffnn, build_lenet5

from oracle import (
    avg_pool_backward_reference,
    avg_pool_reference,
    col2im_reference,
    im2col_reference,
    train_seed_loop_reference,
)

RNG = np.random.default_rng(42)


def _identical(a: dict, b: dict) -> bool:
    assert set(a) == set(b)
    return all(np.array_equal(a[key], b[key]) for key in a)


def _seed_loop(model, optimizer, x, y, epochs, batch_size, rng=None):
    """Train ``model`` with the oracle seed loop; returns its state dict.

    ``rng`` defaults to the shuffle generator of ``Trainer(seed=0)``; pass
    one generator to consecutive calls to mirror consecutive ``fit`` calls.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    train_seed_loop_reference(
        model, CrossEntropyLoss(), optimizer, rng, x, y, epochs, batch_size
    )
    return model.state_dict()


# --------------------------------------------------------------------------
# col2im is the exact adjoint of im2col
# --------------------------------------------------------------------------

conv_geometries = st.tuples(
    st.integers(1, 3),   # batch
    st.integers(1, 7),   # height
    st.integers(1, 7),   # width
    st.integers(1, 3),   # channels
    st.integers(1, 3),   # kernel_h
    st.integers(1, 3),   # kernel_w
    st.integers(1, 3),   # stride
    st.integers(0, 2),   # padding
)


class TestCol2imAdjoint:
    @given(geometry=conv_geometries, seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=120, deadline=None)
    def test_adjoint_identity(self, geometry, seed):
        """<u, im2col(x)> == <col2im(u), x> exactly, for every geometry.

        im2col is a 0/1 selection operator and col2im its scatter-add
        transpose; with small-integer inputs both inner products are exact
        in float64, so the adjoint identity must hold to the last bit.
        """
        batch, height, width, channels, kh, kw, stride, padding = geometry
        if height + 2 * padding < kh or width + 2 * padding < kw:
            return  # non-positive output size; rejected by conv_output_size
        rng = np.random.default_rng(seed)
        x = rng.integers(-8, 9, size=(batch, height, width, channels)).astype(
            np.float64
        )
        cols = im2col(x, kh, kw, stride, padding)
        u = rng.integers(-8, 9, size=cols.shape).astype(np.float64)
        back = col2im(u, x.shape, kh, kw, stride, padding)
        assert float(np.sum(u * cols)) == float(np.sum(back * x))

    @given(geometry=conv_geometries, seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=80, deadline=None)
    def test_strided_im2col_bit_identical(self, geometry, seed):
        """The single-copy im2col returns the exact bits of the slice-loop
        oracle, and col2im those of its scatter-add oracle."""
        batch, height, width, channels, kh, kw, stride, padding = geometry
        if height + 2 * padding < kh or width + 2 * padding < kw:
            return
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(batch, height, width, channels))
        reference = im2col_reference(x, kh, kw, stride, padding)
        assert np.array_equal(reference, im2col(x, kh, kw, stride, padding))
        grad = rng.normal(size=reference.shape)
        assert np.array_equal(
            col2im_reference(grad, x.shape, kh, kw, stride, padding),
            col2im(grad, x.shape, kh, kw, stride, padding),
        )


# --------------------------------------------------------------------------
# the float path's fast spellings match their oracles bit for bit
# --------------------------------------------------------------------------


@contextmanager
def _numpy_kernels():
    """Run the block on the pure-NumPy paths, then restore the backend."""
    saved = os.environ.get(BACKEND_ENV_VAR)
    os.environ[BACKEND_ENV_VAR] = "numpy"
    reset_backend()
    try:
        yield
    finally:
        if saved is None:
            os.environ.pop(BACKEND_ENV_VAR, None)
        else:
            os.environ[BACKEND_ENV_VAR] = saved
        reset_backend()


#: values whose bits a reordered float path is most likely to move
EDGE_FLOATS = (0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -2.5e-308, 1e300, -1e-300)


@st.composite
def float_path_images(draw):
    """An NHWC image of edge-case float64 values (±0.0, ±inf, NaN,
    subnormals, magnitudes near 1e±300), C-contiguous or a strided view.

    Pixels are drawn from a small palette, so whole windows of one value
    (four ``-0.0``, say) are common.
    """
    shape = (
        draw(st.integers(1, 2)),
        draw(st.integers(1, 9)),
        draw(st.integers(1, 9)),
        draw(st.integers(1, 3)),
    )
    palette = draw(
        st.lists(
            st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(width=64)),
            min_size=1,
            max_size=4,
        )
    )
    strided = draw(st.booleans())
    stored = shape[:3] + (2 * shape[3],) if strided else shape
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    x = rng.choice(np.array(palette, dtype=np.float64), size=stored)
    return x[..., ::2] if strided else x


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


class TestFloatPathBitIdentity:
    @given(
        x=float_path_images(),
        pool=st.integers(1, 2),
        pool_stride=st.integers(1, 3),
        kernel=st.integers(1, 3),
        conv_stride=st.integers(1, 3),
        padding=st.integers(0, 2),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=150, deadline=None)
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_pools_and_im2col_match_oracles(
        self, x, pool, pool_stride, kernel, conv_stride, padding, seed
    ):
        """AvgPool2D forward/backward (tiling, gapped, overlapping and
        remainder geometries of its 1 x 1 and 2 x 2 windows)
        and im2col on the pure-NumPy path and on the resolved backend
        reproduce the oracles' int64 bit patterns.  A NumPy upgrade that changes its
        reduce order fails here instead of silently moving hashes."""
        _, height, width, _ = x.shape
        if min(height, width) >= pool:
            layer = AvgPool2D(pool, stride=pool_stride)
            out = layer.forward(x)
            assert _same_bits(out, avg_pool_reference(x, pool, pool_stride))
            rng = np.random.default_rng(seed)
            grad = rng.standard_normal(out.shape) * rng.choice(
                [0.0, -0.0, 1.0, 1e300, np.inf], size=out.shape
            )
            assert _same_bits(
                layer.backward(grad),
                avg_pool_backward_reference(grad, x.shape, pool, pool_stride),
            )
        if min(height, width) + 2 * padding >= kernel:
            reference = im2col_reference(x, kernel, kernel, conv_stride, padding)
            resolved = im2col(x, kernel, kernel, conv_stride, padding)
            assert _same_bits(resolved, reference), backend_name()
            with _numpy_kernels():
                plain = im2col(x, kernel, kernel, conv_stride, padding)
            assert _same_bits(plain, reference)


# --------------------------------------------------------------------------
# fused loss
# --------------------------------------------------------------------------

logit_batches = st.tuples(st.integers(1, 17), st.integers(2, 11))


class TestFusedLoss:
    @given(shape=logit_batches, seed=st.integers(0, 2**31 - 1), scale=st.floats(0.1, 50.0))
    @settings(max_examples=120, deadline=None)
    def test_bit_identical_to_unfused_pair(self, shape, seed, scale):
        """The fused pass returns the exact bits of value() and gradient()."""
        n, classes = shape
        rng = np.random.default_rng(seed)
        logits = rng.normal(scale=scale, size=(n, classes))
        targets = rng.integers(0, classes, size=n)
        loss = CrossEntropyLoss()
        value, grad = softmax_cross_entropy(logits, targets)
        assert value == loss.value(logits, targets)
        assert np.array_equal(grad, loss.gradient(logits, targets))
        # the Loss-object entry point is the same code
        value2, grad2 = loss.value_and_gradient(logits, targets)
        assert value2 == value
        assert np.array_equal(grad2, grad)

    def test_validation(self):
        from repro.errors import ShapeError

        with pytest.raises(ShapeError):
            softmax_cross_entropy(np.zeros((2, 3, 1)), np.zeros(2, dtype=int))
        with pytest.raises(ShapeError):
            softmax_cross_entropy(np.zeros((2, 3)), np.zeros(3, dtype=int))
        with pytest.raises(ShapeError):
            softmax_cross_entropy(np.zeros((2, 3)), np.array([0, 3]))

    def test_mean_over_the_batch(self):
        """The value is the batch-mean negative log-likelihood and each
        gradient row is ``(softmax - onehot) / batch``."""
        logits = RNG.normal(size=(7, 4))
        targets = RNG.integers(0, 4, size=7)
        shifted = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs = shifted / shifted.sum(axis=1, keepdims=True)
        onehot = np.eye(4)[targets]
        value, grad = softmax_cross_entropy(logits, targets)
        assert value == pytest.approx(
            -np.log(probs[np.arange(7), targets]).mean(), rel=1e-12
        )
        np.testing.assert_allclose(grad, (probs - onehot) / 7, rtol=1e-12, atol=1e-15)


# --------------------------------------------------------------------------
# flat parameter view + fused optimizer steps
# --------------------------------------------------------------------------


class TestFlatParameterView:
    def _model(self):
        return Sequential([Dense(8), ReLU(), Dense(3)], input_shape=(5,), seed=0)

    def test_rebinds_params_as_views(self):
        model = self._model()
        before = model.state_dict()
        view = FlatParameterView(model)
        after = model.state_dict()
        assert _identical(before, after)
        assert view.is_bound(model)
        # in-place flat updates are visible through the layer params
        view.params += 1.0
        assert np.allclose(
            model.layers[0].params["weight"], before["dense_0/weight"] + 1.0
        )

    def test_is_bound_detects_replacement(self):
        model = self._model()
        view = FlatParameterView(model)
        model.load_state_dict(model.state_dict())
        assert not view.is_bound(model)

    def test_pack_requires_gradients(self):
        model = self._model()
        view = FlatParameterView(model)
        with pytest.raises(ConfigurationError):
            view.pack_grads()

    def test_custom_per_layer_optimizer_falls_back_to_per_layer_step(
        self, mnist_small
    ):
        """Optimizer subclasses implementing only _update (the per-layer
        extension point) still train with ``fit``, bit-identical to the
        seed loop, via the per-layer fallback."""
        from repro.nn.optimizers import Optimizer

        class PlainSGD(Optimizer):
            def _update(self, layer, name, value, grad):
                value -= 0.01 * grad

        assert not PlainSGD().supports_flat_step()
        x = mnist_small.train.images[:64]
        y = mnist_small.train.labels[:64]

        model = build_ffnn(seed=0)
        Trainer(model, optimizer=PlainSGD(), seed=0).fit(
            x, y, epochs=2, batch_size=32
        )
        reference = _seed_loop(build_ffnn(seed=0), PlainSGD(), x, y, 2, 32)
        assert _identical(reference, model.state_dict())

    def test_update_only_sgd_subclass_not_treated_as_flat_capable(self, mnist_small):
        """A subclass of SGD customising only _update (e.g. clipping) must
        fall back to the per-layer step — the inherited flat update would
        silently skip the customisation."""

        class ClippedSGD(SGD):
            def _update(self, layer, name, value, grad):
                super()._update(layer, name, value, np.clip(grad, -0.01, 0.01))

        assert not ClippedSGD(0.05).supports_flat_step()
        x = mnist_small.train.images[:64]
        y = mnist_small.train.labels[:64]

        model = build_ffnn(seed=0)
        Trainer(model, optimizer=ClippedSGD(0.05), seed=0).fit(
            x, y, epochs=1, batch_size=32
        )
        reference = _seed_loop(build_ffnn(seed=0), ClippedSGD(0.05), x, y, 1, 32)
        assert _identical(reference, model.state_dict())

    def test_adam_flat_state_resets_step_count_with_moments(self):
        """Re-using one Adam across models of different sizes restarts the
        bias-correction clock together with the zeroed moments."""
        shared = Adam(0.01)
        small = np.ones(4)
        for _ in range(5):
            view = type("V", (), {"params": small, "grads": np.ones(4)})()
            shared.step_flat(view)
        fresh = Adam(0.01)
        shared_params = np.ones(7)
        fresh_params = np.ones(7)
        shared.step_flat(type("V", (), {"params": shared_params, "grads": np.ones(7)})())
        fresh.step_flat(type("V", (), {"params": fresh_params, "grads": np.ones(7)})())
        assert np.array_equal(shared_params, fresh_params)

    def test_runtime_switch_with_optimizer_state_rejected(self):
        """Momentum/moment state cannot silently carry across a switch
        between the per-layer and the flat step — the other entry point
        must refuse, not reset to zero."""
        model = self._model()
        view = FlatParameterView(model)
        x = RNG.normal(size=(6, 5))
        y = RNG.integers(0, 3, size=6)
        loss = CrossEntropyLoss()

        optimizer = Adam(0.01)
        logits = model.forward(x, training=True)
        model.backward(loss.gradient(logits, y))
        view.pack_grads()
        optimizer.step_flat(view)
        with pytest.raises(ConfigurationError):
            optimizer.step(model.trainable_layers())

        per_layer = SGD(0.05, momentum=0.9)
        logits = model.forward(x, training=True)
        model.backward(loss.gradient(logits, y))
        per_layer.step(model.trainable_layers())
        with pytest.raises(ConfigurationError):
            per_layer.step_flat(view)
        # stateless optimizers may switch freely
        plain = SGD(0.05)
        plain.step(model.trainable_layers())
        plain.step_flat(view)

    @pytest.mark.parametrize(
        "make_optimizer",
        [
            lambda: SGD(0.05),
            lambda: SGD(0.03, momentum=0.9),
            lambda: SGD(0.03, momentum=0.9, weight_decay=1e-3),
            lambda: Adam(0.01),
            lambda: Adam(0.01, weight_decay=1e-3),
        ],
    )
    def test_step_flat_bit_identical_to_per_layer_step(self, make_optimizer):
        x = RNG.normal(size=(40, 5))
        y = RNG.integers(0, 3, size=40)
        loss = CrossEntropyLoss()

        def run(flat: bool) -> dict:
            model = self._model()
            optimizer = make_optimizer()
            view = FlatParameterView(model) if flat else None
            for _ in range(5):
                logits = model.forward(x, training=True)
                model.backward(loss.gradient(logits, y))
                if flat:
                    view.pack_grads()
                    optimizer.step_flat(view)
                else:
                    optimizer.step(model.trainable_layers())
            return model.state_dict()

        assert _identical(run(flat=False), run(flat=True))


# --------------------------------------------------------------------------
# trainer: seed-loop identity
# --------------------------------------------------------------------------


def _train_lenet(mnist_small, make_optimizer=lambda: Adam(2e-3)):
    model = build_lenet5(seed=0)
    trainer = Trainer(model, optimizer=make_optimizer(), seed=0)
    trainer.fit(
        mnist_small.train.images[:128],
        mnist_small.train.labels[:128],
        epochs=2,
        batch_size=48,  # deliberately ragged: 128 = 48 + 48 + 32
    )
    return model.state_dict()


def _seed_loop_lenet(mnist_small, make_optimizer=lambda: Adam(2e-3)):
    """:func:`_train_lenet`'s training run on the oracle seed loop."""
    return _seed_loop(
        build_lenet5(seed=0),
        make_optimizer(),
        mnist_small.train.images[:128],
        mnist_small.train.labels[:128],
        epochs=2,
        batch_size=48,
    )


class TestTrainerRuntimes:
    @pytest.mark.parametrize(
        "make_optimizer",
        [lambda: Adam(2e-3), lambda: SGD(0.01, momentum=0.9)],
    )
    def test_fit_bit_identical_to_seed_loop(self, mnist_small, make_optimizer):
        """The acceptance property: fit weights == seed-loop weights."""
        reference = _seed_loop_lenet(mnist_small, make_optimizer=make_optimizer)
        trained = _train_lenet(mnist_small, make_optimizer=make_optimizer)
        assert _identical(reference, trained)

    def test_on_epoch_callback(self, mnist_small):
        events = []
        model = build_ffnn(seed=0)
        trainer = Trainer(model, optimizer=Adam(1e-3), seed=0)
        trainer.fit(
            mnist_small.train.images[:64],
            mnist_small.train.labels[:64],
            epochs=3,
            batch_size=32,
            on_epoch=lambda epoch, metrics: events.append((epoch, metrics)),
        )
        assert [epoch for epoch, _ in events] == [1, 2, 3]
        assert all("train_loss" in metrics for _, metrics in events)

    def test_fit_twice_matches_seed_loop_twice(self, mnist_small):
        """Trainer state (flat view, optimizer scratch) survives a second
        fit with the same bits as the seed loop run twice."""
        x = mnist_small.train.images[:64]
        y = mnist_small.train.labels[:64]
        model = build_ffnn(seed=0)
        trainer = Trainer(model, optimizer=Adam(1e-3), seed=0)
        trainer.fit(x, y, epochs=1, batch_size=32)
        trainer.fit(x, y, epochs=1, batch_size=32)

        reference = build_ffnn(seed=0)
        optimizer, rng = Adam(1e-3), np.random.default_rng(0)
        _seed_loop(reference, optimizer, x, y, 1, 32, rng)
        assert _identical(
            _seed_loop(reference, optimizer, x, y, 1, 32, rng), model.state_dict()
        )

    def test_load_state_dict_between_fits_rebinds_flat_view(self, mnist_small):
        """load_state_dict replaces the param arrays; the next fit must
        rebuild the flat view instead of updating stale views."""
        x = mnist_small.train.images[:64]
        y = mnist_small.train.labels[:64]

        model = build_ffnn(seed=0)
        trainer = Trainer(model, optimizer=Adam(1e-3), seed=0)
        trainer.fit(x, y, epochs=1, batch_size=32)
        model.load_state_dict(model.state_dict())
        trainer.fit(x, y, epochs=1, batch_size=32)

        reference = build_ffnn(seed=0)
        optimizer, rng = Adam(1e-3), np.random.default_rng(0)
        _seed_loop(reference, optimizer, x, y, 1, 32, rng)
        reference.load_state_dict(reference.state_dict())
        assert _identical(
            _seed_loop(reference, optimizer, x, y, 1, 32, rng), model.state_dict()
        )

# --------------------------------------------------------------------------
# gradient contract: compute only what the caller consumes
# --------------------------------------------------------------------------


def _pooled_cnn():
    return Sequential(
        [Conv2D(4, kernel_size=3, padding="same"), ReLU(), AvgPool2D(2),
         Conv2D(5, kernel_size=2), ReLU(), Flatten(), Dense(8), ReLU(), Dense(3)],
        input_shape=(6, 6, 2),
        seed=0,
    )


GRADIENT_MODELS = {
    "lenet5": lambda: build_lenet5(seed=0),
    "ffnn": lambda: build_ffnn(seed=0),
    "pooled_cnn": _pooled_cnn,
}


def _batch(model, n=5):
    x = RNG.normal(size=(n,) + tuple(model.input_shape))
    y = RNG.integers(0, model.output_shape[-1], size=n)
    return x, y


def _grads_snapshot(model):
    return [
        {name: (grad, grad.copy()) for name, grad in layer.grads.items()}
        for layer in model.layers
    ]


def _full_backward(model, x, y, training):
    """Reference: one default (compute-everything) backward pass."""
    logits = model.forward(x, training=training)
    input_grad = model.backward(CrossEntropyLoss().gradient(logits, y)).copy()
    return input_grad, [
        {name: grad.copy() for name, grad in layer.grads.items()}
        for layer in model.layers
    ]


@pytest.fixture(params=sorted(GRADIENT_MODELS))
def gradient_model(request):
    return GRADIENT_MODELS[request.param]()


class TestGradientContract:
    @pytest.mark.parametrize("training", [False, True])
    def test_input_grad_without_param_grads_bit_identical(
        self, gradient_model, training
    ):
        x, y = _batch(gradient_model)
        reference, _ = _full_backward(gradient_model, x, y, training)
        logits = gradient_model.forward(x, training=training)
        fast = gradient_model.backward(
            CrossEntropyLoss().gradient(logits, y), param_grads=False
        )
        assert np.array_equal(reference, fast)

    @pytest.mark.parametrize("training", [False, True])
    def test_param_grads_without_input_grad_bit_identical(
        self, gradient_model, training
    ):
        x, y = _batch(gradient_model)
        _, reference = _full_backward(gradient_model, x, y, training)
        logits = gradient_model.forward(x, training=training)
        result = gradient_model.backward(
            CrossEntropyLoss().gradient(logits, y), input_grad=False
        )
        assert result is None
        for layer, expected in zip(gradient_model.layers, reference):
            assert set(layer.grads) == set(expected)
            for name, grad in expected.items():
                assert np.array_equal(layer.grads[name], grad)

    def test_no_consumed_gradient_runs_nothing(self, gradient_model):
        x, y = _batch(gradient_model)
        logits = gradient_model.forward(x)
        grad = CrossEntropyLoss().gradient(logits, y)
        assert gradient_model.backward(grad, input_grad=False, param_grads=False) is None
        assert all(not layer.grads for layer in gradient_model.layers)

    def test_layers_below_lowest_parameter_layer_not_run(self):
        model = build_ffnn(seed=0)
        assert isinstance(model.layers[0], Flatten)
        x, y = _batch(model)
        logits = model.forward(x)

        def fail(grad_output):
            raise AssertionError("Flatten.backward must not run")

        model.layers[0].backward = fail
        model.backward(CrossEntropyLoss().gradient(logits, y), input_grad=False)
        assert model.layers[1].grads  # the lowest Dense still has its grads

    def test_input_gradient_leaves_layer_grads_untouched(self, gradient_model):
        x, y = _batch(gradient_model)
        fresh_grad = gradient_model.input_gradient(x, y)
        assert all(not layer.grads for layer in gradient_model.layers)
        reference, _ = _full_backward(gradient_model, x, y, training=False)
        assert np.array_equal(fresh_grad, reference)
        before = _grads_snapshot(gradient_model)
        other_x, other_y = _batch(gradient_model)
        gradient_model.input_gradient(other_x, other_y)
        gradient_model.loss_and_input_gradient(other_x, other_y)
        for layer, snapshot in zip(gradient_model.layers, before):
            assert set(layer.grads) == set(snapshot)
            for name, (array, values) in snapshot.items():
                assert layer.grads[name] is array
                assert np.array_equal(array, values)

    def test_training_step_skips_first_conv_input_gradient(
        self, mnist_small, monkeypatch
    ):
        """fit's weights stay bit-identical to the seed loop (which runs a
        full backward) while conv1 never scatters an input gradient."""
        calls = []
        real_col2im = conv_module.col2im

        def counting_col2im(cols, input_shape, *args, **kwargs):
            calls.append(tuple(input_shape[1:]))
            return real_col2im(cols, input_shape, *args, **kwargs)

        monkeypatch.setattr(conv_module, "col2im", counting_col2im)
        first_conv_input = tuple(build_lenet5(seed=0).input_shape)
        reference = _seed_loop_lenet(mnist_small)
        assert first_conv_input in calls  # the counter does see conv1
        calls.clear()
        trained = _train_lenet(mnist_small)
        assert _identical(reference, trained)
        assert calls  # conv2/conv3 still propagate to their inputs
        assert first_conv_input not in calls

# --------------------------------------------------------------------------
# pinned weights: fit and the seed loop train the recorded bytes
# --------------------------------------------------------------------------


def _dropout_mlp(seed=0):
    return Sequential(
        [Flatten(), Dense(32), ReLU(), Dropout(0.3, seed=3), Dense(10)],
        input_shape=(28, 28, 1),
        seed=seed,
    )


#: case -> (model builder, optimizer factory, dataset, epochs, batch size)
PINNED_CASES = {
    "lenet5-sgd-momentum": (build_lenet5, lambda: SGD(0.01, momentum=0.9), "mnist", 2, 48),
    "lenet5-adam": (build_lenet5, lambda: Adam(2e-3), "mnist", 2, 48),
    "dropout-mlp": (_dropout_mlp, lambda: Adam(1e-3), "mnist", 2, 48),
    "alexnet-mini": (build_alexnet, lambda: Adam(2e-3), "cifar", 1, 32),
}

#: sha256 of the trained ``state_dict()`` (sorted keys, then array bytes).
#: Recorded with NumPy 2.4 and its bundled OpenBLAS on x86-64, where the
#: buffer-arena runtime, the seed loop and today's ``fit`` all train these
#: bytes.  A BLAS that sums in another order moves every hash; re-record
#: them only after checking that ``fit`` and the seed loop still agree.
PINNED_WEIGHT_SHA256 = {
    "lenet5-sgd-momentum": "fc11bdba2a73668aa246cbaf6d6d5962c990593da29e99ce4dc936c31845f209",
    "lenet5-adam": "15c0c3364a37c6797162ddff7d5171fa5443e8c97f0aa3defba5d6b04f0fd41d",
    "dropout-mlp": "cc3478ba0f5969681fce3ddd9172f8b5858d4ab7e1e3dc918b01f1419a041e44",
    "alexnet-mini": "63cceb8dd23b6f70d307682a365995ca54fdc628b8c36e018cbae5fe9ffd166a",
}

def _state_sha256(state: dict) -> str:
    digest = hashlib.sha256()
    for key in sorted(state):
        digest.update(key.encode())
        digest.update(np.ascontiguousarray(state[key]).tobytes())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def pinned_datasets():
    return {
        "mnist": load_synthetic_mnist(n_train=160, n_test=16, seed=11),
        "cifar": load_synthetic_cifar10(n_train=96, n_test=16, seed=11),
    }


class TestPinnedWeights:
    @pytest.mark.parametrize("case", sorted(PINNED_CASES))
    def test_fit_and_seed_loop_train_pinned_bytes(self, case, pinned_datasets):
        build, make_optimizer, dataset, epochs, batch_size = PINNED_CASES[case]
        x = pinned_datasets[dataset].train.images
        y = pinned_datasets[dataset].train.labels
        model = build(seed=0)
        history = Trainer(model, optimizer=make_optimizer(), seed=0).fit(
            x, y, epochs=epochs, batch_size=batch_size
        )
        assert _state_sha256(model.state_dict()) == PINNED_WEIGHT_SHA256[case]

        reference = build(seed=0)
        losses = train_seed_loop_reference(
            reference,
            CrossEntropyLoss(),
            make_optimizer(),
            np.random.default_rng(0),
            x,
            y,
            epochs,
            batch_size,
        )
        assert _state_sha256(reference.state_dict()) == PINNED_WEIGHT_SHA256[case]
        assert history.train_loss == losses

# --------------------------------------------------------------------------
# both trainers reject bad training inputs
# --------------------------------------------------------------------------

#: case -> (samples in x, labels in y, fit keywords, expected message)
BAD_FIT_INPUTS = {
    "empty": (0, 0, {}, "x and y hold no samples"),
    "length-mismatch": (8, 7, {}, "x and y must hold the same number"),
    "epochs-zero": (8, 8, {"epochs": 0}, "epochs must be a positive integer"),
    "epochs-fraction": (8, 8, {"epochs": 1.5}, "epochs must be a positive integer"),
    "batch-size-zero": (8, 8, {"batch_size": 0}, "batch_size must be a positive"),
}

TRAINERS = {
    "trainer": lambda model: Trainer(model, optimizer=Adam(1e-3), seed=0),
    "adversarial": lambda model: AdversarialTrainer(
        model, optimizer=Adam(1e-3), seed=0
    ),
}


@pytest.mark.parametrize(
    "trainer_kind, case",
    [(kind, case) for kind in sorted(TRAINERS) for case in sorted(BAD_FIT_INPUTS)],
)
def test_bad_training_inputs_rejected(trainer_kind, case, mnist_small):
    """One shared check: a ConfigurationError naming the argument, raised
    before any work and without NumPy warnings."""
    n_x, n_y, kwargs, message = BAD_FIT_INPUTS[case]
    trainer = TRAINERS[trainer_kind](build_ffnn(seed=0))
    fit_kwargs = {"epochs": 1, "batch_size": 4, **kwargs}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigurationError, match=message):
            trainer.fit(
                mnist_small.train.images[:n_x],
                mnist_small.train.labels[:n_y],
                **fit_kwargs,
            )
