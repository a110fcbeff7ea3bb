"""Tests for the deterministic training runtime (repro.nn.engine).

The load-bearing properties, in rough order of importance:

* trained weights on the arena runtime (workspace buffers + fused loss +
  flat optimizer) are bit-identical to the legacy seed loop, for every
  optimizer and every worker count — the artifact store keeps serving
  pre-PR model weights;
* the fused softmax cross-entropy is bit-identical to the unfused
  value/gradient pair;
* ``col2im`` is the exact adjoint of ``im2col`` for arbitrary shapes,
  strides and paddings (checked on integer-valued floats, where the inner
  products are exact);
* ``AvgPool2D`` and ``im2col`` (NumPy and compiled) reproduce their slow
  oracles' bits on edge-case floats;
* micro-batched data-parallel training is bit-identical across
  ``workers in {1, 2, "auto"}``;
* ``Sequential.backward`` computes only the gradients its caller consumes,
  and each one it computes is bit-identical to a full backward's.
"""

import os
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
    BatchNorm,
    Conv2D,
    CrossEntropyLoss,
    Dense,
    Flatten,
    FlatParameterView,
    MeanSquaredError,
    ReLU,
    Sequential,
    Trainer,
    Workspace,
    col2im,
    im2col,
    micro_batch_slices,
    softmax_cross_entropy,
    training_replicas,
    validate_data_parallel,
)
from repro.nn.layers import conv as conv_module
from repro.nn.layers.base import workspace_scope
from repro.nn.layers.dropout import Dropout
from repro.models.architectures import build_ffnn, build_lenet5

from oracle import (
    avg_pool_backward_reference,
    avg_pool_reference,
    col2im_reference,
    im2col_reference,
)

RNG = np.random.default_rng(42)


def _identical(a: dict, b: dict) -> bool:
    assert set(a) == set(b)
    return all(np.array_equal(a[key], b[key]) for key in a)


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
    @settings(max_examples=60, deadline=None)
    def test_out_buffers_bit_identical(self, geometry, seed):
        """im2col/col2im write the same bits into caller buffers."""
        batch, height, width, channels, kh, kw, stride, padding = geometry
        if height + 2 * padding < kh or width + 2 * padding < kw:
            return
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(batch, height, width, channels))
        cols = im2col(x, kh, kw, stride, padding)
        cols_buf = np.full_like(cols, np.nan)
        assert im2col(x, kh, kw, stride, padding, out=cols_buf) is cols_buf
        assert np.array_equal(cols, cols_buf)
        grad = rng.normal(size=cols.shape)
        reference = col2im_reference(grad, x.shape, kh, kw, stride, padding)
        assert np.array_equal(reference, col2im(grad, x.shape, kh, kw, stride, padding))
        padded = np.full(
            (batch, height + 2 * padding, width + 2 * padding, channels), np.nan
        )
        buffered = col2im(grad, x.shape, kh, kw, stride, padding, out=padded)
        assert np.array_equal(reference, buffered)

    @given(geometry=conv_geometries, seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=80, deadline=None)
    def test_strided_im2col_bit_identical(self, geometry, seed):
        """The single-copy im2col returns the exact bits of the slice-loop
        oracle, allocating or writing into NaN-prefilled caller buffers."""
        batch, height, width, channels, kh, kw, stride, padding = geometry
        if height + 2 * padding < kh or width + 2 * padding < kw:
            return
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(batch, height, width, channels))
        reference = im2col_reference(x, kh, kw, stride, padding)
        assert np.array_equal(reference, im2col(x, kh, kw, stride, padding))
        out = np.full_like(reference, np.nan)
        assert im2col(x, kh, kw, stride, padding, out=out) is out
        assert np.array_equal(reference, out)
        padded_shape = (batch, height + 2 * padding, width + 2 * padding, channels)
        out = np.full_like(reference, np.nan)
        padded = np.full(padded_shape, np.nan)
        fast = im2col(x, kh, kw, stride, padding, out=out, padded=padded)
        assert fast is out
        assert np.array_equal(reference, fast)
        if padding:
            # the caller's padded buffer holds the zero-bordered input
            assert np.array_equal(
                padded,
                np.pad(x, ((0, 0), (padding,) * 2, (padding,) * 2, (0, 0))),
            )

    def test_out_shape_validated(self):
        x = np.zeros((1, 4, 4, 1))
        from repro.errors import ShapeError

        with pytest.raises(ShapeError):
            im2col(x, 2, 2, 1, 0, out=np.empty((1, 3, 3, 5)))
        with pytest.raises(ShapeError):
            col2im(
                im2col(x, 2, 2, 1, 0), x.shape, 2, 2, 1, 0, out=np.empty((1, 4, 5, 1))
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
        pool=st.integers(1, 3),
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
        """AvgPool2D forward/backward (offset loop for pool <= 2, stacked
        windows above; tiling, gapped, overlapping and remainder geometries)
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

    def test_micro_batch_normalizer_sums_to_full_gradient(self):
        logits = RNG.normal(size=(12, 5))
        targets = RNG.integers(0, 5, size=12)
        full_value, full_grad = softmax_cross_entropy(logits, targets)
        parts = [slice(0, 5), slice(5, 10), slice(10, 12)]
        value = 0.0
        grad = np.zeros_like(full_grad)
        for part in parts:
            v, g = softmax_cross_entropy(
                logits[part], targets[part], normalizer=logits.shape[0]
            )
            value += v
            grad[part] = g
        assert value == pytest.approx(full_value, rel=1e-15)
        # per-row gradients only depend on the row and the normalizer
        assert np.array_equal(grad, full_grad)

    def test_grad_out_buffer(self):
        logits = RNG.normal(size=(6, 4))
        targets = np.array([0, 1, 2, 3, 0, 1])
        buf = np.full((6, 4), np.nan)
        value, grad = softmax_cross_entropy(logits, targets, grad_out=buf)
        assert grad is buf
        assert np.array_equal(buf, CrossEntropyLoss().gradient(logits, targets))

    def test_validation(self):
        from repro.errors import ShapeError

        with pytest.raises(ShapeError):
            softmax_cross_entropy(np.zeros((2, 3, 1)), np.zeros(2, dtype=int))
        with pytest.raises(ShapeError):
            softmax_cross_entropy(np.zeros((2, 3)), np.zeros(3, dtype=int))
        with pytest.raises(ShapeError):
            softmax_cross_entropy(np.zeros((2, 3)), np.array([0, 3]))

    def test_unfused_loss_rejects_normalizer_override(self):
        loss = MeanSquaredError()
        with pytest.raises(ConfigurationError):
            loss.value_and_gradient(np.zeros((4, 2)), np.zeros((4, 2)), normalizer=8)


# --------------------------------------------------------------------------
# workspace arena
# --------------------------------------------------------------------------


class TestWorkspace:
    def test_buffers_keyed_by_shape_and_reused(self):
        ws = Workspace()
        a = ws.get("slot", (4, 3))
        b = ws.get("slot", (4, 3))
        c = ws.get("slot", (2, 3))
        assert a is b
        assert c is not a
        assert ws.allocations == 2 and ws.hits == 1
        assert ws.nbytes == a.nbytes + c.nbytes
        ws.release()
        assert ws.nbytes == 0

    def test_layers_allocate_outside_scope(self):
        """A bound workspace is inert outside workspace_scope (thread safety)."""
        model = Sequential([Dense(4), ReLU(), Dense(2)], input_shape=(3,), seed=0)
        ws = Workspace()
        ws.bind(model)
        x = RNG.normal(size=(5, 3))
        out1 = model.forward(x)
        out2 = model.forward(x)
        assert out1 is not out2  # fresh arrays: predict/attack semantics
        with workspace_scope():
            out3 = model.forward(x)
            out4 = model.forward(x)
        assert out3 is out4  # the reused dense output buffer
        assert np.array_equal(out1, out3)

    def test_steady_state_training_is_allocation_free(self, mnist_small):
        model = build_lenet5(seed=0)
        trainer = Trainer(model, optimizer=Adam(2e-3), seed=0)
        x = mnist_small.train.images[:96]
        y = mnist_small.train.labels[:96]
        trainer.fit(x, y, epochs=1, batch_size=32)
        allocations = trainer.workspace.allocations
        trainer.fit(x, y, epochs=2, batch_size=32)
        assert trainer.workspace.allocations == allocations
        assert trainer.workspace.hits > 0

    def test_workspace_binding_not_pickled(self):
        import pickle

        model = Sequential([Dense(2)], input_shape=(3,), seed=0)
        Workspace().bind(model)
        clone = pickle.loads(pickle.dumps(model))
        assert clone.layers[0]._workspace is None


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

    def test_custom_per_layer_optimizer_falls_back_on_arena(self, mnist_small):
        """Optimizer subclasses implementing only _update (the pre-arena
        extension point) still train on the default runtime, bit-identical
        to the legacy loop, via the per-layer fallback."""
        from repro.nn.optimizers import Optimizer

        class PlainSGD(Optimizer):
            def _update(self, layer, name, value, grad):
                value -= 0.01 * grad

        assert not PlainSGD().supports_flat_step()
        x = mnist_small.train.images[:64]
        y = mnist_small.train.labels[:64]

        def run(runtime):
            model = build_ffnn(seed=0)
            trainer = Trainer(model, optimizer=PlainSGD(), seed=0)
            trainer.fit(x, y, epochs=2, batch_size=32, runtime=runtime)
            return model.state_dict()

        assert _identical(run("legacy"), run("arena"))
        # micro-batching genuinely needs the flat reduction: clear refusal
        model = build_ffnn(seed=0)
        with pytest.raises(ConfigurationError):
            Trainer(model, optimizer=PlainSGD(), seed=0).fit(
                x, y, epochs=1, batch_size=32, micro_batch=8
            )

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

        def run(runtime):
            model = build_ffnn(seed=0)
            trainer = Trainer(model, optimizer=ClippedSGD(0.05), seed=0)
            trainer.fit(x, y, epochs=1, batch_size=32, runtime=runtime)
            return model.state_dict()

        assert _identical(run("legacy"), run("arena"))

    def test_micro_batch_size_strictly_validated(self, mnist_small):
        model = build_ffnn(seed=0)
        trainer = Trainer(model, optimizer=Adam(1e-3), seed=0)
        x = mnist_small.train.images[:8]
        y = mnist_small.train.labels[:8]
        for bad in (True, 2.5, -1):
            with pytest.raises(ConfigurationError):
                trainer.fit(x, y, epochs=1, micro_batch=bad)
        with pytest.raises(ConfigurationError):
            micro_batch_slices(10, True)

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
        """Momentum/moment state cannot silently carry across a runtime
        switch — the other entry point must refuse, not reset to zero."""
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
# trainer: arena vs legacy, worker invariance, micro-batching
# --------------------------------------------------------------------------


def _train_lenet(mnist_small, runtime="arena", workers=None, micro_batch=None,
                 make_optimizer=lambda: Adam(2e-3)):
    model = build_lenet5(seed=0)
    trainer = Trainer(model, optimizer=make_optimizer(), seed=0)
    trainer.fit(
        mnist_small.train.images[:128],
        mnist_small.train.labels[:128],
        epochs=2,
        batch_size=48,  # deliberately ragged: 128 = 48 + 48 + 32
        runtime=runtime,
        workers=workers,
        micro_batch=micro_batch,
    )
    return model.state_dict()


class TestTrainerRuntimes:
    @pytest.mark.parametrize(
        "make_optimizer",
        [lambda: Adam(2e-3), lambda: SGD(0.01, momentum=0.9)],
    )
    def test_arena_bit_identical_to_legacy(self, mnist_small, make_optimizer):
        """The acceptance property: arena weights == seed-loop weights."""
        legacy = _train_lenet(mnist_small, runtime="legacy", make_optimizer=make_optimizer)
        arena = _train_lenet(mnist_small, runtime="arena", make_optimizer=make_optimizer)
        assert _identical(legacy, arena)

    def test_worker_invariance_of_trained_weights(self, mnist_small):
        """workers in {1, 2, 'auto'} -> identical bytes (and == legacy)."""
        reference = _train_lenet(mnist_small, runtime="legacy")
        for workers in (1, 2, "auto"):
            assert _identical(reference, _train_lenet(mnist_small, workers=workers))

    def test_micro_batch_worker_invariance(self, mnist_small):
        """The canonical micro-batch partition is worker-count independent."""
        states = [
            _train_lenet(mnist_small, workers=workers, micro_batch=16)
            for workers in (1, 2, "auto")
        ]
        assert _identical(states[0], states[1])
        assert _identical(states[0], states[2])

    def test_micro_batch_matches_full_batch_numerically(self, mnist_small):
        full = _train_lenet(mnist_small)
        micro = _train_lenet(mnist_small, micro_batch=16)
        for key in full:
            np.testing.assert_allclose(micro[key], full[key], rtol=1e-9, atol=1e-11)

    def test_micro_batch_history_consistent(self, mnist_small):
        model = build_lenet5(seed=0)
        trainer = Trainer(model, optimizer=Adam(2e-3), seed=0)
        history = trainer.fit(
            mnist_small.train.images[:64],
            mnist_small.train.labels[:64],
            epochs=1,
            batch_size=32,
            micro_batch=8,
            workers=2,
        )
        assert len(history.train_loss) == 1
        assert 0.0 <= history.train_accuracy[0] <= 1.0

    def test_validation_sharded_matches_serial(self, mnist_small):
        def run(workers):
            model = build_ffnn(seed=0)
            trainer = Trainer(model, optimizer=Adam(1e-3), seed=0)
            history = trainer.fit(
                mnist_small.train.images[:64],
                mnist_small.train.labels[:64],
                epochs=2,
                batch_size=32,
                validation_data=(mnist_small.test.images, mnist_small.test.labels),
                workers=workers,
            )
            return history.validation_accuracy

        assert run(1) == run(2)

    def test_evaluate_accepts_workers(self, mnist_small):
        model = build_ffnn(seed=0)
        trainer = Trainer(model, optimizer=Adam(1e-3), seed=0)
        trainer.fit(
            mnist_small.train.images[:64],
            mnist_small.train.labels[:64],
            epochs=1,
            batch_size=32,
        )
        serial = trainer.evaluate(mnist_small.test.images, mnist_small.test.labels)
        sharded = trainer.evaluate(
            mnist_small.test.images, mnist_small.test.labels, workers=2
        )
        assert serial == sharded

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

    def test_fit_twice_matches_single_fresh_double_legacy(self, mnist_small):
        """Arena state (workspace, flat view, optimizer scratch) survives
        a second fit with the same bits as the legacy loop."""
        x = mnist_small.train.images[:64]
        y = mnist_small.train.labels[:64]

        def run(runtime):
            model = build_ffnn(seed=0)
            trainer = Trainer(model, optimizer=Adam(1e-3), seed=0)
            trainer.fit(x, y, epochs=1, batch_size=32, runtime=runtime)
            trainer.fit(x, y, epochs=1, batch_size=32, runtime=runtime)
            return model.state_dict()

        assert _identical(run("legacy"), run("arena"))

    def test_load_state_dict_between_fits_rebinds_flat_view(self, mnist_small):
        """load_state_dict replaces the param arrays; the next fit must
        rebuild the flat view instead of updating stale views."""
        x = mnist_small.train.images[:64]
        y = mnist_small.train.labels[:64]

        def run(runtime):
            model = build_ffnn(seed=0)
            trainer = Trainer(model, optimizer=Adam(1e-3), seed=0)
            trainer.fit(x, y, epochs=1, batch_size=32, runtime=runtime)
            model.load_state_dict(model.state_dict())
            trainer.fit(x, y, epochs=1, batch_size=32, runtime=runtime)
            return model.state_dict()

        assert _identical(run("legacy"), run("arena"))

    def test_invalid_arguments(self, mnist_small):
        model = build_ffnn(seed=0)
        trainer = Trainer(model, optimizer=Adam(1e-3), seed=0)
        x = mnist_small.train.images[:8]
        y = mnist_small.train.labels[:8]
        with pytest.raises(ConfigurationError):
            trainer.fit(x, y, epochs=1, runtime="turbo")
        with pytest.raises(ConfigurationError):
            trainer.fit(x, y, epochs=1, micro_batch=0)
        with pytest.raises(ConfigurationError):
            trainer.fit(x, y, epochs=1, micro_batch=4, runtime="legacy")
        with pytest.raises(ConfigurationError):
            Trainer(model, loss=MeanSquaredError()).fit(x, y, epochs=1, micro_batch=4)


# --------------------------------------------------------------------------
# data-parallel safety guards and replicas
# --------------------------------------------------------------------------


class TestDataParallelGuards:
    def test_dropout_and_batchnorm_rejected(self):
        dropout_model = Sequential(
            [Dense(4), Dropout(0.5), Dense(2)], input_shape=(3,), seed=0
        )
        with pytest.raises(ConfigurationError):
            validate_data_parallel(dropout_model)
        bn_model = Sequential(
            [Dense(4), BatchNorm(), Dense(2)], input_shape=(3,), seed=0
        )
        with pytest.raises(ConfigurationError):
            validate_data_parallel(bn_model)
        # inactive dropout is per-sample and therefore fine
        validate_data_parallel(
            Sequential([Dense(4), Dropout(0.0), Dense(2)], input_shape=(3,), seed=0)
        )

    def test_micro_batch_slices_canonical(self):
        slices = micro_batch_slices(10, 4)
        assert slices == [slice(0, 4), slice(4, 8), slice(8, 10)]
        with pytest.raises(ConfigurationError):
            micro_batch_slices(10, 0)

    def test_replicas_share_parameters_but_not_caches(self):
        model = Sequential([Dense(4), ReLU(), Dense(2)], input_shape=(3,), seed=0)
        view = FlatParameterView(model)
        (replica,) = training_replicas(model, 1)
        assert replica.layers[0].params is model.layers[0].params
        assert replica.layers[0].grads is not model.layers[0].grads
        x = RNG.normal(size=(4, 3))
        replica.forward(x, training=True)
        assert model.layers[0]._input_cache is None
        # flat updates are visible to the replica without copies
        view.params += 0.5
        assert np.array_equal(
            replica.layers[0].params["weight"], model.layers[0].params["weight"]
        )


# --------------------------------------------------------------------------
# gradient contract: compute only what the caller consumes
# --------------------------------------------------------------------------


def _bn_model():
    return Sequential(
        [Conv2D(4, kernel_size=3, padding="same"), BatchNorm(), ReLU(), Flatten(),
         Dense(8), BatchNorm(), ReLU(), Dense(3)],
        input_shape=(6, 6, 2),
        seed=0,
    )


GRADIENT_MODELS = {
    "lenet5": lambda: build_lenet5(seed=0),
    "ffnn": lambda: build_ffnn(seed=0),
    "batchnorm": _bn_model,
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
        """Arena weights stay bit-identical to the legacy loop (which runs
        a full backward) while conv1 never scatters an input gradient."""
        calls = []
        real_col2im = conv_module.col2im

        def counting_col2im(cols, input_shape, *args, **kwargs):
            calls.append(tuple(input_shape[1:]))
            return real_col2im(cols, input_shape, *args, **kwargs)

        monkeypatch.setattr(conv_module, "col2im", counting_col2im)
        first_conv_input = tuple(build_lenet5(seed=0).input_shape)
        legacy = _train_lenet(mnist_small, runtime="legacy")
        assert first_conv_input in calls  # the counter does see conv1
        calls.clear()
        arena = _train_lenet(mnist_small, runtime="arena")
        assert _identical(legacy, arena)
        assert calls  # conv2/conv3 still propagate to their inputs
        assert first_conv_input not in calls

    def test_micro_batch_matches_serial_full_backward(self, mnist_small, monkeypatch):
        """Data-parallel shards that skip the input gradient train the same
        bytes as serial shards running a full backward."""
        parallel = _train_lenet(mnist_small, workers=2, micro_batch=16)
        full_backward = Sequential.backward

        def always_full(self, grad_output, input_grad=True, param_grads=True):
            return full_backward(self, grad_output)

        monkeypatch.setattr(Sequential, "backward", always_full)
        serial = _train_lenet(mnist_small, workers=1, micro_batch=16)
        assert _identical(parallel, serial)
