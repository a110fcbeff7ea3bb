"""Tests for losses, optimizers, Sequential model and trainer."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, NotFittedError, ShapeError
from repro.nn import (
    SGD,
    Adam,
    Conv2D,
    CrossEntropyLoss,
    Dense,
    Flatten,
    ReLU,
    Sequential,
    Trainer,
    accuracy,
    accuracy_percent,
    one_hot,
    softmax,
)

RNG = np.random.default_rng(0)


def make_blobs(n=200, features=8, classes=3, seed=0):
    """Linearly separable blobs for quick training tests."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(scale=4.0, size=(classes, features))
    labels = rng.integers(0, classes, size=n)
    x = centers[labels] + rng.normal(scale=0.5, size=(n, features))
    return x, labels


class TestCrossEntropyLoss:
    def test_value_of_perfect_prediction(self):
        logits = np.array([[100.0, 0.0], [0.0, 100.0]])
        loss = CrossEntropyLoss().value(logits, np.array([0, 1]))
        assert loss == pytest.approx(0.0, abs=1e-6)

    def test_value_of_uniform_prediction(self):
        logits = np.zeros((4, 10))
        loss = CrossEntropyLoss().value(logits, np.array([0, 1, 2, 3]))
        assert loss == pytest.approx(np.log(10))

    def test_gradient_matches_numerical(self):
        loss = CrossEntropyLoss()
        logits = RNG.normal(size=(5, 4))
        targets = np.array([0, 1, 2, 3, 1])
        analytic = loss.gradient(logits, targets)
        numerical = np.zeros_like(logits)
        eps = 1e-6
        for i in range(logits.size):
            flat = logits.reshape(-1)
            original = flat[i]
            flat[i] = original + eps
            plus = loss.value(logits, targets)
            flat[i] = original - eps
            minus = loss.value(logits, targets)
            flat[i] = original
            numerical.reshape(-1)[i] = (plus - minus) / (2 * eps)
        assert np.allclose(analytic, numerical, atol=1e-6)

    def test_gradient_sums_to_zero_per_row(self):
        logits = RNG.normal(size=(6, 5))
        grad = CrossEntropyLoss().gradient(logits, np.zeros(6, dtype=int))
        assert np.allclose(grad.sum(axis=1), 0.0)

    def test_shape_validation(self):
        with pytest.raises(ShapeError):
            CrossEntropyLoss().value(np.zeros((2, 3)), np.zeros(3, dtype=int))


class TestOptimizers:
    def _quadratic_layer(self):
        layer = Dense(1, use_bias=False)
        layer.build((1,), np.random.default_rng(0))
        layer.params["weight"] = np.array([[5.0]])
        return layer

    def _step(self, optimizer, layer, iterations=200):
        for _ in range(iterations):
            w = layer.params["weight"]
            layer.grads["weight"] = 2.0 * w  # gradient of w^2
            optimizer.step([layer])
        return float(layer.params["weight"][0, 0])

    def test_sgd_converges_on_quadratic(self):
        assert abs(self._step(SGD(0.05), self._quadratic_layer())) < 1e-3

    def test_sgd_momentum_converges(self):
        assert abs(self._step(SGD(0.02, momentum=0.9), self._quadratic_layer())) < 1e-3

    def test_adam_converges(self):
        assert abs(self._step(Adam(0.1), self._quadratic_layer(), 300)) < 1e-2

    def test_weight_decay_shrinks_weights(self):
        layer = self._quadratic_layer()
        optimizer = SGD(0.1, weight_decay=0.5)
        layer.grads["weight"] = np.zeros((1, 1))
        optimizer.step([layer])
        assert layer.params["weight"][0, 0] < 5.0

    def test_rejects_bad_learning_rate(self):
        with pytest.raises(ConfigurationError):
            SGD(0.0)
        with pytest.raises(ConfigurationError):
            Adam(-1.0)

    def test_skips_layers_without_grads(self):
        layer = Dense(2)
        layer.build((2,), np.random.default_rng(0))
        before = layer.params["weight"].copy()
        SGD(0.1).step([layer])
        assert np.array_equal(before, layer.params["weight"])


class TestSequentialModel:
    def _model(self):
        return Sequential(
            [Dense(16), ReLU(), Dense(3)], input_shape=(8,), name="mlp", seed=0
        )

    def test_forward_shape(self):
        assert self._model().forward(np.zeros((5, 8))).shape == (5, 3)

    def test_predict_batching_consistent(self):
        model = self._model()
        x = RNG.normal(size=(23, 8))
        assert np.allclose(model.predict(x, batch_size=4), model.predict(x, batch_size=23))

    def test_unbuilt_model_raises(self):
        model = Sequential([Dense(3)])
        with pytest.raises(NotFittedError):
            model.forward(np.zeros((1, 2)))

    def test_add_after_build_rejected(self):
        model = self._model()
        with pytest.raises(ConfigurationError):
            model.add(Dense(2))

    def test_build_empty_model_rejected(self):
        with pytest.raises(ConfigurationError):
            Sequential([]).build((4,))

    def test_parameter_count(self):
        model = self._model()
        assert model.parameter_count() == (8 * 16 + 16) + (16 * 3 + 3)

    def test_state_dict_roundtrip(self):
        model = self._model()
        other = self._model()
        other.load_state_dict(model.state_dict())
        x = RNG.normal(size=(4, 8))
        assert np.allclose(model.forward(x), other.forward(x))

    def test_load_state_dict_missing_key(self):
        model = self._model()
        state = model.state_dict()
        state.pop(next(iter(state)))
        with pytest.raises(ShapeError):
            model.load_state_dict(state)

    def test_input_gradient_shape_and_direction(self):
        model = self._model()
        x = RNG.normal(size=(6, 8))
        y = np.array([0, 1, 2, 0, 1, 2])
        grad = model.input_gradient(x, y)
        assert grad.shape == x.shape
        # moving along the gradient must increase the loss (FGM's premise)
        loss = CrossEntropyLoss()
        base = loss.value(model.forward(x), y)
        stepped = loss.value(model.forward(x + 1e-3 * np.sign(grad)), y)
        assert stepped > base

    def test_loss_and_input_gradient_consistent(self):
        model = self._model()
        x = RNG.normal(size=(4, 8))
        y = np.array([0, 1, 2, 0])
        value, grad = model.loss_and_input_gradient(x, y)
        assert value == pytest.approx(CrossEntropyLoss().value(model.forward(x), y))
        assert np.allclose(grad, model.input_gradient(x, y))

    def test_input_gradient_numerical_check(self):
        model = self._model()
        x = RNG.normal(size=(2, 8))
        y = np.array([0, 2])
        loss = CrossEntropyLoss()
        analytic = model.input_gradient(x, y, loss)
        numerical = np.zeros_like(x)
        eps = 1e-6
        flat = x.reshape(-1)
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + eps
            plus = loss.value(model.forward(x), y)
            flat[i] = original - eps
            minus = loss.value(model.forward(x), y)
            flat[i] = original
            numerical.reshape(-1)[i] = (plus - minus) / (2 * eps)
        assert np.allclose(analytic, numerical, atol=1e-5)


class TestTrainer:
    def test_learns_separable_blobs(self):
        x, y = make_blobs(n=300, features=8, classes=3)
        model = Sequential([Dense(32), ReLU(), Dense(3)], input_shape=(8,), seed=1)
        trainer = Trainer(model, optimizer=Adam(0.01), seed=1)
        history = trainer.fit(x, y, epochs=10, batch_size=32)
        assert history.train_accuracy[-1] > 0.9
        assert history.train_loss[-1] < history.train_loss[0]

    def test_validation_tracking(self):
        x, y = make_blobs(n=200)
        model = Sequential([Dense(16), ReLU(), Dense(3)], input_shape=(8,), seed=2)
        trainer = Trainer(model, optimizer=Adam(0.01), seed=2)
        history = trainer.fit(x, y, epochs=2, batch_size=32, validation_data=(x, y))
        assert len(history.validation_accuracy) == 2

    def test_small_cnn_learns_mnist_subset(self, mnist_small):
        model = Sequential(
            [Conv2D(4, 5, stride=2), ReLU(), Flatten(), Dense(10)],
            input_shape=(28, 28, 1),
            seed=0,
        )
        trainer = Trainer(model, optimizer=Adam(2e-3), seed=0)
        history = trainer.fit(
            mnist_small.train.images, mnist_small.train.labels, epochs=3, batch_size=32
        )
        assert history.train_accuracy[-1] > 0.7

    def test_rejects_mismatched_shapes(self):
        model = Sequential([Dense(3)], input_shape=(4,))
        trainer = Trainer(model)
        with pytest.raises(ConfigurationError):
            trainer.fit(np.zeros((10, 4)), np.zeros(9, dtype=int), epochs=1)

    def test_rejects_bad_epochs(self):
        model = Sequential([Dense(3)], input_shape=(4,))
        with pytest.raises(ConfigurationError):
            Trainer(model).fit(np.zeros((4, 4)), np.zeros(4, dtype=int), epochs=0)


class TestMetrics:
    def test_accuracy(self):
        assert accuracy(np.array([1, 2, 3]), np.array([1, 0, 3])) == pytest.approx(2 / 3)

    def test_accuracy_percent(self):
        assert accuracy_percent(np.array([1, 1]), np.array([1, 0])) == pytest.approx(50.0)

    def test_accuracy_shape_mismatch(self):
        with pytest.raises(ShapeError):
            accuracy(np.array([1]), np.array([1, 2]))
