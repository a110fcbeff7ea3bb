"""Shared fixtures for the test suite.

Expensive artefacts (datasets, trained models, AxDNNs) are built once per
session at deliberately small sizes so the whole suite stays fast while still
exercising the real code paths end-to-end.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.axnn import build_axdnn, build_quantized_accurate
from repro.datasets import load_synthetic_cifar10, load_synthetic_mnist
from repro.experiments import ModelSpec, Session
from repro.experiments.backends import reset_memory_backends
from repro.models import build_lenet5
from repro.nn import Adam, Conv2D, Dense, Flatten, ReLU, Sequential, Trainer


@pytest.fixture(autouse=True)
def _isolated_memory_backends():
    """Give every test a fresh ``mem://``/``sim://`` object space.

    ``REPRO_STORE_URL=mem://…``/``sim://…`` resolve to process-global
    backends so multiple stores can share one "remote"; without a reset
    between tests (it is just a dict clear), artifacts uploaded by one
    test would leak into the next test's remote when the suite runs with
    a store URL in the environment (the CI remote-store-chaos job).
    """
    yield
    reset_memory_backends()


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    """Deterministic random generator shared by tests."""
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def mnist_small():
    """A small synthetic-MNIST dataset (fast to generate, learnable)."""
    return load_synthetic_mnist(n_train=700, n_test=150, seed=7)


@pytest.fixture(scope="session")
def cifar_small():
    """A small synthetic-CIFAR dataset."""
    return load_synthetic_cifar10(n_train=200, n_test=80, seed=7)


@pytest.fixture(scope="session")
def tiny_cnn(mnist_small):
    """A small trained CNN on synthetic MNIST (fast stand-in for LeNet-5)."""
    model = Sequential(
        [
            Conv2D(8, kernel_size=5, stride=2, padding="valid"),
            ReLU(),
            Conv2D(16, kernel_size=3, stride=2, padding="valid"),
            ReLU(),
            Flatten(),
            Dense(48),
            ReLU(),
            Dense(10),
        ],
        input_shape=(28, 28, 1),
        name="tiny_cnn",
        seed=3,
    )
    trainer = Trainer(model, optimizer=Adam(2e-3), seed=3)
    trainer.fit(
        mnist_small.train.images,
        mnist_small.train.labels,
        epochs=5,
        batch_size=32,
    )
    return model


@pytest.fixture(scope="session")
def trained_lenet(mnist_small):
    """A trained LeNet-5 on the small synthetic MNIST set."""
    model = build_lenet5(seed=5)
    trainer = Trainer(model, optimizer=Adam(1e-3), seed=5)
    trainer.fit(
        mnist_small.train.images,
        mnist_small.train.labels,
        epochs=3,
        batch_size=32,
    )
    return model


#: source models of the tests that run quantization and transfer specs: they
#: share one test split (n_test, seed), as transfer specs require
SPEC_LENET = ModelSpec(
    architecture="lenet5", dataset="mnist", n_train=500, n_test=60, epochs=3
)
SPEC_FFNN = ModelSpec(
    architecture="ffnn", dataset="mnist", n_train=500, n_test=60, epochs=3
)


@pytest.fixture(scope="session")
def experiment_session(tmp_path_factory):
    """One :class:`Session` over a store kept for the whole test run.

    Specs naming the same :class:`ModelSpec` train it once, whichever test
    module runs them first.
    """
    return Session(store=str(tmp_path_factory.mktemp("experiment-store")))


@pytest.fixture(scope="session")
def calibration_batch(mnist_small):
    """Calibration images used when building quantized / approximate models."""
    return mnist_small.train.images[:64]


@pytest.fixture(scope="session")
def quantized_tiny(tiny_cnn, calibration_batch):
    """The 8-bit quantized accurate version of the tiny CNN."""
    return build_quantized_accurate(tiny_cnn, calibration_batch)


@pytest.fixture(scope="session")
def approx_tiny_m8(tiny_cnn, calibration_batch):
    """An AxDNN built from the tiny CNN with the high-error M8 multiplier."""
    return build_axdnn(tiny_cnn, "M8", calibration_batch)
