"""Micro-benchmarks of the deterministic training runtime.

Not a paper figure — these measure the cost of every cold ``Session.run``'s
dominant stage (training, see PERFORMANCE.md) on the two model shapes of
the paper:

* **fit vs seed loop** — ``Trainer.fit`` (fused softmax-cross-entropy, a
  backward pass that skips the unused input gradient, flat optimizer step)
  against the seed training loop it replaced, spelled out inline below, on
  the LeNet-5 and AlexNet-mini shapes.  The rows keep their historical
  names, ``lenet_arena.*`` and ``alexnet_arena.*``, so the committed
  baselines and CI gates still apply: "arena" now names ``Trainer.fit``,
  which no longer has a buffer arena.  Weights are bit-identical by
  contract; only the clock moves.  Measured as paired per-round ratios with
  alternating order so machine drift cancels
  (:func:`repro.benchmarking.paired_ratios`).

The measured numbers land in ``benchmarks/results/BENCH_training.json`` as
a schema-versioned report, recorded through the lease-locked
:func:`repro.benchmarking.record_report` path by the ``suite`` fixture —
the old per-test read-modify-write of that file raced under concurrent
shards and silently discarded corrupt history.
"""

import numpy as np
import pytest

from repro.datasets import load_synthetic_cifar10, load_synthetic_mnist
from repro.models.architectures import build_alexnet, build_lenet5
from repro.nn import Adam, CrossEntropyLoss, Trainer

#: benchmark shapes: small enough for CI, large enough to be BLAS-bound
N_TRAIN_MNIST = 512
N_TRAIN_CIFAR = 256
BATCH_SIZE = 64


def _training_pair(build_model, images, labels):
    """One epoch per call of the seed loop and of ``Trainer.fit``.

    Returns ``(run_seed_loop, run_fit, seed_model, fit_model)``.  The seed
    loop is the one ``tests/oracle.py`` keeps as the reference: ``fit``'s
    shuffle, then per mini-batch a forward pass, the unfused
    ``loss.value``/``loss.gradient`` pair, a full backward pass (input
    gradient included) and the per-layer optimizer step.
    """
    images = np.asarray(images, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    seed_model = build_model(seed=0)
    seed_optimizer = Adam(2e-3)
    seed_rng = np.random.default_rng(0)  # Trainer(seed=0)'s shuffle stream
    loss = CrossEntropyLoss()
    trainer = Trainer(build_model(seed=0), optimizer=Adam(2e-3), seed=0)

    def run_seed_loop():
        order = np.arange(images.shape[0])
        seed_rng.shuffle(order)
        for start in range(0, images.shape[0], BATCH_SIZE):
            batch = order[start : start + BATCH_SIZE]
            xb, yb = images[batch], labels[batch]
            logits = seed_model.forward(xb, training=True)
            loss.value(logits, yb)
            seed_model.backward(loss.gradient(logits, yb))
            seed_optimizer.step(seed_model.trainable_layers())

    def run_fit():
        trainer.fit(images, labels, epochs=1, batch_size=BATCH_SIZE)

    return run_seed_loop, run_fit, seed_model, trainer.model


def _assert_same_weights(seed_model, fit_model):
    seed_state = seed_model.state_dict()
    fit_state = fit_model.state_dict()
    assert all(np.array_equal(seed_state[key], fit_state[key]) for key in seed_state)


@pytest.mark.benchmark(group="training")
def test_training_fit_vs_seed_loop_lenet(benchmark, suite):
    """Acceptance check: ``Trainer.fit`` beats the seed loop on LeNet.

    The weights of both paths are bit-identical (asserted below and in
    tests/test_training_engine.py); ``fit`` buys its time back from the
    fused loss, skipping conv1's unused input gradient and the flat
    optimizer step.  Both share the single-copy im2col.
    """
    dataset = load_synthetic_mnist(n_train=N_TRAIN_MNIST, n_test=64, seed=0)
    images, labels = dataset.train.images, dataset.train.labels
    run_seed_loop, run_fit, seed_model, fit_model = _training_pair(
        build_lenet5, images, labels
    )
    stats = suite.paired("lenet_arena", run_seed_loop, run_fit, rounds=10)
    suite.record(
        "lenet_arena.epochs_per_s",
        1.0 / stats["b_best_s"],
        unit="1/s",
        higher_is_better=True,
        n_train=N_TRAIN_MNIST,
        batch_size=BATCH_SIZE,
    )
    benchmark.extra_info.update(stats)
    # bit-identity after identical epoch counts (checked before the
    # pedantic round gives the fit model an extra epoch)
    _assert_same_weights(seed_model, fit_model)
    benchmark.pedantic(run_fit, rounds=1, iterations=1)
    assert stats["ratio_median"] >= 1.05, (
        f"Trainer.fit only {stats['ratio_median']:.3f}x the seed loop "
        f"on the LeNet shape (expected a clear speedup)"
    )


@pytest.mark.benchmark(group="training")
def test_training_fit_vs_seed_loop_alexnet(benchmark, suite):
    """AlexNet-mini shape: recorded; dominated by col2im/BLAS so the margin
    is thinner than LeNet's — asserted only as 'not slower beyond noise'."""
    dataset = load_synthetic_cifar10(n_train=N_TRAIN_CIFAR, n_test=32, seed=0)
    images, labels = dataset.train.images, dataset.train.labels
    run_seed_loop, run_fit, seed_model, fit_model = _training_pair(
        build_alexnet, images, labels
    )
    stats = suite.paired("alexnet_arena", run_seed_loop, run_fit, rounds=6)
    benchmark.extra_info.update(stats)
    _assert_same_weights(seed_model, fit_model)
    benchmark.pedantic(run_fit, rounds=1, iterations=1)
    assert stats["ratio_median"] >= 0.95
