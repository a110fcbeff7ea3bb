"""Micro-benchmarks of the deterministic training runtime.

Not a paper figure — these measure the cost of every cold ``Session.run``'s
dominant stage (training, see PERFORMANCE.md) on the two model shapes of
the paper:

* **arena vs legacy** — the full training runtime (workspace arenas,
  fused softmax-cross-entropy, a backward pass that skips the unused input
  gradient, flat optimizer step) against the seed training loop it
  replaced, on the LeNet-5 and
  AlexNet-mini shapes.  Weights are bit-identical by contract; only the
  clock moves.  Measured as paired per-round ratios with alternating order
  so machine drift cancels (:func:`repro.benchmarking.paired_ratios`).
* **serial vs sharded** — deterministic data-parallel gradients
  (``micro_batch=``) across worker threads.  On a single-core host the
  sharded run shows parity (the speedup assertion activates on >= 4-core
  hosts, as in the PR 2/3 benchmarks); weights are bit-identical for every
  worker count by construction.

The measured numbers land in ``benchmarks/results/BENCH_training.json`` as
a schema-versioned report, recorded through the lease-locked
:func:`repro.benchmarking.record_report` path by the ``suite`` fixture —
the old per-test read-modify-write of that file raced under concurrent
shards and silently discarded corrupt history.
"""

import numpy as np
import pytest

from repro.benchmarking import best_of
from repro.datasets import load_synthetic_cifar10, load_synthetic_mnist
from repro.models.architectures import build_alexnet, build_lenet5
from repro.nn import Adam, Trainer
from repro.nn.runtime import available_workers

#: benchmark shapes: small enough for CI, large enough to be BLAS-bound
N_TRAIN_MNIST = 512
N_TRAIN_CIFAR = 256
BATCH_SIZE = 64


def _trainer_pair(build_model, images, labels):
    trainers = {}
    for runtime in ("legacy", "arena"):
        model = build_model(seed=0)
        trainers[runtime] = Trainer(model, optimizer=Adam(2e-3), seed=0)
    def run(runtime):
        trainers[runtime].fit(
            images, labels, epochs=1, batch_size=BATCH_SIZE, runtime=runtime
        )
    return trainers, run


@pytest.mark.benchmark(group="training")
def test_training_arena_vs_legacy_lenet(benchmark, suite):
    """Acceptance check: the arena+fused path beats the seed loop on LeNet.

    The weights of both paths are bit-identical (asserted below and in
    tests/test_training_engine.py); the arena buys its time back from
    buffer reuse, the fused loss, skipping conv1's unused input gradient
    and the flat optimizer step.  Both runtimes share the single-copy
    im2col.
    """
    dataset = load_synthetic_mnist(n_train=N_TRAIN_MNIST, n_test=64, seed=0)
    images, labels = dataset.train.images, dataset.train.labels
    trainers, run = _trainer_pair(build_lenet5, images, labels)
    stats = suite.paired(
        "lenet_arena", lambda: run("legacy"), lambda: run("arena"), rounds=10
    )
    suite.record(
        "lenet_arena.epochs_per_s",
        1.0 / stats["b_best_s"],
        unit="1/s",
        higher_is_better=True,
        n_train=N_TRAIN_MNIST,
        batch_size=BATCH_SIZE,
    )
    benchmark.extra_info.update(stats)
    # bit-identity of the two runtimes after identical epoch counts (checked
    # before the pedantic round gives the arena model an extra epoch)
    legacy_state = trainers["legacy"].model.state_dict()
    arena_state = trainers["arena"].model.state_dict()
    assert all(
        np.array_equal(legacy_state[key], arena_state[key]) for key in legacy_state
    )
    benchmark.pedantic(lambda: run("arena"), rounds=1, iterations=1)
    assert stats["ratio_median"] >= 1.05, (
        f"arena runtime only {stats['ratio_median']:.3f}x the legacy loop "
        f"on the LeNet shape (expected a clear speedup)"
    )


@pytest.mark.benchmark(group="training")
def test_training_arena_vs_legacy_alexnet(benchmark, suite):
    """AlexNet-mini shape: recorded; dominated by col2im/BLAS so the margin
    is thinner than LeNet's — asserted only as 'not slower beyond noise'."""
    dataset = load_synthetic_cifar10(n_train=N_TRAIN_CIFAR, n_test=32, seed=0)
    images, labels = dataset.train.images, dataset.train.labels
    trainers, run = _trainer_pair(build_alexnet, images, labels)
    stats = suite.paired(
        "alexnet_arena", lambda: run("legacy"), lambda: run("arena"), rounds=6
    )
    benchmark.extra_info.update(stats)
    legacy_state = trainers["legacy"].model.state_dict()
    arena_state = trainers["arena"].model.state_dict()
    assert all(
        np.array_equal(legacy_state[key], arena_state[key]) for key in legacy_state
    )
    benchmark.pedantic(lambda: run("arena"), rounds=1, iterations=1)
    assert stats["ratio_median"] >= 0.95


@pytest.mark.benchmark(group="training")
def test_training_serial_vs_sharded(benchmark, suite):
    """Deterministic data-parallel gradients: bit-identical, recorded timing.

    The canonical micro-batch partition never depends on the worker count,
    so serial and sharded runs train byte-identical weights; on this
    container (1 core) the timing shows parity and the speedup assertion —
    like the report's ``min_cores=4`` gate — activates on >= 4-core hosts.
    """
    dataset = load_synthetic_mnist(n_train=N_TRAIN_MNIST, n_test=64, seed=0)
    images, labels = dataset.train.images, dataset.train.labels
    cores = available_workers()

    def train(workers):
        model = build_lenet5(seed=0)
        trainer = Trainer(model, optimizer=Adam(2e-3), seed=0)
        trainer.fit(
            images,
            labels,
            epochs=1,
            batch_size=BATCH_SIZE,
            micro_batch=16,
            workers=workers,
        )
        return model.state_dict()

    serial_s = best_of(lambda: train(1), repeats=3, warmup=1)
    sharded_s = best_of(lambda: train("auto"), repeats=3, warmup=1)
    suite.record("sharded.serial_epoch_s", serial_s, micro_batch=16)
    suite.record("sharded.sharded_epoch_s", sharded_s, micro_batch=16)
    suite.record(
        "sharded.speedup",
        serial_s / sharded_s,
        unit="ratio",
        higher_is_better=True,
        min_cores=4,
    )
    benchmark.extra_info["cores"] = cores
    benchmark.extra_info["serial_s"] = serial_s
    benchmark.extra_info["sharded_s"] = sharded_s
    benchmark.extra_info["speedup"] = serial_s / sharded_s
    benchmark.pedantic(lambda: train("auto"), rounds=1, iterations=1)
    serial_state = train(1)
    sharded_state = train("auto")
    assert all(
        np.array_equal(serial_state[key], sharded_state[key])
        for key in serial_state
    )
    if cores >= 4:
        assert serial_s / sharded_s >= 1.3, (
            f"micro-batch sharding only {serial_s / sharded_s:.2f}x on "
            f"{cores} cores"
        )
