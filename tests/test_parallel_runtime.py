"""Tests for the batching helpers and worker resolution (repro.nn.runtime).

Batched inference is serial: outputs are concatenated in input order, the
remainder batch is handled and inputs are validated.  ``workers`` counts
crafting threads only; the three inference entry points that keep a
``workers=`` keyword accept ``None`` or ``1`` and refuse anything else.
The process-wide LUT cache and the thread-local grad-cache flag survive
concurrent use from several threads (the service's job and query threads
share models).
"""

import threading

import numpy as np
import pytest

from repro.attacks import get_attack
from repro.axnn import VictimPanel, build_axdnn
from repro.errors import ConfigurationError
from repro.multipliers.base import clear_global_lut_cache, global_lut_cache_size
from repro.multipliers.behavioral import NoisyLSBMultiplier, OperandTruncationMultiplier
from repro.nn.runtime import (
    available_workers,
    batch_slices,
    check_serial_workers,
    resolve_workers,
    run_batched,
    validate_batch_size,
)
from repro.robustness import AdversarialSuite, grid_from_suite


class TestResolveWorkers:
    def test_default_is_one(self, monkeypatch):
        monkeypatch.delenv("REPRO_DEFAULT_WORKERS", raising=False)
        assert resolve_workers(None) == 1

    def test_env_var_supplies_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_DEFAULT_WORKERS", "3")
        assert resolve_workers(None) == 3
        monkeypatch.setenv("REPRO_DEFAULT_WORKERS", "auto")
        assert resolve_workers(None) == available_workers()

    def test_auto_resolves_to_core_count(self):
        assert resolve_workers("auto") == available_workers()
        assert resolve_workers("auto") >= 1

    def test_explicit_counts_pass_through(self):
        assert resolve_workers(1) == 1
        assert resolve_workers(4) == 4

    @pytest.mark.parametrize("bad", [0, -2, "many", 2.5, True])
    def test_invalid_workers_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            resolve_workers(bad)


class TestBatchSlices:
    def test_remainder_batch_is_covered(self):
        slices = batch_slices(13, 5)
        assert slices == [slice(0, 5), slice(5, 10), slice(10, 13)]

    def test_empty_input_yields_no_slices(self):
        assert batch_slices(0, 8) == []

    @pytest.mark.parametrize("bad", [0, -1, 2.5, True, "8"])
    def test_invalid_batch_size_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            validate_batch_size(bad)

    def test_numpy_integer_batch_size_accepted(self):
        assert validate_batch_size(np.int64(7)) == 7


class TestRunBatched:
    def test_preserves_input_order(self):
        x = np.arange(23, dtype=np.float64)[:, None]
        assert np.array_equal(run_batched(lambda b: b * 2.0, x, batch_size=4), x * 2.0)

    def test_empty_input_rejected(self):
        with pytest.raises(ConfigurationError):
            run_batched(lambda b: b, np.zeros((0, 3)), batch_size=4)

    def test_forward_exception_propagates(self):
        def boom(batch):
            raise RuntimeError("batch failed")

        with pytest.raises(RuntimeError, match="batch failed"):
            run_batched(boom, np.ones((8, 2)), batch_size=2)

    def test_runs_without_grad_caches(self):
        from repro.nn.layers.base import grad_cache_enabled

        seen = []

        def record(batch):
            seen.append(grad_cache_enabled())
            return batch

        run_batched(record, np.ones((5, 1)), batch_size=2)
        assert seen == [False, False, False]
        assert grad_cache_enabled()


class TestSerialWorkersKeyword:
    """``workers`` on the three compatibility entry points: None or 1 only."""

    @pytest.mark.parametrize("ok", [None, 1, np.int64(1)])
    def test_serial_spellings_accepted(self, ok):
        check_serial_workers(ok)

    @pytest.mark.parametrize("bad", [2, 0, "auto", "1", True, 1.0])
    def test_other_values_rejected(self, bad):
        with pytest.raises(ConfigurationError, match="workers"):
            check_serial_workers(bad)

    def test_entry_points_reject_workers_2(
        self, tiny_cnn, approx_tiny_m8, quantized_tiny, mnist_small
    ):
        x = mnist_small.test.images[:6]
        y = mnist_small.test.labels[:6]
        victims = {"M1": quantized_tiny, "M8": approx_tiny_m8}
        panel = VictimPanel(victims)
        suite = AdversarialSuite.generate(tiny_cnn, get_attack("FGM_linf"), x, y, [0.1])
        calls = (
            lambda w: tiny_cnn.predict_classes(x, workers=w),
            lambda w: panel.predict_classes(x, workers=w),
            lambda w: grid_from_suite(suite, victims, workers=w),
        )
        for call in calls:
            with pytest.raises(ConfigurationError, match="workers"):
                call(2)
            call(1)  # the spelling perfbench and older callers use still runs

    def test_workers_1_matches_default(self, tiny_cnn, mnist_small):
        x = mnist_small.test.images[:9]
        assert np.array_equal(
            tiny_cnn.predict_classes(x, workers=1), tiny_cnn.predict_classes(x)
        )


class TestBatchedPredict:
    def test_logits_are_the_per_batch_forwards_in_order(
        self, approx_tiny_m8, tiny_cnn, mnist_small
    ):
        x = mnist_small.test.images[:13]  # 13 % 5 != 0: remainder batch
        for model, forward in (
            (approx_tiny_m8, approx_tiny_m8.forward),
            (tiny_cnn, lambda batch: tiny_cnn.forward(batch, training=False)),
        ):
            expected = np.concatenate([forward(x[s]) for s in batch_slices(13, 5)])
            assert np.array_equal(model.predict(x, batch_size=5), expected)

    def test_empty_input_returns_wellformed_logits(self, approx_tiny_m8, tiny_cnn):
        empty = np.zeros((0, 28, 28, 1))
        ax_logits = approx_tiny_m8.predict(empty)
        assert ax_logits.shape == (0, 10)
        assert approx_tiny_m8.predict_classes(empty).shape == (0,)
        float_logits = tiny_cnn.predict(empty)
        assert float_logits.shape == (0, 10)

    @pytest.mark.parametrize("bad", [0, -3, 1.5])
    def test_batch_size_validated(self, bad, approx_tiny_m8, tiny_cnn, mnist_small):
        x = mnist_small.test.images[:4]
        with pytest.raises(ConfigurationError):
            approx_tiny_m8.predict(x, batch_size=bad)
        with pytest.raises(ConfigurationError):
            tiny_cnn.predict(x, batch_size=bad)


class TestSweepWorkerInvariance:
    def test_suite_grid_invariant_to_workers(
        self, tiny_cnn, approx_tiny_m8, quantized_tiny, mnist_small
    ):
        """Crafting threads never change the grid."""
        x = mnist_small.test.images[:10]
        y = mnist_small.test.labels[:10]
        victims = {"M1": quantized_tiny, "M8": approx_tiny_m8}
        grids = [
            grid_from_suite(
                AdversarialSuite.generate(
                    tiny_cnn, get_attack("FGM_linf"), x, y, [0.0, 0.1], workers=workers
                ),
                victims,
                dataset_name="synthetic-mnist",
            )
            for workers in [1, 4]
        ]
        assert np.array_equal(grids[0].values, grids[1].values)


class TestConcurrentCacheSafety:
    def test_lut_first_touch_is_single_build(self):
        """N threads first-touching the same LUT share one cached table."""
        clear_global_lut_cache()
        size_before = global_lut_cache_size()
        barrier = threading.Barrier(6)
        tables = [None] * 6

        def first_touch(i):
            multiplier = OperandTruncationMultiplier("concurrent-lut", 2, 2)
            barrier.wait()
            tables[i] = multiplier.lut()

        threads = [threading.Thread(target=first_touch, args=(i,)) for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert global_lut_cache_size() == size_before + 1
        assert all(t is tables[0] for t in tables)

    def test_grad_cache_flag_survives_concurrent_predicts(self, tiny_cnn, mnist_small):
        """Interleaved no_grad_cache exits across threads must not stick.

        Regression test: with a shared save/restore flag, two overlapping
        predict calls in different threads could leave grad caching disabled
        forever, breaking every later attack gradient.  The flag is
        thread-local now.
        """
        from repro.nn.layers.base import grad_cache_enabled

        x = mnist_small.test.images[:8]
        y = mnist_small.test.labels[:8]
        threads = [
            threading.Thread(
                target=lambda: tiny_cnn.predict(x, batch_size=2)
            )
            for _ in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert grad_cache_enabled()
        gradient = tiny_cnn.input_gradient(x, y)
        assert gradient.shape == x.shape
        assert np.any(gradient != 0)

    def test_concurrent_kernel_first_touch_builds_identical_models(
        self, tiny_cnn, calibration_batch, mnist_small
    ):
        """Concurrent build + predict on a fresh full-rank multiplier agree."""
        multiplier = NoisyLSBMultiplier("concurrent-kernel", max_error=17)
        x = mnist_small.test.images[:6]
        barrier = threading.Barrier(3)
        logits = [None] * 3

        def build_and_predict(i):
            barrier.wait()
            ax = build_axdnn(tiny_cnn, multiplier, calibration_batch, kernel="auto")
            logits[i] = ax.predict(x, batch_size=2)

        threads = [
            threading.Thread(target=build_and_predict, args=(i,)) for i in range(3)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert np.array_equal(logits[0], logits[1])
        assert np.array_equal(logits[0], logits[2])
