"""Tests for the unified attack runtime (repro.attacks.engine).

The engine's contract is bit-for-bit reproducibility along three axes:
per-budget ``generate`` vs one amortised ``generate_sweep``, and every
worker count (1 / N / 'auto'; 1 runs inline, more on shard threads that
each craft on their own copy of the source model) —
plus the amortization guarantee that an FGM-family epsilon sweep costs exactly
one gradient evaluation.
"""

import copy
import multiprocessing
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.attacks import (
    AttackEngine,
    FGML2,
    FGMLinf,
    BIMLinf,
    PGDL2,
    PGDLinf,
    available_attacks,
    get_attack,
)
from repro.attacks.engine import DEFAULT_SHARD_SIZE
from repro.errors import ConfigurationError
from repro.nn import AvgPool2D, Conv2D, Dense, Dropout, Flatten, ReLU, Sequential
from repro.robustness import AdversarialSuite

ALL_KEYS = sorted(available_attacks())

#: attacks whose crafting consumes the per-call RNG stream
SEEDED_KEYS = ["PGD_linf", "PGD_l2", "RAG_l2", "RAU_l2", "RAU_linf"]

SWEEP_EPSILONS = [0.0, 0.05, 0.1, 0.2, 0.3]


@pytest.fixture(scope="module")
def engine_data(mnist_small):
    return mnist_small.test.images[:12], mnist_small.test.labels[:12]


def _pooled_dropout_cnn():
    """An untrained source model with Dropout and AvgPool layers.

    Built fresh per call, so its transient caches are all None until a
    forward pass on this very object fills them.
    """
    return Sequential(
        [
            Conv2D(4, kernel_size=3, padding="valid"),
            ReLU(),
            AvgPool2D(2),
            Flatten(),
            Dropout(0.3, seed=5),
            Dense(10),
        ],
        input_shape=(28, 28, 1),
        name="pooled_dropout_cnn",
        seed=9,
    )


def _transient_caches(model):
    return [
        getattr(layer, attr)
        for layer in model.layers
        for attr in layer._transient_attrs
    ]


class _GradientSpy:
    """Counts Sequential.input_gradient calls without changing results."""

    def __init__(self, monkeypatch):
        self.calls = 0
        original = Sequential.input_gradient
        spy = self

        def counting(model_self, *args, **kwargs):
            spy.calls += 1
            return original(model_self, *args, **kwargs)

        monkeypatch.setattr(Sequential, "input_gradient", counting)


class TestSweepMatchesGenerate:
    @pytest.mark.parametrize("key", ALL_KEYS)
    def test_bit_identical_per_budget(self, key, tiny_cnn, engine_data):
        x, y = engine_data
        sweep = get_attack(key).generate_sweep(tiny_cnn, x, y, SWEEP_EPSILONS)
        assert set(sweep) == set(SWEEP_EPSILONS)
        for epsilon in SWEEP_EPSILONS:
            single = get_attack(key).generate(tiny_cnn, x, y, epsilon)
            assert np.array_equal(sweep[epsilon], single), (key, epsilon)

    def test_zero_epsilon_entry_is_clean(self, tiny_cnn, engine_data):
        x, y = engine_data
        sweep = FGMLinf().generate_sweep(tiny_cnn, x, y, [0.0, 0.1])
        assert np.array_equal(sweep[0.0], x)

    def test_duplicate_budgets_collapse(self, tiny_cnn, engine_data):
        x, y = engine_data
        sweep = FGMLinf().generate_sweep(tiny_cnn, x, y, [0.1, 0.1, 0.2])
        assert set(sweep) == {0.1, 0.2}


class TestWorkerInvariance:
    @pytest.mark.parametrize("source", ["tiny_cnn", "pooled_dropout_cnn"])
    @pytest.mark.parametrize("key", sorted(available_attacks()))
    def test_bit_identical_across_worker_counts(
        self, key, source, request, engine_data
    ):
        x, y = engine_data
        attack = get_attack(key)
        if source == "tiny_cnn":
            model = request.getfixturevalue("tiny_cnn")
        else:
            model = _pooled_dropout_cnn()
        # shard_size=5 over 12 samples -> 3 shards, so workers=2 really
        # dispatches to the shard threads
        sharded = AttackEngine(model, workers=2, shard_size=5).generate(
            attack, x, y, 0.25
        )
        auto = AttackEngine(model, workers="auto", shard_size=5).generate(
            attack, x, y, 0.25
        )
        if source == "pooled_dropout_cnn":
            # the threads crafted on copies: the source's own caches are
            # as the build left them
            assert all(cache is None for cache in _transient_caches(model))
        serial = AttackEngine(model, workers=1, shard_size=5).generate(
            attack, x, y, 0.25
        )
        assert np.array_equal(serial, sharded), key
        assert np.array_equal(serial, auto), key
        assert multiprocessing.active_children() == []

    def test_sweep_bit_identical_across_worker_counts(self, tiny_cnn, engine_data):
        x, y = engine_data
        serial = AttackEngine(tiny_cnn, workers=1, shard_size=5).generate_sweep(
            PGDLinf(), x, y, SWEEP_EPSILONS
        )
        sharded = AttackEngine(tiny_cnn, workers=2, shard_size=5).generate_sweep(
            PGDLinf(), x, y, SWEEP_EPSILONS
        )
        for epsilon in SWEEP_EPSILONS:
            assert np.array_equal(serial[epsilon], sharded[epsilon]), epsilon

    def test_decision_attack_on_non_sequential_source(
        self, quantized_tiny, engine_data
    ):
        # decision attacks accept any source exposing predict_classes; the
        # engine falls back to serial sharding for non-Sequential models
        x, y = engine_data
        attack = get_attack("RAU_linf")
        serial = AttackEngine(quantized_tiny, workers=1, shard_size=5).generate(
            attack, x, y, 0.4
        )
        fallback = AttackEngine(quantized_tiny, workers=2, shard_size=5).generate(
            attack, x, y, 0.4
        )
        assert np.array_equal(serial, fallback)


#: a module-level script with no ``if __name__ == "__main__"`` guard: a
#: spawn-started worker would re-run it on import
_GUARDLESS_SCRIPT = textwrap.dedent(
    """
    import hashlib
    import logging
    import multiprocessing

    import numpy as np

    from repro.attacks import AttackEngine, BIMLinf
    from repro.nn import Conv2D, Dense, Flatten, ReLU, Sequential

    logging.basicConfig(level=logging.WARNING)
    model = Sequential(
        [Conv2D(4, kernel_size=3), ReLU(), Flatten(), Dense(10)],
        input_shape=(8, 8, 1),
        seed=2,
    )
    rng = np.random.default_rng(0)
    x = rng.random((12, 8, 8, 1))
    y = rng.integers(0, 10, size=12)
    for workers in (2, 1):
        sweep = AttackEngine(model, workers=workers, shard_size=4).generate_sweep(
            BIMLinf(steps=3), x, y, [0.05, 0.1, 0.2]
        )
        digest = hashlib.sha256(
            b"".join(sweep[eps].tobytes() for eps in sorted(sweep))
        ).hexdigest()
        print(workers, digest, len(multiprocessing.active_children()))
    """
)


class TestGuardlessScript:
    def test_sharded_sweep_runs_in_a_script_without_main_guard(self, tmp_path):
        script = tmp_path / "guardless.py"
        script.write_text(_GUARDLESS_SCRIPT)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
        result = subprocess.run(
            [sys.executable, str(script)],
            capture_output=True,
            text=True,
            timeout=120,
            env=env,
        )
        assert result.returncode == 0, result.stderr
        assert "process shard pool kept failing" not in result.stderr
        rows = [line.split() for line in result.stdout.splitlines()]
        assert [row[0] for row in rows] == ["2", "1"]
        (_, sharded, children_sharded), (_, serial, children_serial) = rows
        assert sharded == serial
        assert children_sharded == children_serial == "0"


class TestSweepAmortization:
    @pytest.mark.parametrize("attack_cls", [FGMLinf, FGML2])
    def test_fgm_family_sweep_costs_one_gradient(
        self, attack_cls, tiny_cnn, engine_data, monkeypatch
    ):
        x, y = engine_data
        spy = _GradientSpy(monkeypatch)
        engine = AttackEngine(tiny_cnn, workers=1, shard_size=x.shape[0])
        sweep = engine.generate_sweep(
            attack_cls(), x, y, [0.05, 0.1, 0.15, 0.2, 0.25]
        )
        assert len(sweep) == 5
        assert spy.calls == 1

    def test_fgm_per_budget_loop_costs_one_gradient_each(
        self, tiny_cnn, engine_data, monkeypatch
    ):
        x, y = engine_data
        spy = _GradientSpy(monkeypatch)
        engine = AttackEngine(tiny_cnn, workers=1, shard_size=x.shape[0])
        for epsilon in [0.05, 0.1, 0.15, 0.2, 0.25]:
            engine.generate(FGMLinf(), x, y, epsilon)
        assert spy.calls == 5

    def test_bim_sweep_shares_first_step_gradient(
        self, tiny_cnn, engine_data, monkeypatch
    ):
        x, y = engine_data
        spy = _GradientSpy(monkeypatch)
        steps, budgets = 4, [0.1, 0.2, 0.3]
        engine = AttackEngine(tiny_cnn, workers=1, shard_size=x.shape[0])
        engine.generate_sweep(BIMLinf(steps=steps), x, y, budgets)
        # one shared first-step gradient + (steps - 1) per budget
        assert spy.calls == 1 + (steps - 1) * len(budgets)

    def test_gradient_count_scales_with_shards(
        self, tiny_cnn, engine_data, monkeypatch
    ):
        x, y = engine_data
        spy = _GradientSpy(monkeypatch)
        engine = AttackEngine(tiny_cnn, workers=1, shard_size=4)
        engine.generate_sweep(FGMLinf(), x, y, [0.05, 0.1, 0.15, 0.2, 0.25])
        assert spy.calls == 3  # 12 samples / shard_size 4


class TestEmptyBatch:
    @pytest.mark.parametrize("key", ALL_KEYS)
    def test_empty_batch_returns_well_formed_empty(self, key, tiny_cnn, monkeypatch):
        def boom(*args, **kwargs):  # pragma: no cover - must never run
            raise AssertionError("gradient evaluated on an empty batch")

        monkeypatch.setattr(Sequential, "input_gradient", boom)
        monkeypatch.setattr(Sequential, "predict_classes", boom)
        x = np.zeros((0, 28, 28, 1))
        y = np.zeros((0,), dtype=np.int64)
        adversarial = get_attack(key).generate(tiny_cnn, x, y, 0.3)
        assert adversarial.shape == x.shape
        assert adversarial.dtype == np.float64

    def test_empty_batch_sweep(self, tiny_cnn):
        x = np.zeros((0, 28, 28, 1))
        y = np.zeros((0,), dtype=np.int64)
        sweep = FGMLinf().generate_sweep(tiny_cnn, x, y, SWEEP_EPSILONS)
        assert set(sweep) == set(SWEEP_EPSILONS)
        assert all(value.shape == x.shape for value in sweep.values())


class TestRNGReproducibility:
    @pytest.mark.parametrize("key", SEEDED_KEYS)
    def test_consecutive_calls_on_one_instance_are_identical(
        self, key, tiny_cnn, engine_data
    ):
        # regression: PGD/noise attacks used to keep a mutable self._rng, so
        # regenerating on the same instance gave different adversarials
        x, y = engine_data
        attack = get_attack(key)
        first = attack.generate(tiny_cnn, x, y, 0.25)
        second = attack.generate(tiny_cnn, x, y, 0.25)
        assert np.array_equal(first, second), key

    def test_different_seeds_differ(self, tiny_cnn, engine_data):
        x, y = engine_data
        a = PGDL2(seed=1).generate(tiny_cnn, x, y, 0.5)
        b = PGDL2(seed=2).generate(tiny_cnn, x, y, 0.5)
        assert not np.array_equal(a, b)

    def test_per_call_seed_override(self, tiny_cnn, engine_data):
        # callers that want fresh randomness per call (adversarial training
        # drawing new PGD starts every minibatch) pass a varying seed
        x, y = engine_data
        attack = PGDLinf(seed=0)
        base = attack.generate(tiny_cnn, x, y, 0.25)
        overridden = attack.generate(tiny_cnn, x, y, 0.25, seed=123)
        repeated = attack.generate(tiny_cnn, x, y, 0.25, seed=123)
        assert not np.array_equal(base, overridden)
        assert np.array_equal(overridden, repeated)
        # the override is per-call: the attack's own seed is untouched
        assert np.array_equal(base, attack.generate(tiny_cnn, x, y, 0.25))

    def test_adversarial_trainer_varies_draws_per_batch(self, tiny_cnn, engine_data):
        # regression for the engine refactor: the trainer must not feed
        # byte-identical PGD starts to every minibatch of every epoch
        from repro.defenses.adversarial_training import AdversarialTrainer

        x, y = engine_data
        trainer = AdversarialTrainer(
            tiny_cnn, attack=PGDLinf(seed=0), epsilon=0.2,
            adversarial_ratio=1.0, seed=4,
        )
        first, _ = trainer._augment_batch(x, y)
        second, _ = trainer._augment_batch(x, y)
        assert not np.array_equal(first, second)

    def test_shard_size_is_part_of_seeded_semantics(self, tiny_cnn, engine_data):
        # per-shard streams are spawned per shard index, so the shard size
        # (unlike the worker count) legitimately changes seeded draws
        x, y = engine_data
        one_shard = AttackEngine(tiny_cnn, workers=1, shard_size=12).generate(
            PGDLinf(), x, y, 0.25
        )
        three_shards = AttackEngine(tiny_cnn, workers=1, shard_size=4).generate(
            PGDLinf(), x, y, 0.25
        )
        assert one_shard.shape == three_shards.shape
        assert not np.array_equal(one_shard, three_shards)


class TestSuiteIntegration:
    def test_suite_generation_matches_per_budget_calls(self, tiny_cnn, engine_data):
        x, y = engine_data
        suite = AdversarialSuite.generate(
            tiny_cnn, PGDLinf(), x, y, SWEEP_EPSILONS, workers=1
        )
        for epsilon in SWEEP_EPSILONS:
            expected = PGDLinf().generate(tiny_cnn, x, y, epsilon)
            assert np.array_equal(suite.adversarial[epsilon], expected)

    def test_suite_accepts_preconfigured_engine(self, tiny_cnn, engine_data):
        x, y = engine_data
        engine = AttackEngine(tiny_cnn, workers=1, shard_size=4)
        suite = AdversarialSuite.generate(
            tiny_cnn, FGMLinf(), x, y, [0.0, 0.1], engine=engine
        )
        assert set(suite.adversarial) == {0.0, 0.1}


class TestValidation:
    def test_empty_epsilons_rejected(self, tiny_cnn, engine_data):
        x, y = engine_data
        with pytest.raises(ConfigurationError):
            AttackEngine(tiny_cnn).generate_sweep(FGMLinf(), x, y, [])

    def test_negative_epsilon_rejected(self, tiny_cnn, engine_data):
        x, y = engine_data
        with pytest.raises(ConfigurationError):
            AttackEngine(tiny_cnn).generate_sweep(FGMLinf(), x, y, [0.1, -0.2])

    def test_mismatched_labels_rejected(self, tiny_cnn, engine_data):
        x, y = engine_data
        with pytest.raises(ConfigurationError):
            AttackEngine(tiny_cnn).generate(FGMLinf(), x, y[:-1], 0.1)

    @pytest.mark.parametrize("bad", [0, -3, 1.5, "threads"])
    def test_invalid_workers_rejected(self, bad, tiny_cnn):
        with pytest.raises(ConfigurationError, match="workers"):
            AttackEngine(tiny_cnn, workers=bad)

    @pytest.mark.parametrize("bad", [0, -1, 2.5, True])
    def test_invalid_shard_size_rejected(self, bad, tiny_cnn):
        with pytest.raises(ConfigurationError):
            AttackEngine(tiny_cnn, shard_size=bad)

    def test_default_shard_size(self, tiny_cnn):
        assert AttackEngine(tiny_cnn).shard_size == DEFAULT_SHARD_SIZE


class TestModelCopies:
    """Shard threads craft on ``copy.deepcopy`` copies of the source."""

    def test_copy_preserves_predictions(self, tiny_cnn, engine_data):
        x, _ = engine_data
        clone = copy.deepcopy(tiny_cnn)
        assert np.array_equal(clone.predict(x), tiny_cnn.predict(x))

    def test_copy_drops_backward_caches(self, tiny_cnn, engine_data):
        x, y = engine_data
        tiny_cnn.input_gradient(x, y)  # populate im2col / input caches
        clone = copy.deepcopy(tiny_cnn)
        assert all(cache is None for cache in _transient_caches(clone))
        # the live model's caches are untouched by copying
        assert any(cache is not None for cache in _transient_caches(tiny_cnn))

    def test_copy_carries_an_independent_dropout_stream(self):
        model = _pooled_dropout_cnn()
        clone = copy.deepcopy(model)
        source_rng, clone_rng = model.layers[4]._rng, clone.layers[4]._rng
        assert clone_rng is not source_rng
        assert clone_rng.bit_generator.state == source_rng.bit_generator.state
        assert np.array_equal(clone_rng.random(4), source_rng.random(4))


class TestSweepProperties:
    """Hypothesis: sweep/generate equality holds for arbitrary budget lists."""

    @pytest.fixture(scope="class")
    def small_model(self):
        return Sequential(
            [Flatten(), Dense(12), ReLU(), Dense(10)],
            input_shape=(6, 6, 1),
            name="engine_prop",
            seed=11,
        )

    @settings(max_examples=12, deadline=None)
    @given(
        epsilons=st.lists(
            st.floats(0.0, 2.0, allow_nan=False), min_size=1, max_size=4
        ),
        shard_size=st.integers(1, 9),
        seed=st.integers(0, 5),
    )
    def test_sweep_equals_per_budget_generate(
        self, small_model, epsilons, shard_size, seed
    ):
        rng = np.random.default_rng(seed)
        x = rng.random((7, 6, 6, 1))
        y = rng.integers(0, 10, size=7)
        engine = AttackEngine(small_model, workers=1, shard_size=shard_size)
        attack = PGDLinf(steps=2, seed=seed)
        sweep = engine.generate_sweep(attack, x, y, epsilons)
        for epsilon in epsilons:
            single = engine.generate(PGDLinf(steps=2, seed=seed), x, y, epsilon)
            assert np.array_equal(sweep[float(epsilon)], single)
