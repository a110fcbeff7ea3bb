"""Tests for the adversarial attacks (distances, gradient and decision attacks)."""

import numpy as np
import pytest

from repro.attacks import (
    PAPER_EPSILONS,
    Attack,
    BIML2,
    BIMLinf,
    ContrastReductionL2,
    FGML2,
    FGMLinf,
    PGDL2,
    PGDLinf,
    RepeatedAdditiveGaussianL2,
    RepeatedAdditiveUniformL2,
    RepeatedAdditiveUniformLinf,
    attack_table,
    available_attacks,
    get_attack,
    l0_distance,
    l2_distance,
    linf_distance,
    normalize_l2,
    project_l2_ball,
    project_linf_ball,
)
from repro.errors import ConfigurationError, UnknownComponentError

RNG = np.random.default_rng(0)


class TestDistances:
    def test_l0_counts_changed_pixels(self):
        a = np.zeros((1, 4, 4, 1))
        b = a.copy()
        b[0, 1, 1, 0] = 0.3
        b[0, 2, 2, 0] = 0.1
        assert l0_distance(a, b)[0] == 2

    def test_l2_euclidean(self):
        a = np.zeros((1, 2, 2, 1))
        b = np.full((1, 2, 2, 1), 0.5)
        assert l2_distance(a, b)[0] == pytest.approx(1.0)

    def test_linf_max_difference(self):
        a = np.zeros((1, 3))
        b = np.array([[0.1, -0.4, 0.2]])
        assert linf_distance(a, b)[0] == pytest.approx(0.4)

    def test_shapes_must_match(self):
        from repro.errors import ShapeError

        with pytest.raises(ShapeError):
            l2_distance(np.zeros((1, 3)), np.zeros((1, 4)))

    def test_project_l2_ball_shrinks_only_large(self):
        perturbation = np.concatenate([np.ones((1, 4)), 0.1 * np.ones((1, 4))])
        projected = project_l2_ball(perturbation, 1.0)
        assert np.linalg.norm(projected[0]) == pytest.approx(1.0)
        assert np.allclose(projected[1], perturbation[1])

    def test_project_linf_ball(self):
        projected = project_linf_ball(np.array([[0.5, -0.9]]), 0.3)
        assert projected.max() <= 0.3
        assert projected.min() >= -0.3

    def test_normalize_l2_unit_norm(self):
        x = RNG.normal(size=(3, 10))
        normed = normalize_l2(x)
        assert np.allclose(np.linalg.norm(normed.reshape(3, -1), axis=1), 1.0)

    def test_normalize_l2_zero_vector_stays_zero(self):
        assert not np.any(normalize_l2(np.zeros((1, 5))))


@pytest.fixture(scope="module")
def attack_data(mnist_small):
    return mnist_small.test.images[:24], mnist_small.test.labels[:24]


class TestAttackContract:
    @pytest.mark.parametrize("key", [
        "FGM_linf", "FGM_l2", "BIM_linf", "BIM_l2", "PGD_linf", "PGD_l2",
        "CR_l2", "RAG_l2", "RAU_l2", "RAU_linf",
    ])
    def test_outputs_in_pixel_range(self, key, tiny_cnn, attack_data):
        x, y = attack_data
        adv = get_attack(key).generate(tiny_cnn, x, y, 0.3)
        assert adv.min() >= 0.0
        assert adv.max() <= 1.0
        assert adv.shape == x.shape

    @pytest.mark.parametrize("key", ["FGM_linf", "BIM_linf", "PGD_linf", "RAU_linf"])
    def test_linf_budget_respected(self, key, tiny_cnn, attack_data):
        x, y = attack_data
        epsilon = 0.2
        adv = get_attack(key).generate(tiny_cnn, x, y, epsilon)
        assert linf_distance(x, adv).max() <= epsilon + 1e-9

    @pytest.mark.parametrize("key", ["FGM_l2", "BIM_l2", "PGD_l2", "CR_l2", "RAG_l2", "RAU_l2"])
    def test_l2_budget_respected(self, key, tiny_cnn, attack_data):
        x, y = attack_data
        epsilon = 1.0
        adv = get_attack(key).generate(tiny_cnn, x, y, epsilon)
        # clipping to [0, 1] can only shrink the perturbation
        assert l2_distance(x, adv).max() <= epsilon + 1e-9

    @pytest.mark.parametrize("key", sorted(["FGM_linf", "BIM_linf", "PGD_linf",
                                            "CR_l2", "RAU_linf", "RAG_l2"]))
    def test_zero_epsilon_returns_clean_images(self, key, tiny_cnn, attack_data):
        x, y = attack_data
        adv = get_attack(key).generate(tiny_cnn, x, y, 0.0)
        assert np.array_equal(adv, x)

    def test_negative_epsilon_rejected(self, tiny_cnn, attack_data):
        x, y = attack_data
        with pytest.raises(ConfigurationError):
            get_attack("FGM_linf").generate(tiny_cnn, x, y, -0.1)

    def test_mismatched_labels_rejected(self, tiny_cnn, attack_data):
        x, y = attack_data
        with pytest.raises(ConfigurationError):
            get_attack("FGM_linf").generate(tiny_cnn, x, y[:-1], 0.1)


class TestGradientAttackEffectiveness:
    def test_fgm_linf_reduces_accuracy(self, tiny_cnn, attack_data):
        x, y = attack_data
        clean_acc = np.mean(tiny_cnn.predict_classes(x) == y)
        adv = FGMLinf().generate(tiny_cnn, x, y, 0.25)
        adv_acc = np.mean(tiny_cnn.predict_classes(adv) == y)
        assert adv_acc < clean_acc

    def test_bim_stronger_than_fgm(self, tiny_cnn, attack_data):
        x, y = attack_data
        epsilon = 0.15
        fgm_acc = np.mean(
            tiny_cnn.predict_classes(FGMLinf().generate(tiny_cnn, x, y, epsilon)) == y
        )
        bim_acc = np.mean(
            tiny_cnn.predict_classes(BIMLinf(steps=10).generate(tiny_cnn, x, y, epsilon)) == y
        )
        assert bim_acc <= fgm_acc + 0.05

    def test_pgd_collapses_accuracy_at_large_epsilon(self, tiny_cnn, attack_data):
        x, y = attack_data
        adv = PGDLinf(steps=10).generate(tiny_cnn, x, y, 0.5)
        assert np.mean(tiny_cnn.predict_classes(adv) == y) <= 0.25

    def test_l2_variant_milder_than_linf(self, tiny_cnn, attack_data):
        x, y = attack_data
        epsilon = 0.25
        linf_acc = np.mean(
            tiny_cnn.predict_classes(BIMLinf().generate(tiny_cnn, x, y, epsilon)) == y
        )
        l2_acc = np.mean(
            tiny_cnn.predict_classes(BIML2().generate(tiny_cnn, x, y, epsilon)) == y
        )
        assert l2_acc >= linf_acc

    def test_bim_rejects_bad_steps(self):
        with pytest.raises(ConfigurationError):
            BIMLinf(steps=0)
        with pytest.raises(ConfigurationError):
            PGDL2(steps=0)

    def test_pgd_deterministic_given_seed(self, tiny_cnn, attack_data):
        x, y = attack_data
        a = PGDLinf(seed=5).generate(tiny_cnn, x, y, 0.1)
        b = PGDLinf(seed=5).generate(tiny_cnn, x, y, 0.1)
        assert np.array_equal(a, b)


class TestDecisionAttacks:
    def test_contrast_reduction_moves_towards_gray(self, tiny_cnn, attack_data):
        x, y = attack_data
        adv = ContrastReductionL2().generate(tiny_cnn, x, y, 2.0)
        assert np.abs(adv - 0.5).mean() < np.abs(x - 0.5).mean()

    def test_contrast_reduction_never_overshoots(self, tiny_cnn, attack_data):
        x, y = attack_data
        adv = ContrastReductionL2().generate(tiny_cnn, x, y, 1e6)
        assert np.allclose(adv, 0.5, atol=1e-6)

    def test_contrast_reduction_rejects_bad_target(self):
        with pytest.raises(ConfigurationError):
            ContrastReductionL2(target=1.5)

    def test_rag_is_deterministic_given_seed(self, tiny_cnn, attack_data):
        x, y = attack_data
        a = RepeatedAdditiveGaussianL2(seed=3).generate(tiny_cnn, x, y, 1.0)
        b = RepeatedAdditiveGaussianL2(seed=3).generate(tiny_cnn, x, y, 1.0)
        assert np.array_equal(a, b)

    def test_rau_linf_large_epsilon_destroys_accuracy(self, tiny_cnn, attack_data):
        x, y = attack_data
        adv = RepeatedAdditiveUniformLinf(repeats=5).generate(tiny_cnn, x, y, 1.5)
        assert np.mean(tiny_cnn.predict_classes(adv) == y) <= 0.5

    def test_rau_l2_mild(self, tiny_cnn, attack_data):
        x, y = attack_data
        clean_acc = np.mean(tiny_cnn.predict_classes(x) == y)
        adv = RepeatedAdditiveUniformL2(repeats=3).generate(tiny_cnn, x, y, 1.0)
        assert np.mean(tiny_cnn.predict_classes(adv) == y) >= clean_acc - 0.2

    def test_repeats_validation(self):
        with pytest.raises(ConfigurationError):
            RepeatedAdditiveGaussianL2(repeats=0)

    def test_repeated_attack_keeps_adversarial_samples(self, tiny_cnn, attack_data):
        # once a noise draw fools the source model, later draws must not
        # overwrite it back to a benign sample for that image
        x, y = attack_data
        attack = RepeatedAdditiveUniformLinf(repeats=8, seed=0)
        adv = attack.generate(tiny_cnn, x, y, 0.8)
        predictions = tiny_cnn.predict_classes(adv)
        # at this budget at least a few samples must fool the source model
        assert np.mean(predictions != y) > 0.1


class TestRegistry:
    def test_ten_attacks_registered(self):
        assert len(available_attacks()) == 10

    def test_attack_table_matches_paper_table1(self):
        table = {(m.short_name, m.norm): m.attack_type for m in attack_table()}
        assert table[("FGM", "l2")] == "gradient"
        assert table[("FGM", "linf")] == "gradient"
        assert table[("BIM", "l2")] == "gradient"
        assert table[("PGD", "linf")] == "gradient"
        assert table[("CR", "l2")] == "decision"
        assert table[("RAG", "l2")] == "decision"
        assert table[("RAU", "linf")] == "decision"

    def test_paper_epsilons(self):
        assert PAPER_EPSILONS[0] == 0.0
        assert PAPER_EPSILONS[-1] == 2.0
        assert len(PAPER_EPSILONS) == 10

    def test_unknown_attack(self):
        with pytest.raises(UnknownComponentError):
            get_attack("CW_l2")

    def test_keys_match_short_name_and_norm(self):
        for key in available_attacks():
            attack = get_attack(key)
            assert attack.key() == key
            assert isinstance(attack, Attack)
