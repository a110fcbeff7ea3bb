"""End-to-end integration tests of the paper's full methodology (Fig. 3).

These tests run the complete pipeline at a deliberately small scale:
train the accurate DNN -> quantize -> build AxDNNs -> craft adversarial
examples on the accurate model -> evaluate percentage robustness -> check the
paper's qualitative findings.
"""

import numpy as np
import pytest

from repro.analysis import (
    approximation_not_universally_defensive,
    collapse_under_attack,
    compare_with_paper_grid,
    l2_milder_than_linf,
    lenet_paper_grid,
    monotonic_decrease,
)
from repro.attacks import get_attack
from repro.axnn import build_quantized_accurate
from repro.experiments import AttackSpec, ExperimentSpec, SweepSpec, VictimSpec
from repro.multipliers import energy_saving_percent
from repro.robustness import AdversarialSuite, build_victims, grid_from_suite

from conftest import SPEC_FFNN, SPEC_LENET

EPSILONS = [0.0, 0.1, 0.25, 0.5]


def sweep(source_model, victims, attack, images, labels, epsilons, dataset_name="dataset"):
    """One figure grid: craft on the source model once, evaluate every victim."""
    suite = AdversarialSuite.generate(source_model, attack, images, labels, epsilons)
    return grid_from_suite(
        suite, victims, dataset_name=dataset_name, source_name=source_model.name
    )


@pytest.fixture(scope="module")
def pipeline(tiny_cnn, mnist_small, calibration_batch):
    """Victims and evaluation data shared by the integration tests."""
    victims = build_victims(tiny_cnn, ["M1", "M2", "M8"], calibration_batch)
    x = mnist_small.test.images[:40]
    y = mnist_small.test.labels[:40]
    return {"victims": victims, "x": x, "y": y}


class TestFullPipeline:
    def test_clean_accuracy_ordering(self, tiny_cnn, pipeline):
        """Q0: low-error AxDNN tracks the quantized accurate model; high-error drops."""
        x, y = pipeline["x"], pipeline["y"]
        accurate = pipeline["victims"]["M1"].accuracy_percent(x, y)
        low_error = pipeline["victims"]["M2"].accuracy_percent(x, y)
        high_error = pipeline["victims"]["M8"].accuracy_percent(x, y)
        assert abs(accurate - low_error) <= 10.0
        assert high_error <= accurate + 5.0

    def test_bim_linf_grid_matches_paper_shape(self, tiny_cnn, pipeline):
        """Q1: robustness decreases with eps and collapses for linf BIM."""
        grid = sweep(
            tiny_cnn,
            pipeline["victims"],
            get_attack("BIM_linf"),
            pipeline["x"],
            pipeline["y"],
            EPSILONS,
            "synthetic-mnist",
        )
        for victim in grid.victim_labels:
            assert monotonic_decrease(grid, victim, tolerance=10.0).passed
        assert collapse_under_attack(grid, 0.5, threshold=25.0).passed
        # compare against the paper rows at the same budgets (0, 0.1, 0.25, 0.5)
        paper_rows = lenet_paper_grid("BIM_linf")[[0, 2, 5, 6]]
        comparison = compare_with_paper_grid(grid, paper_rows)
        assert comparison["rank_correlation"] > 0.5
        assert comparison["measured_final_drop_percent"] > 70.0
        assert comparison["paper_final_drop_percent"] > 70.0

    def test_l2_attacks_milder_than_linf(self, tiny_cnn, pipeline):
        """Q1: l2-norm attacks preserve far more accuracy than linf attacks."""
        l2_grid = sweep(
            tiny_cnn, pipeline["victims"], get_attack("BIM_l2"),
            pipeline["x"], pipeline["y"], EPSILONS,
        )
        linf_grid = sweep(
            tiny_cnn, pipeline["victims"], get_attack("BIM_linf"),
            pipeline["x"], pipeline["y"], EPSILONS,
        )
        assert l2_milder_than_linf(l2_grid, linf_grid, 0.25).passed
        assert l2_milder_than_linf(l2_grid, linf_grid, 0.5).passed

    def test_decision_attack_hurts_axdnn_more(self, tiny_cnn, pipeline):
        """Q1/headline: the same CR attack harms an AxDNN more than the accurate DNN."""
        grid = sweep(
            tiny_cnn, pipeline["victims"], get_attack("CR_l2"),
            pipeline["x"], pipeline["y"], [0.0, 1.0, 2.0],
        )
        losses = grid.accuracy_loss()
        accurate_loss = losses[:, grid.victim_labels.index("M1")].max()
        axdnn_loss = losses[:, grid.victim_labels.index("M8")].max()
        assert axdnn_loss >= accurate_loss

    def test_not_universally_defensive(self, tiny_cnn, pipeline):
        """The core claim (A1): approximation is not a universal defense."""
        grid = sweep(
            tiny_cnn, pipeline["victims"], get_attack("CR_l2"),
            pipeline["x"], pipeline["y"], [0.0, 1.0, 2.0],
        )
        check = approximation_not_universally_defensive(grid, slack=1.0)
        assert check.passed, check.detail

    def test_rag_attack_is_mild(self, tiny_cnn, pipeline):
        """Fig. 6b: the repeated additive Gaussian attack barely moves accuracy."""
        grid = sweep(
            tiny_cnn, pipeline["victims"], get_attack("RAG_l2"),
            pipeline["x"], pipeline["y"], [0.0, 1.0, 2.0],
        )
        assert grid.accuracy_loss().max() <= 15.0

    def test_quantization_helps_accurate_model(self, experiment_session):
        """Q3 / Fig. 8: 8-bit quantization does not hurt (and typically helps) robustness."""
        spec = ExperimentSpec(
            name="integration-quantization",
            kind="quantization",
            model=SPEC_LENET,
            victims=VictimSpec(calibration_samples=64),
            attacks=(AttackSpec("FGM_linf"), AttackSpec("BIM_linf")),
            sweep=SweepSpec(epsilons=(0.0, 0.1, 0.25), n_samples=40),
        )
        study = experiment_session.run(spec).study
        assert study.mean_quantization_gain() >= -5.0

    def test_transfer_between_architectures(self, experiment_session):
        """Q2 / Table II: attacks crafted on one architecture transfer to the other's AxDNN."""
        spec = ExperimentSpec(
            name="integration-transfer",
            kind="transfer",
            model=SPEC_LENET,
            transfer_sources=(SPEC_FFNN,),
            victims=VictimSpec(multipliers=("M4",), calibration_samples=64),
            attacks=(AttackSpec("BIM_linf"),),
            sweep=SweepSpec(epsilons=(0.25,), n_samples=30),
        )
        table = experiment_session.run(spec).table
        cell = table.cell("AccFF", "AxL5", "synthetic-mnist")
        assert cell.accuracy_after < cell.accuracy_before

    def test_energy_motivation_holds(self):
        """The motivation for AxDNNs: approximate multipliers save energy."""
        for label in ("mul8u_17KS", "mul8u_L40", "mul8u_JV3"):
            assert energy_saving_percent(label) > 0

    def test_quantized_accurate_is_a_valid_victim(self, tiny_cnn, calibration_batch, pipeline):
        quantized = build_quantized_accurate(tiny_cnn, calibration_batch)
        quantized_acc = quantized.accuracy_percent(pipeline["x"], pipeline["y"])
        float_acc = (
            np.mean(tiny_cnn.predict_classes(pipeline["x"]) == pipeline["y"]) * 100.0
        )
        # 8-bit quantization must track the float model closely on clean data
        assert quantized_acc >= float_acc - 10.0
