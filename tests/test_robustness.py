"""Tests for the robustness harness (Algorithm 1, sweeps, transferability, Fig. 8)."""

import numpy as np
import pytest

from repro.attacks import FGMLinf, get_attack
from repro.axnn import build_axdnn
from repro.errors import ConfigurationError
from repro.robustness import (
    AdversarialSuite,
    ExperimentRecord,
    QuantizationStudy,
    ReproductionReport,
    RobustnessGrid,
    accuracy_loss,
    build_transferability_table,
    build_victims,
    compare_float_and_quantized,
    evaluate_robustness,
    multiplier_sweep,
    quantization_study,
    transferability_analysis,
)

EPSILONS = [0.0, 0.1, 0.3]


@pytest.fixture(scope="module")
def small_eval(mnist_small):
    return mnist_small.test.images[:30], mnist_small.test.labels[:30]


@pytest.fixture(scope="module")
def suite(tiny_cnn, small_eval):
    x, y = small_eval
    return AdversarialSuite.generate(tiny_cnn, FGMLinf(), x, y, EPSILONS)


class TestAdversarialSuite:
    def test_contains_every_epsilon(self, suite):
        assert set(suite.adversarial) == set(EPSILONS)

    def test_epsilon_zero_is_clean(self, suite, small_eval):
        x, _ = small_eval
        assert np.array_equal(suite.adversarial[0.0], x)

    def test_requires_epsilons(self, tiny_cnn, small_eval):
        x, y = small_eval
        with pytest.raises(ConfigurationError):
            AdversarialSuite.generate(tiny_cnn, FGMLinf(), x, y, [])

    def test_evaluate_returns_one_result_per_epsilon(self, suite, quantized_tiny):
        results = suite.evaluate(quantized_tiny, "quantized")
        assert len(results) == len(EPSILONS)
        assert all(0.0 <= r.robustness_percent <= 100.0 for r in results)
        assert {r.epsilon for r in results} == set(EPSILONS)

    def test_robustness_decreases_for_source_model(self, suite, tiny_cnn):
        results = suite.evaluate(tiny_cnn, "float")
        values = [r.robustness_percent for r in results]
        assert values[0] >= values[-1]

    def test_accuracy_loss_uses_baseline(self, suite, quantized_tiny):
        results = suite.evaluate(quantized_tiny, "quantized")
        losses = accuracy_loss(results)
        assert losses[0.0] == pytest.approx(0.0)
        assert losses[EPSILONS[-1]] >= 0.0

    def test_accuracy_loss_requires_baseline(self):
        from repro.robustness.evaluator import RobustnessResult

        with pytest.raises(ConfigurationError):
            accuracy_loss(
                [RobustnessResult("v", "a", 0.5, 90.0, 10)]
            )

    def test_evaluate_robustness_wrapper(self, tiny_cnn, quantized_tiny, small_eval):
        x, y = small_eval
        results = evaluate_robustness(
            tiny_cnn, quantized_tiny, FGMLinf(), x, y, EPSILONS, victim_name="q"
        )
        assert len(results) == 3
        assert results[0].victim == "q"


class TestSweep:
    @pytest.fixture(scope="class")
    def victims(self, tiny_cnn, calibration_batch):
        return build_victims(tiny_cnn, ["M1", "M8"], calibration_batch)

    def test_build_victims_labels(self, victims):
        assert set(victims) == {"M1", "M8"}
        assert victims["M1"].multiplier.is_exact()
        assert not victims["M8"].multiplier.is_exact()

    def test_build_victims_calibrates_once(
        self, tiny_cnn, calibration_batch, small_eval, monkeypatch
    ):
        import repro.axnn.engine as engine
        from repro.nn.layers.conv import Conv2D

        calibrations = []
        calibrate = engine._calibrate_activations

        def counting(*args):
            calibrations.append(args)
            return calibrate(*args)

        monkeypatch.setattr(engine, "_calibrate_activations", counting)
        labels = ["M2", "M6", "M8"]
        built = []
        victims = build_victims(
            tiny_cnn, labels, calibration_batch, progress=built.append
        )
        assert len(calibrations) == 1
        assert built == labels
        # the pass runs as pure inference: no conv cache stays pinned
        assert all(
            layer._cols_cache is None
            for layer in tiny_cnn.layers
            if isinstance(layer, Conv2D)
        )
        x, _ = small_eval
        for label, victim in victims.items():
            single = build_axdnn(
                tiny_cnn, label, calibration_batch, name=f"ax_tiny_cnn_{label}"
            )
            assert victim.name == single.name
            for shared, own in zip(victim.compute_layers(), single.compute_layers()):
                assert shared.activation_scheme == own.activation_scheme
            assert np.array_equal(victim.predict(x), single.predict(x))

    def test_grid_shape_and_metadata(self, tiny_cnn, victims, small_eval):
        x, y = small_eval
        grid = multiplier_sweep(
            tiny_cnn, victims, FGMLinf(), x, y, EPSILONS, "synthetic-mnist"
        )
        assert grid.values.shape == (3, 2)
        assert grid.victim_labels == ["M1", "M8"]
        assert grid.attack_key == "FGM_linf"
        assert grid.metadata["n_samples"] == "30"

    def test_grid_accessors(self, tiny_cnn, victims, small_eval):
        x, y = small_eval
        grid = multiplier_sweep(tiny_cnn, victims, FGMLinf(), x, y, EPSILONS)
        assert grid.column("M1").shape == (3,)
        assert grid.row(0.0).shape == (2,)
        assert np.array_equal(grid.baseline_row(), grid.row(0.0))
        assert np.allclose(grid.accuracy_loss()[0], 0.0)

    def test_grid_serialisation_roundtrip(self, tiny_cnn, victims, small_eval):
        x, y = small_eval
        grid = multiplier_sweep(tiny_cnn, victims, FGMLinf(), x, y, EPSILONS)
        restored = RobustnessGrid.from_dict(grid.to_dict())
        assert np.allclose(restored.values, grid.values)
        assert restored.victim_labels == grid.victim_labels

    def test_grid_validates_shape(self):
        with pytest.raises(ConfigurationError):
            RobustnessGrid(
                attack_key="FGM_linf",
                dataset_name="d",
                epsilons=[0.0, 0.1],
                victim_labels=["M1"],
                values=np.zeros((3, 1)),
            )

    def test_sweep_requires_victims(self, tiny_cnn, small_eval):
        x, y = small_eval
        with pytest.raises(ConfigurationError):
            multiplier_sweep(tiny_cnn, {}, FGMLinf(), x, y, EPSILONS)


class TestTransferability:
    def test_cells_cover_all_pairs(self, tiny_cnn, trained_lenet, calibration_batch, small_eval):
        x, y = small_eval
        victims = {
            "AxTiny": build_axdnn(tiny_cnn, "M4", calibration_batch),
            "AxL5": build_axdnn(trained_lenet, "M4", calibration_batch),
        }
        cells = transferability_analysis(
            {"AccTiny": tiny_cnn, "AccL5": trained_lenet},
            victims,
            get_attack("BIM_linf"),
            x,
            y,
            epsilon=0.1,
            dataset_name="synthetic-mnist",
        )
        assert len(cells) == 4
        sources = {cell.source for cell in cells}
        assert sources == {"AccTiny", "AccL5"}

    def test_attack_reduces_accuracy_on_some_victim(self, tiny_cnn, trained_lenet, calibration_batch, small_eval):
        x, y = small_eval
        victims = {"AxL5": build_axdnn(trained_lenet, "M4", calibration_batch)}
        cells = transferability_analysis(
            {"AccL5": trained_lenet},
            victims,
            get_attack("BIM_linf"),
            x,
            y,
            epsilon=0.25,
            dataset_name="synthetic-mnist",
        )
        assert cells[0].accuracy_after <= cells[0].accuracy_before

    def test_paper_cell_format(self, tiny_cnn, calibration_batch, small_eval):
        x, y = small_eval
        victims = {"AxTiny": build_axdnn(tiny_cnn, "M2", calibration_batch)}
        cells = transferability_analysis(
            {"AccTiny": tiny_cnn}, victims, get_attack("FGM_linf"), x, y, 0.1, "mnist"
        )
        text = cells[0].as_paper_cell()
        assert "/" in text
        assert cells[0].accuracy_drop == pytest.approx(
            cells[0].accuracy_before - cells[0].accuracy_after
        )

    def test_table_lookup(self, tiny_cnn, calibration_batch, small_eval):
        x, y = small_eval
        attack = get_attack("BIM_linf")
        victims = {"AxTiny": build_axdnn(tiny_cnn, "M2", calibration_batch)}
        cells = transferability_analysis(
            {"AccTiny": tiny_cnn}, victims, attack, x, y, 0.05, "mnist"
        )
        table = build_transferability_table(attack, 0.05, [cells])
        assert table.cell("AccTiny", "AxTiny", "mnist").dataset == "mnist"
        with pytest.raises(ConfigurationError):
            table.cell("nope", "AxTiny", "mnist")
        assert table.to_dict()["epsilon"] == 0.05


class TestQuantizationAnalysis:
    def test_comparison_fields(self, tiny_cnn, calibration_batch, small_eval):
        x, y = small_eval
        comparison = compare_float_and_quantized(
            tiny_cnn, FGMLinf(), x, y, EPSILONS, calibration_batch
        )
        assert len(comparison.float_robustness) == 3
        assert len(comparison.quantized_robustness) == 3
        assert len(comparison.quantization_gain()) == 3
        assert comparison.to_dict()["attack"] == "FGM_linf"

    def test_study_aggregates_attacks(self, tiny_cnn, calibration_batch, small_eval):
        x, y = small_eval
        study = quantization_study(
            tiny_cnn,
            [FGMLinf(), get_attack("CR_l2")],
            x,
            y,
            EPSILONS,
            calibration_batch,
        )
        assert isinstance(study, QuantizationStudy)
        assert set(study.comparisons) == {"FGM_linf", "CR_l2"}
        assert isinstance(study.mean_quantization_gain(), float)
        assert set(study.to_dict()) == {"FGM_linf", "CR_l2"}


class TestReport:
    def test_report_roundtrip(self, tmp_path, tiny_cnn, calibration_batch, small_eval):
        x, y = small_eval
        victims = build_victims(tiny_cnn, ["M1"], calibration_batch)
        grid = multiplier_sweep(tiny_cnn, victims, FGMLinf(), x, y, EPSILONS)
        record = ExperimentRecord("fig4a", "BIM linf sweep")
        record.add_grid(grid)
        record.extra["note"] = "test"
        report = ReproductionReport()
        report.add(record)
        path = str(tmp_path / "report.json")
        report.save(path)
        loaded = ReproductionReport.load(path)
        assert loaded.get("fig4a") is not None
        assert np.allclose(loaded.get("fig4a").grids[0].values, grid.values)
        assert loaded.get("missing") is None
