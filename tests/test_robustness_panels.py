"""Additional coverage for multi-attack panels and grid utilities."""

import numpy as np
import pytest

from repro.attacks import FGML2, FGMLinf
from repro.robustness import AdversarialSuite, build_victims, grid_from_suite
from repro.robustness.sweep import RobustnessGrid


@pytest.fixture(scope="module")
def panel(tiny_cnn, mnist_small, calibration_batch):
    """One grid per attack over shared victims (a figure panel, e.g. Fig. 4a-d)."""
    victims = build_victims(tiny_cnn, ["M1", "M4"], calibration_batch)
    return [
        grid_from_suite(
            AdversarialSuite.generate(
                tiny_cnn,
                attack,
                mnist_small.test.images[:30],
                mnist_small.test.labels[:30],
                [0.0, 0.1, 0.25],
            ),
            victims,
            dataset_name="synthetic-mnist",
            source_name=tiny_cnn.name,
        )
        for attack in (FGMLinf(), FGML2())
    ]


class TestAttackPanel:
    def test_one_grid_per_attack(self, panel):
        assert len(panel) == 2
        assert {grid.attack_key for grid in panel} == {"FGM_linf", "FGM_l2"}

    def test_grids_share_victims_and_epsilons(self, panel):
        first, second = panel
        assert first.victim_labels == second.victim_labels
        assert first.epsilons == second.epsilons

    def test_baseline_rows_agree_across_attacks(self, panel):
        # eps = 0 means no perturbation, so every attack sees the same
        # clean accuracy for the same victim
        first, second = panel
        assert np.allclose(first.baseline_row(), second.baseline_row())

    def test_linf_panel_at_most_as_robust_as_l2(self, panel):
        by_key = {grid.attack_key: grid for grid in panel}
        assert (
            by_key["FGM_linf"].row(0.25).mean()
            <= by_key["FGM_l2"].row(0.25).mean() + 1e-9
        )


class TestGridUtilities:
    def _grid(self):
        return RobustnessGrid(
            attack_key="FGM_linf",
            dataset_name="d",
            epsilons=[0.0, 0.1],
            victim_labels=["M1", "M8"],
            values=np.array([[100.0, 90.0], [60.0, 70.0]]),
        )

    def test_column_lookup_unknown_raises(self):
        with pytest.raises(ValueError):
            self._grid().column("M9")

    def test_row_lookup_unknown_raises(self):
        with pytest.raises(ValueError):
            self._grid().row(0.3)

    def test_accuracy_loss_sign(self):
        losses = self._grid().accuracy_loss()
        assert losses[1, 0] == pytest.approx(40.0)
        assert losses[1, 1] == pytest.approx(20.0)

    def test_metadata_survives_serialisation(self):
        grid = self._grid()
        grid.metadata["note"] = "unit-test"
        restored = RobustnessGrid.from_dict(grid.to_dict())
        assert restored.metadata["note"] == "unit-test"
