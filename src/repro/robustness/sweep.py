"""Multiplier x perturbation-budget robustness sweeps (the paper's heat-maps).

Each of the paper's Figures 4-7 is a grid with perturbation budgets on the
rows and multipliers (M1..M9 or the AlexNet set) on the columns, holding the
percentage robustness of the corresponding AxDNN.  :func:`grid_from_suite`
fills that grid for one attack from an :class:`AdversarialSuite` crafted on
the source model; :class:`repro.experiments.Session` runs the whole figure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.axnn.engine import AxModel
from repro.errors import ConfigurationError
from repro.nn.runtime import check_serial_workers
from repro.robustness.evaluator import AdversarialSuite


@dataclass
class RobustnessGrid:
    """A (budgets x victims) grid of percentage robustness values."""

    attack_key: str
    dataset_name: str
    epsilons: List[float]
    victim_labels: List[str]
    values: np.ndarray  # shape (len(epsilons), len(victim_labels))
    metadata: Dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        expected = (len(self.epsilons), len(self.victim_labels))
        if self.values.shape != expected:
            raise ConfigurationError(
                f"grid values have shape {self.values.shape}, expected {expected}"
            )

    # -------------------------------------------------------------- access
    def column(self, victim_label: str) -> np.ndarray:
        """Robustness of one victim across all budgets."""
        index = self.victim_labels.index(victim_label)
        return self.values[:, index]

    def row(self, epsilon: float) -> np.ndarray:
        """Robustness of every victim at one budget."""
        index = self.epsilons.index(epsilon)
        return self.values[index, :]

    def baseline_row(self) -> np.ndarray:
        """The eps = 0 row (clean accuracies)."""
        return self.row(0.0) if 0.0 in self.epsilons else self.values[0, :]

    def accuracy_loss(self) -> np.ndarray:
        """Accuracy loss relative to the eps = 0 row, same shape as values."""
        return self.baseline_row()[None, :] - self.values

    def to_dict(self) -> dict:
        """JSON-friendly representation."""
        return {
            "attack": self.attack_key,
            "dataset": self.dataset_name,
            "epsilons": list(self.epsilons),
            "victims": list(self.victim_labels),
            "values": self.values.tolist(),
            "metadata": dict(self.metadata),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "RobustnessGrid":
        """Inverse of :meth:`to_dict`."""
        return cls(
            attack_key=payload["attack"],
            dataset_name=payload["dataset"],
            epsilons=[float(eps) for eps in payload["epsilons"]],
            victim_labels=list(payload["victims"]),
            values=np.asarray(payload["values"], dtype=np.float64),
            metadata=dict(payload.get("metadata", {})),
        )


def _panel_or_none(victims: Dict[str, "AxModel"], fused: Optional[bool]):
    """Build a fused :class:`VictimPanel` when requested/possible.

    ``fused=None`` (auto) fuses whenever there are at least two
    lockstep-compatible AxModels — exactly the panels the figures build
    from one source model.  ``fused=True`` requires compatibility (raising
    otherwise); ``fused=False`` always evaluates per victim.
    """
    if fused is False or (fused is None and len(victims) < 2):
        return None
    from repro.axnn.panel import VictimPanel

    models = list(victims.values())
    eligible = all(isinstance(model, AxModel) for model in models) and (
        VictimPanel.compatible(models)
    )
    if not eligible:
        if fused:
            raise ConfigurationError(
                "fused=True requires lockstep-compatible AxModel victims"
            )
        return None
    return VictimPanel(victims)


def grid_from_suite(
    suite: AdversarialSuite,
    victims: Dict[str, "AxModel"],
    dataset_name: str = "dataset",
    source_name: str = "source",
    workers=None,
    fused: Optional[bool] = None,
) -> RobustnessGrid:
    """Robustness grid of every victim on a pre-generated adversarial suite.

    Adversarial examples are crafted once on the source model and shared
    by every victim, exactly as in Algorithm 1 (the adversary never sees the
    approximate inference engine).  That crafting is already done (or was
    served from the artifact store — see :mod:`repro.experiments`), so only
    victim inference is paid here, serially.  ``workers`` accepts only ``None`` or ``1`` (see
    :func:`repro.nn.runtime.check_serial_workers`).

    ``fused`` controls the multi-victim fusion (see :func:`_panel_or_none`):
    by default panels of two or more compatible AxDNNs are evaluated in one
    fused pass per budget, sharing each batch's quantization, patch gather
    and float layers across victims.  The fused grid is bit-identical to per-victim
    evaluation — fusion only removes recomputation of identical values.
    """
    check_serial_workers(workers)
    if not victims:
        raise ConfigurationError("at least one victim AxDNN is required")
    victim_labels = list(victims)
    values = np.zeros((len(suite.epsilons), len(victim_labels)), dtype=np.float64)
    panel = _panel_or_none(victims, fused)
    if panel is not None:
        panel_results = suite.evaluate_panel(panel)
        for column, label in enumerate(victim_labels):
            for row, result in enumerate(panel_results[label]):
                values[row, column] = result.robustness_percent
    else:
        for column, label in enumerate(victim_labels):
            results = suite.evaluate(victims[label], label)
            for row, result in enumerate(results):
                values[row, column] = result.robustness_percent
    return RobustnessGrid(
        attack_key=suite.attack_key,
        dataset_name=dataset_name,
        epsilons=list(suite.epsilons),
        victim_labels=victim_labels,
        values=values,
        metadata={
            "source_model": source_name,
            "n_samples": str(suite.labels.shape[0]),
        },
    )
