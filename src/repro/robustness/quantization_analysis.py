"""Adversarial quantization analysis (the paper's Fig. 8 and Section IV.D).

Fig. 8 compares the non-quantized accurate LeNet-5 with its 8-bit quantized
counterpart under every attack of the study; Section IV.D then contrasts that
with the AxDNN grids to conclude that quantization helps robustness while
approximation undoes the benefit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

from repro.attacks.base import Attack
from repro.axnn.engine import AxModel, build_quantized_accurate
from repro.nn.model import Sequential
from repro.robustness.evaluator import AdversarialSuite


@dataclass
class QuantizationComparison:
    """Float vs quantized robustness curves for one attack."""

    attack_key: str
    epsilons: List[float]
    float_robustness: List[float]
    quantized_robustness: List[float]

    def quantization_gain(self) -> List[float]:
        """Per-budget robustness gain of quantization (positive = helps)."""
        return [
            quantized - flt
            for quantized, flt in zip(self.quantized_robustness, self.float_robustness)
        ]

    def to_dict(self) -> dict:
        """JSON-friendly representation."""
        return {
            "attack": self.attack_key,
            "epsilons": list(self.epsilons),
            "float": list(self.float_robustness),
            "quantized": list(self.quantized_robustness),
        }


@dataclass
class QuantizationStudy:
    """Fig. 8: one :class:`QuantizationComparison` per attack."""

    comparisons: Dict[str, QuantizationComparison] = field(default_factory=dict)

    def add(self, comparison: QuantizationComparison) -> None:
        self.comparisons[comparison.attack_key] = comparison

    def mean_quantization_gain(self) -> float:
        """Average robustness gain of quantization over all attacks/budgets."""
        gains: List[float] = []
        for comparison in self.comparisons.values():
            gains.extend(comparison.quantization_gain())
        return float(np.mean(gains)) if gains else 0.0

    def to_dict(self) -> dict:
        return {key: cmp.to_dict() for key, cmp in self.comparisons.items()}


def compare_float_and_quantized(
    model: Sequential,
    attack: Attack,
    images: np.ndarray,
    labels: np.ndarray,
    epsilons: Sequence[float],
    calibration_data: np.ndarray,
    quantized: AxModel = None,
) -> QuantizationComparison:
    """Robustness of the float model vs its 8-bit quantized version for one attack."""
    suite = AdversarialSuite.generate(model, attack, images, labels, epsilons)
    if quantized is None:
        quantized = build_quantized_accurate(model, calibration_data)
    float_results = suite.evaluate(model, "float")
    quant_results = suite.evaluate(quantized, "quantized")
    return QuantizationComparison(
        attack_key=attack.key(),
        epsilons=list(suite.epsilons),
        float_robustness=[result.robustness_percent for result in float_results],
        quantized_robustness=[result.robustness_percent for result in quant_results],
    )


def quantization_study(
    model: Sequential,
    attacks: Sequence[Attack],
    images: np.ndarray,
    labels: np.ndarray,
    epsilons: Sequence[float],
    calibration_data: np.ndarray,
) -> QuantizationStudy:
    """Run the full Fig. 8 comparison over a list of attacks."""
    study = QuantizationStudy()
    quantized = build_quantized_accurate(model, calibration_data)
    for attack in attacks:
        study.add(
            compare_float_and_quantized(
                model,
                attack,
                images,
                labels,
                epsilons,
                calibration_data,
                quantized,
            )
        )
    return study
