"""Adversarial quantization analysis (the paper's Fig. 8 and Section IV.D).

Fig. 8 compares the non-quantized accurate LeNet-5 with its 8-bit quantized
counterpart under every attack of the study; Section IV.D then contrasts that
with the AxDNN grids to conclude that quantization helps robustness while
approximation undoes the benefit.  A ``kind="quantization"``
:class:`repro.experiments.ExperimentSpec` run by
:class:`repro.experiments.Session` fills the study.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np


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
