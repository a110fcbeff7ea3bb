"""Robustness-evaluation results (Algorithm 1, sweep grids, Table II, Fig. 8).

:class:`AdversarialSuite` crafts a budget sweep on the source model and
evaluates victims on it; :func:`grid_from_suite` fills one figure's grid.
:class:`repro.experiments.Session` drives every experiment through these.
"""

from repro.axnn.engine import build_victims
from repro.robustness.evaluator import AdversarialSuite, RobustnessResult
from repro.robustness.quantization_analysis import (
    QuantizationComparison,
    QuantizationStudy,
)
from repro.robustness.sweep import RobustnessGrid, grid_from_suite
from repro.robustness.transferability import (
    TransferabilityCell,
    TransferabilityTable,
)

__all__ = [
    "AdversarialSuite",
    "RobustnessResult",
    "RobustnessGrid",
    "build_victims",
    "grid_from_suite",
    "TransferabilityCell",
    "TransferabilityTable",
    "QuantizationComparison",
    "QuantizationStudy",
]
