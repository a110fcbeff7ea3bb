"""Robustness-evaluation harness (Algorithm 1, sweeps, transferability, Fig. 8)."""

from repro.axnn.engine import build_victims
from repro.robustness.evaluator import (
    AdversarialSuite,
    RobustnessResult,
    accuracy_loss,
    evaluate_robustness,
)
from repro.robustness.layer_sensitivity import (
    LayerSensitivity,
    compute_layer_names,
    layer_sensitivity_analysis,
    most_sensitive_layer,
)
from repro.robustness.quantization_analysis import (
    QuantizationComparison,
    QuantizationStudy,
    compare_float_and_quantized,
    quantization_study,
)
from repro.robustness.report import ExperimentRecord, ReproductionReport
from repro.robustness.sweep import (
    RobustnessGrid,
    attack_panel,
    grid_from_suite,
    multiplier_sweep,
)
from repro.robustness.transferability import (
    TransferabilityCell,
    TransferabilityTable,
    build_transferability_table,
    transferability_analysis,
)

__all__ = [
    "AdversarialSuite",
    "RobustnessResult",
    "evaluate_robustness",
    "accuracy_loss",
    "RobustnessGrid",
    "build_victims",
    "grid_from_suite",
    "multiplier_sweep",
    "attack_panel",
    "TransferabilityCell",
    "TransferabilityTable",
    "transferability_analysis",
    "build_transferability_table",
    "QuantizationComparison",
    "QuantizationStudy",
    "compare_float_and_quantized",
    "quantization_study",
    "ExperimentRecord",
    "ReproductionReport",
    "LayerSensitivity",
    "layer_sensitivity_analysis",
    "compute_layer_names",
    "most_sensitive_layer",
]
