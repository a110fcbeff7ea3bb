"""Reporting, ASCII tables, digitised paper data and trend checks."""

from repro.analysis.experiments import (
    TrendCheck,
    approximation_not_universally_defensive,
    collapse_under_attack,
    compare_with_paper_grid,
    high_error_multiplier_more_vulnerable,
    l2_milder_than_linf,
    monotonic_decrease,
    summarize,
)
from repro.analysis.paper_data import (
    ALEXNET_FIGURES,
    ALEXNET_LABELS,
    HEADLINE_CLAIMS,
    LENET_FIGURES,
    LENET_LABELS,
    PAPER_EPSILONS,
    TABLE2_TRANSFERABILITY,
    alexnet_paper_grid,
    lenet_paper_grid,
)
from repro.analysis.tables import (
    format_comparison,
    format_grid,
    format_robustness_grid,
    format_transfer_table,
)

__all__ = [
    "TrendCheck",
    "monotonic_decrease",
    "collapse_under_attack",
    "l2_milder_than_linf",
    "high_error_multiplier_more_vulnerable",
    "approximation_not_universally_defensive",
    "summarize",
    "compare_with_paper_grid",
    "format_grid",
    "format_robustness_grid",
    "format_comparison",
    "format_transfer_table",
    "PAPER_EPSILONS",
    "LENET_LABELS",
    "ALEXNET_LABELS",
    "LENET_FIGURES",
    "ALEXNET_FIGURES",
    "TABLE2_TRANSFERABILITY",
    "HEADLINE_CLAIMS",
    "lenet_paper_grid",
    "alexnet_paper_grid",
]
