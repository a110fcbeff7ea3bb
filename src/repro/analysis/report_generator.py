"""Generate the EXPERIMENTS.md paper-vs-measured report from benchmark results.

The benchmark harness (``pytest benchmarks/ --benchmark-only``) writes every
measured grid and summary payload to ``benchmarks/results/*.json``.  This
module turns that directory into a Markdown report with, for every paper
table and figure: the measured grid, the digitised paper grid, and the
shape-comparison statistics.

Usage::

    python -m repro.cli report --results benchmarks/results --output EXPERIMENTS.md
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional

import numpy as np

from repro.analysis.experiments import compare_with_paper_grid
from repro.analysis.paper_data import (
    ALEXNET_FIGURES,
    HEADLINE_CLAIMS,
    LENET_FIGURES,
    TABLE2_TRANSFERABILITY,
)
from repro.analysis.tables import format_grid
from repro.robustness.sweep import RobustnessGrid

#: measured-result file name -> (paper figure key, description)
FIGURE_INDEX: Dict[str, tuple] = {
    "fig4a_bim_linf": ("fig4a:BIM_linf", "Fig. 4a — LeNet-5/MNIST, linf BIM"),
    "fig4b_bim_l2": ("fig4b:BIM_l2", "Fig. 4b — LeNet-5/MNIST, l2 BIM"),
    "fig4c_fgm_linf": ("fig4c:FGM_linf", "Fig. 4c — LeNet-5/MNIST, linf FGM"),
    "fig4d_fgm_l2": ("fig4d:FGM_l2", "Fig. 4d — LeNet-5/MNIST, l2 FGM"),
    "fig5a_pgd_l2": ("fig5a:PGD_l2", "Fig. 5a — LeNet-5/MNIST, l2 PGD"),
    "fig5b_pgd_linf": ("fig5b:PGD_linf", "Fig. 5b — LeNet-5/MNIST, linf PGD"),
    "fig5c_rau_l2": ("fig5c:RAU_l2", "Fig. 5c — LeNet-5/MNIST, l2 RAU"),
    "fig5d_rau_linf": ("fig5d:RAU_linf", "Fig. 5d — LeNet-5/MNIST, linf RAU"),
    "fig6a_cr_l2": ("fig6a:CR_l2", "Fig. 6a — LeNet-5/MNIST, l2 CR"),
    "fig6b_rag_l2": ("fig6b:RAG_l2", "Fig. 6b — LeNet-5/MNIST, l2 RAG"),
    "fig7a_cr_l2": ("fig7a:CR_l2", "Fig. 7a — AlexNet/CIFAR-10, l2 CR"),
    "fig7b_rag_l2": ("fig7b:RAG_l2", "Fig. 7b — AlexNet/CIFAR-10, l2 RAG"),
    "fig7c_rau_l2": ("fig7c:RAU_l2", "Fig. 7c — AlexNet/CIFAR-10, l2 RAU"),
    "fig7d_rau_linf": ("fig7d:RAU_linf", "Fig. 7d — AlexNet/CIFAR-10, linf RAU"),
}

_ALL_PAPER_FIGURES = {**LENET_FIGURES, **ALEXNET_FIGURES}


def load_grid(results_dir: str, name: str) -> Optional[RobustnessGrid]:
    """Load one measured grid written by the benchmark harness, if present."""
    path = os.path.join(results_dir, f"{name}.json")
    if not os.path.exists(path):
        return None
    with open(path) as handle:
        return RobustnessGrid.from_dict(json.load(handle))


def load_payload(results_dir: str, name: str) -> Optional[dict]:
    """Load an arbitrary result payload, if present."""
    path = os.path.join(results_dir, f"{name}.json")
    if not os.path.exists(path):
        return None
    with open(path) as handle:
        return json.load(handle)


def _grid_markdown(title: str, grid: RobustnessGrid, paper: np.ndarray) -> List[str]:
    lines = [f"### {title}", ""]
    rows = [f"{eps:.2f}" for eps in grid.epsilons]
    lines.append("Measured robustness [%] (rows: perturbation budget, columns: multipliers):")
    lines.append("")
    lines.append("```")
    lines.append(format_grid(grid.values, rows, grid.victim_labels))
    lines.append("```")
    lines.append("")
    lines.append("Paper values for the same panel:")
    lines.append("")
    lines.append("```")
    paper_rows = [f"{eps:.2f}" for eps in grid.epsilons[: paper.shape[0]]]
    lines.append(
        format_grid(paper[: len(paper_rows)], paper_rows, [f"P{i+1}" for i in range(paper.shape[1])])
    )
    lines.append("```")
    comparison = compare_with_paper_grid(grid, paper)
    lines.append("")
    lines.append(
        "Shape comparison — rank correlation of the budget profile: "
        f"**{comparison['rank_correlation']:.2f}**, final-budget accuracy drop "
        f"(measured vs paper): {comparison['measured_final_drop_percent']:.0f}% vs "
        f"{comparison['paper_final_drop_percent']:.0f}%."
    )
    lines.append("")
    return lines


def generate_experiments_markdown(results_dir: str) -> str:
    """Build the full EXPERIMENTS.md content from a results directory."""
    lines: List[str] = []
    lines.append("# EXPERIMENTS — paper vs measured")
    lines.append("")
    lines.append(
        "This report is generated from `benchmarks/results/` (written by "
        "`pytest benchmarks/ --benchmark-only`) via "
        "`python -m repro.cli report`.  Absolute values differ from the paper "
        "because the datasets and multiplier netlists are synthetic "
        "substitutes (see README.md, \"Substitutions\"); the comparison "
        "targets are the trends."
    )
    lines.append("")

    # headline claims -------------------------------------------------------
    headline = load_payload(results_dir, "headline_claims")
    lines.append("## Headline claims")
    lines.append("")
    if headline:
        lines.append("| Claim | Paper | Measured |")
        lines.append("|---|---|---|")
        lines.append(
            "| Max accuracy loss of an AxDNN under the l2 CR attack | "
            f"{headline['paper_axdnn_loss_percent']:.0f}% | "
            f"{headline['measured_cr_axdnn_max_loss']:.1f}% |"
        )
        lines.append(
            "| Accuracy loss of the accurate DNN under the same attack | "
            f"{headline['paper_accurate_loss_percent']:.2f}% | "
            f"{headline['measured_cr_accurate_max_loss']:.2f}% |"
        )
        lines.append(
            "| MAE vs robustness correlation (linf BIM, informative budgets) | "
            "negative | "
            f"{headline['mae_vs_robustness_correlation']:.2f} |"
        )
        checks = headline.get("trend_checks", {})
        lines.append(
            f"| Trend checks passed | — | {checks.get('passed', 0)}/{checks.get('total', 0)} |"
        )
    else:
        lines.append("*(run `pytest benchmarks/bench_headline_claims.py --benchmark-only` to fill this section)*")
    lines.append("")

    # per-figure grids -------------------------------------------------------
    lines.append("## Figures 4–7 (robustness heat-maps)")
    lines.append("")
    for name, (paper_key, description) in FIGURE_INDEX.items():
        grid = load_grid(results_dir, name)
        if grid is None:
            lines.append(f"### {description}")
            lines.append("")
            lines.append("*(not yet measured)*")
            lines.append("")
            continue
        paper = _ALL_PAPER_FIGURES[paper_key]
        lines.extend(_grid_markdown(description, grid, paper))

    # figure 1 ---------------------------------------------------------------
    lines.append("## Figure 1 (motivational case study)")
    lines.append("")
    for name, description in [
        ("fig1_ffnn_pgd_linf", "FFNN, linf PGD"),
        ("fig1_ffnn_cr_l2", "FFNN, l2 CR"),
        ("fig1_lenet_pgd_linf", "LeNet-5, linf PGD"),
        ("fig1_lenet_cr_l2", "LeNet-5, l2 CR"),
    ]:
        grid = load_grid(results_dir, name)
        if grid is None:
            continue
        rows = [f"{eps:.2f}" for eps in grid.epsilons]
        lines.append(f"### {description}")
        lines.append("")
        lines.append("```")
        lines.append(format_grid(grid.values, rows, grid.victim_labels))
        lines.append("```")
        lines.append("")

    # figure 8 ---------------------------------------------------------------
    lines.append("## Figure 8 (quantized vs float accurate LeNet-5)")
    lines.append("")
    fig8 = load_payload(results_dir, "fig8_quantization_study")
    if fig8:
        gain = fig8.pop("mean_quantization_gain", None)
        lines.append("| Attack | float robustness @ eps=0.2 | quantized robustness @ eps=0.2 |")
        lines.append("|---|---|---|")
        for attack_key in sorted(fig8):
            comparison = fig8[attack_key]
            lines.append(
                f"| {attack_key} | {comparison['float'][4]:.1f}% | "
                f"{comparison['quantized'][4]:.1f}% |"
            )
        if gain is not None:
            lines.append("")
            lines.append(
                f"Mean robustness gain of 8-bit quantization over the float model: "
                f"**{gain:+.2f} points** (paper: quantization improves robustness)."
            )
    else:
        lines.append("*(not yet measured)*")
    lines.append("")

    # table II ----------------------------------------------------------------
    lines.append("## Table II (transferability, linf BIM)")
    lines.append("")
    table2 = load_payload(results_dir, "table2_transferability")
    if table2:
        lines.append(
            f"Measured at eps = {table2['epsilon']} with the {table2['multiplier']} AxDNNs; "
            "cells are accuracy before/after the transferred attack."
        )
        lines.append("")
        lines.append("| Source | Victim | Dataset | Measured | Paper |")
        lines.append("|---|---|---|---|---|")
        for cell in table2["cells"]:
            paper_key = (
                cell["source"],
                cell["victim"],
                "MNIST" if cell["dataset"].startswith("mnist") else "CIFAR-10",
            )
            paper_value = TABLE2_TRANSFERABILITY.get(paper_key)
            paper_text = (
                f"{paper_value[0]:.0f}/{paper_value[1]:.0f}" if paper_value else "—"
            )
            lines.append(
                f"| {cell['source']} | {cell['victim']} | {cell['dataset']} | "
                f"{cell['before']:.0f}/{cell['after']:.0f} | {paper_text} |"
            )
    else:
        lines.append("*(not yet measured)*")
    lines.append("")

    # ablations ---------------------------------------------------------------
    lines.append("## Ablations (beyond the paper)")
    lines.append("")
    mae = load_payload(results_dir, "ablation_mae_vs_accuracy")
    if mae:
        lines.append("Clean AxDNN accuracy vs multiplier MAE (LeNet-5 set):")
        lines.append("")
        lines.append("| Label | Multiplier | MAE | Clean accuracy |")
        lines.append("|---|---|---|---|")
        for row in mae["rows"]:
            lines.append(
                f"| {row['label']} | {row['multiplier']} | {row['mae_percent']:.3f}% | "
                f"{row['clean_accuracy']:.1f}% |"
            )
        lines.append("")
    lut = load_payload(results_dir, "ablation_lut_vs_exact")
    if lut:
        lines.append(
            f"LUT-gather inference is **x{lut['slowdown']:.1f}** slower than the "
            "exact-integer fast path (the simulation cost of approximation)."
        )
        lines.append("")
    energy = load_payload(results_dir, "ablation_energy_accuracy")
    if energy:
        lines.append("Energy saving vs clean accuracy (LeNet-5 multiplier set):")
        lines.append("")
        lines.append("| Label | Energy saving | Clean accuracy |")
        lines.append("|---|---|---|")
        for row in energy["rows"]:
            lines.append(
                f"| {row['label']} | {row['energy_saving_percent']:.1f}% | "
                f"{row['clean_accuracy']:.1f}% |"
            )
        lines.append("")
    conv_only = load_payload(results_dir, "ablation_convolution_only")
    if conv_only:
        lines.append(
            "Approximating only the convolutions (paper setup) vs every compute "
            f"layer: {conv_only['convolution_only']:.1f}% vs "
            f"{conv_only['all_layers']:.1f}% clean accuracy."
        )
        lines.append("")

    # known divergences -------------------------------------------------------
    lines.append("## Divergences from the paper and their causes")
    lines.append("")
    lines.append(
        "The qualitative conclusions reproduce (robustness decreases with the "
        "budget, linf attacks dominate l2 attacks, RAG is harmless, attacks "
        "transfer across architectures, and at least one AxDNN loses more "
        "accuracy than the accurate DNN under the same attack), but several "
        "magnitudes differ and are worth calling out explicitly:"
    )
    lines.append("")
    lines.append(
        "1. **CR-attack magnitude.** The paper's 53% accuracy-loss headline "
        "comes from the specific error structure of the JV3/L40 EvoApprox "
        "netlists interacting with real MNIST contrast statistics.  Our "
        "behavioural stand-ins and synthetic digits reproduce the *sign* of "
        "the effect (the AxDNN loses accuracy while the accurate DNN loses "
        "essentially none) but at a much smaller magnitude."
    )
    lines.append(
        "2. **Gradient attacks at intermediate budgets.** In our grids the "
        "highest-error AxDNNs (M6/M8) are often slightly *more* robust than "
        "the accurate DNN around the collapse region — the defensive-"
        "approximation effect of Guesmi et al., caused by approximation noise "
        "degrading the transferability of gradients crafted on the accurate "
        "model.  The paper reports the opposite ordering for BIM/PGD.  Both "
        "regimes are consistent with the paper's own thesis that the effect "
        "of approximation is not consistent or universal."
    )
    lines.append(
        "3. **Overall attack strength.** The synthetic LeNet-5 collapses at "
        "slightly smaller linf budgets (0.15–0.25) than the paper's (0.25), "
        "because the synthetic digits are more separable and the model is "
        "smaller-capacity than a real-MNIST LeNet-5."
    )
    lines.append(
        "4. **Quantization gain (Fig. 8).** The paper reports a clear "
        "robustness improvement from 8-bit quantization; our measured mean "
        "gain is approximately neutral.  The antagonism direction "
        "(approximation degrades the quantized model) still holds."
    )
    lines.append("")

    lines.append("## Reference: headline constants from the paper")
    lines.append("")
    for key, value in HEADLINE_CLAIMS.items():
        lines.append(f"* `{key}` = {value}")
    lines.append("")
    return "\n".join(lines)


def write_experiments_markdown(results_dir: str, output_path: str) -> str:
    """Generate and write EXPERIMENTS.md; returns the written content."""
    content = generate_experiments_markdown(results_dir)
    with open(output_path, "w") as handle:
        handle.write(content)
    return content
