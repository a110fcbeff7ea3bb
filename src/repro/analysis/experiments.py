"""Trend/shape checks comparing the reproduction against the paper.

Because the reproduction runs on synthetic datasets and behavioural
multiplier stand-ins (see README.md, "Substitutions"), absolute accuracy
values differ from the paper.  What is expected to hold — and what these functions verify — is
the *shape* of every result:

* robustness decreases (never meaningfully increases) as the perturbation
  budget grows;
* linf attacks are far more damaging than their l2 counterparts;
* high-MAE AxDNNs sit below low-MAE AxDNNs;
* the gradient attacks collapse accuracy to ~0 beyond a small linf budget;
* the decision attacks (CR / RAU) hurt the high-error AxDNNs much more than
  the accurate DNN, while RAG barely moves anything.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.robustness.sweep import RobustnessGrid


@dataclass(frozen=True)
class TrendCheck:
    """Outcome of one trend comparison."""

    name: str
    passed: bool
    detail: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name}: {self.detail}"


def monotonic_decrease(
    grid: RobustnessGrid, victim: str, tolerance: float = 6.0
) -> TrendCheck:
    """Robustness of a victim should not increase by more than ``tolerance`` with eps."""
    column = grid.column(victim)
    increases = np.diff(column)
    worst = float(increases.max()) if increases.size else 0.0
    return TrendCheck(
        name=f"monotonic_decrease[{grid.attack_key}:{victim}]",
        passed=worst <= tolerance,
        detail=f"largest robustness increase along eps sweep = {worst:.1f} points",
    )


def collapse_under_attack(
    grid: RobustnessGrid, epsilon: float, threshold: float = 20.0
) -> TrendCheck:
    """Every victim's robustness should fall below ``threshold`` at ``epsilon``."""
    row = grid.row(epsilon)
    worst = float(row.max())
    return TrendCheck(
        name=f"collapse[{grid.attack_key}@eps={epsilon}]",
        passed=worst <= threshold,
        detail=f"max robustness across victims = {worst:.1f}% (threshold {threshold}%)",
    )


def l2_milder_than_linf(
    l2_grid: RobustnessGrid, linf_grid: RobustnessGrid, epsilon: float
) -> TrendCheck:
    """At a given budget the l2 variant should preserve more accuracy than linf."""
    l2_mean = float(l2_grid.row(epsilon).mean())
    linf_mean = float(linf_grid.row(epsilon).mean())
    return TrendCheck(
        name=f"l2_milder_than_linf[{l2_grid.attack_key} vs {linf_grid.attack_key}@{epsilon}]",
        passed=l2_mean >= linf_mean,
        detail=f"mean robustness l2 = {l2_mean:.1f}%, linf = {linf_mean:.1f}%",
    )


def high_error_multiplier_more_vulnerable(
    grid: RobustnessGrid,
    low_error_victim: str,
    high_error_victim: str,
    epsilon: float,
    slack: float = 3.0,
) -> TrendCheck:
    """A high-MAE AxDNN should not be meaningfully more robust than a low-MAE one."""
    low = float(grid.column(low_error_victim)[grid.epsilons.index(epsilon)])
    high = float(grid.column(high_error_victim)[grid.epsilons.index(epsilon)])
    return TrendCheck(
        name=(
            f"mae_ordering[{grid.attack_key}@{epsilon}:"
            f"{low_error_victim}>={high_error_victim}]"
        ),
        passed=high <= low + slack,
        detail=f"{low_error_victim}={low:.1f}%, {high_error_victim}={high:.1f}%",
    )


def approximation_not_universally_defensive(
    grid: RobustnessGrid, accurate_victim: str = "M1", slack: float = 2.0
) -> TrendCheck:
    """The paper's core claim: some AxDNN loses more accuracy than the accurate DNN.

    Passes when at least one (multiplier, eps) cell shows an accuracy loss
    exceeding the accurate DNN's loss at the same budget by ``slack`` points.
    """
    losses = grid.accuracy_loss()
    accurate_index = grid.victim_labels.index(accurate_victim)
    accurate_losses = losses[:, accurate_index]
    other = np.delete(losses, accurate_index, axis=1)
    margin = other - accurate_losses[:, None]
    worst = float(margin.max()) if margin.size else 0.0
    return TrendCheck(
        name=f"not_universally_defensive[{grid.attack_key}]",
        passed=worst >= slack,
        detail=(
            f"max extra accuracy loss of an AxDNN over the accurate DNN = "
            f"{worst:.1f} points"
        ),
    )


def summarize(checks: Sequence[TrendCheck]) -> Dict[str, object]:
    """Aggregate a list of checks into a JSON-friendly summary."""
    return {
        "total": len(checks),
        "passed": sum(1 for check in checks if check.passed),
        "failed": [check.name for check in checks if not check.passed],
        "details": {check.name: check.detail for check in checks},
    }


def compare_with_paper_grid(
    measured: RobustnessGrid, paper_grid: np.ndarray
) -> Dict[str, float]:
    """Quantitative shape comparison between a measured grid and the paper grid.

    Reports the rank correlation of the epsilon-profile (averaged over
    multipliers) and the mean absolute difference of normalised accuracy-loss
    profiles.  Both grids must share the epsilon ordering; the measured grid
    may have a different number of multiplier columns.
    """
    paper_grid = np.asarray(paper_grid, dtype=np.float64)
    measured_profile = measured.values.mean(axis=1)
    paper_profile = paper_grid.mean(axis=1)
    n = min(len(measured_profile), len(paper_profile))
    measured_profile = measured_profile[:n]
    paper_profile = paper_profile[:n]

    def _normalise(profile: np.ndarray) -> np.ndarray:
        baseline = profile[0] if profile[0] > 0 else 1.0
        return profile / baseline

    measured_norm = _normalise(measured_profile)
    paper_norm = _normalise(paper_profile)
    # Spearman-style rank correlation without scipy.stats dependency
    measured_rank = np.argsort(np.argsort(measured_profile))
    paper_rank = np.argsort(np.argsort(paper_profile))
    if np.std(measured_rank) == 0 or np.std(paper_rank) == 0:
        rank_correlation = 1.0 if np.allclose(measured_rank, paper_rank) else 0.0
    else:
        rank_correlation = float(np.corrcoef(measured_rank, paper_rank)[0, 1])
    return {
        "rank_correlation": rank_correlation,
        "mean_abs_profile_difference": float(
            np.mean(np.abs(measured_norm - paper_norm))
        ),
        "measured_final_drop_percent": float(
            (1.0 - measured_norm[-1]) * 100.0
        ),
        "paper_final_drop_percent": float((1.0 - paper_norm[-1]) * 100.0),
    }
