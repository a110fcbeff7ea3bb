"""Headline claims of the abstract and Section IV.

1. "adversarial attacks on AxDNNs can cause 53% accuracy loss whereas the
   same attack may lead to almost no accuracy loss (as low as 0.06%) in the
   accurate DNN" — derived from the l2 CR attack at large budgets;
2. lower-MAE multipliers yield more robust AxDNNs (MAE ordering);
3. l2 attacks are milder than linf attacks for both accurate DNNs and AxDNNs;
4. approximation is not universally defensive.
"""

import numpy as np
import pytest

from benchmarks.conftest import EPSILONS, save_payload
from repro.analysis import (
    HEADLINE_CLAIMS,
    approximation_not_universally_defensive,
    l2_milder_than_linf,
    summarize,
)
from repro.attacks import get_attack
from repro.multipliers import get_multiplier, mean_absolute_error
from repro.robustness import AdversarialSuite, grid_from_suite


@pytest.mark.benchmark(group="headline")
def test_headline_claims(benchmark, suite, lenet_bundle):
    """Evaluate the headline claims on the measured LeNet-5 grids."""

    def run():
        grids = {}
        for key in ("CR_l2", "BIM_linf", "BIM_l2"):
            adversarial = AdversarialSuite.generate(
                lenet_bundle["model"],
                get_attack(key),
                lenet_bundle["x"],
                lenet_bundle["y"],
                EPSILONS,
                workers="auto",
            )
            grids[key] = grid_from_suite(
                adversarial,
                lenet_bundle["victims"],
                dataset_name="synthetic-mnist",
                source_name=lenet_bundle["model"].name,
            )
        return grids

    grids = benchmark.pedantic(
        lambda: suite.timed("headline_sweeps_s", run), rounds=1, iterations=1
    )

    cr = grids["CR_l2"]
    losses = cr.accuracy_loss()
    accurate_max_loss = float(losses[:, cr.victim_labels.index("M1")].max())
    axdnn_max_loss = float(
        np.delete(losses, cr.victim_labels.index("M1"), axis=1).max()
    )
    checks = [
        approximation_not_universally_defensive(cr, slack=1.0),
        l2_milder_than_linf(grids["BIM_l2"], grids["BIM_linf"], 0.25),
        l2_milder_than_linf(grids["BIM_l2"], grids["BIM_linf"], 0.5),
    ]
    summary = summarize(checks)

    # MAE ordering claim: average robustness over the gradient-attack sweep
    # (excluding the fully-collapsed rows) should correlate negatively with MAE
    bim = grids["BIM_linf"]
    informative = bim.values[:5, :]
    mean_robustness = informative.mean(axis=0)
    maes = np.array(
        [mean_absolute_error(get_multiplier(label)) for label in bim.victim_labels]
    )
    correlation = float(np.corrcoef(maes, mean_robustness)[0, 1])

    payload = {
        "paper_axdnn_loss_percent": HEADLINE_CLAIMS["cr_attack_axdnn_loss_percent"],
        "paper_accurate_loss_percent": HEADLINE_CLAIMS["cr_attack_accurate_loss_percent"],
        "measured_cr_axdnn_max_loss": axdnn_max_loss,
        "measured_cr_accurate_max_loss": accurate_max_loss,
        "mae_vs_robustness_correlation": correlation,
        "trend_checks": summary,
    }
    save_payload("headline_claims", payload)
    suite.record(
        "cr_axdnn_max_loss", axdnn_max_loss, unit="percent", higher_is_better=True
    )
    suite.record("cr_accurate_max_loss", accurate_max_loss, unit="percent")
    print()
    print("headline claims (paper -> measured):")
    print(
        f"  CR attack, max AxDNN accuracy loss:    "
        f"{HEADLINE_CLAIMS['cr_attack_axdnn_loss_percent']:.1f}% -> {axdnn_max_loss:.1f}%"
    )
    print(
        f"  CR attack, accurate DNN accuracy loss: "
        f"{HEADLINE_CLAIMS['cr_attack_accurate_loss_percent']:.2f}% -> {accurate_max_loss:.2f}%"
    )
    print(f"  MAE vs robustness correlation (BIM linf): {correlation:.2f}")
    print(f"  trend checks: {summary['passed']}/{summary['total']} passed")
    benchmark.extra_info.update(payload)

    # the qualitative claims that must hold in the reproduction:
    assert accurate_max_loss <= 10.0
    assert axdnn_max_loss > accurate_max_loss
    assert summary["passed"] == summary["total"], summary["failed"]
