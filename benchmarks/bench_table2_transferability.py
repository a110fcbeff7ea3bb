"""Table II — transferability of the linf BIM attack (eps = 0.05 .. 0.25).

Adversarial examples are crafted on each accurate architecture (AccL5,
AccAlx) and evaluated on AxDNNs of *both* architectures, on both datasets —
the paper's second attack scenario, where the adversary knows neither the
inexactness nor the victim's model structure.  Each dataset is one
declarative ``kind="transfer"`` experiment spec.  Its sources are *not* the
figures' models: ``n_test=300`` (against ``LENET_MODEL``'s 400 and
``ALEXNET_MODEL``'s 200, which also trains on a different sample count and
epoch count) gives different ``ModelSpec`` hashes, so this table trains and
crafts its own sources.  The artifact store shares them only between
re-runs of this bench.
"""

import pytest

from benchmarks.conftest import N_EPOCHS, N_TRAIN, save_payload
from repro.analysis import TABLE2_TRANSFERABILITY, format_transfer_table
from repro.config import env_float
from repro.experiments import (
    AttackSpec,
    ExperimentSpec,
    ModelSpec,
    SweepSpec,
    VictimSpec,
)

#: the paper uses eps = 0.05; our synthetic models are less robust at equal
#: budgets, so the bench also records a smaller-budget point for comparison
EPSILON = env_float("REPRO_BENCH_TRANSFER_EPS", 0.05)
TRANSFER_MULTIPLIER = "M4"


def _dataset_spec(dataset_name, n_samples):
    """The two-architecture transfer experiment on one dataset."""
    lenet = ModelSpec(
        architecture="lenet5",
        dataset=dataset_name,
        n_train=N_TRAIN,
        n_test=300,
        epochs=N_EPOCHS,
    )
    alexnet = ModelSpec(
        architecture="alexnet",
        dataset=dataset_name,
        n_train=N_TRAIN,
        n_test=300,
        epochs=N_EPOCHS + 1,
    )
    return ExperimentSpec(
        name=f"table2_{dataset_name}",
        kind="transfer",
        model=lenet,
        transfer_sources=(alexnet,),
        victims=VictimSpec(
            multipliers=(TRANSFER_MULTIPLIER,), calibration_samples=96
        ),
        attacks=(AttackSpec(attack="BIM_linf"),),
        sweep=SweepSpec(epsilons=(EPSILON,), n_samples=n_samples),
    )


@pytest.mark.benchmark(group="table2")
def test_table2_transferability(benchmark, suite, experiment_session):
    """Reproduce the Table II layout on both synthetic datasets."""

    def run():
        cells = []
        for dataset_name, n_samples in (("mnist", 48), ("cifar10", 32)):
            result = experiment_session.run(_dataset_spec(dataset_name, n_samples))
            cells.extend(result.table.cells)
        return cells

    cells = benchmark.pedantic(
        lambda: suite.timed("transfer_study_s", run), rounds=1, iterations=1
    )
    print()
    print(f"linf BIM, eps = {EPSILON}, multiplier {TRANSFER_MULTIPLIER}")
    print(format_transfer_table(cells, ["synthetic-mnist", "synthetic-cifar10"], ["AxL5", "AxAlx"]))
    print("paper Table II reference:", TABLE2_TRANSFERABILITY)

    save_payload(
        "table2_transferability",
        {
            "epsilon": EPSILON,
            "multiplier": TRANSFER_MULTIPLIER,
            "cells": [
                {
                    "source": cell.source,
                    "victim": cell.victim,
                    "dataset": cell.dataset,
                    "before": cell.accuracy_before,
                    "after": cell.accuracy_after,
                }
                for cell in cells
            ],
        },
    )
    # attacks must transfer: every victim loses accuracy under every source
    drops = [cell.accuracy_drop for cell in cells]
    mean_drop = float(sum(drops) / len(drops))
    suite.record(
        "mean_accuracy_drop", mean_drop, unit="percent", higher_is_better=True
    )
    benchmark.extra_info["mean_accuracy_drop"] = mean_drop
    assert max(drops) > 0.0
