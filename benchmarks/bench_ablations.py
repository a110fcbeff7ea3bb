"""Ablation benchmarks for the reproduction's design choices.

These go beyond the paper's own tables:

* LUT-gather execution vs the exact-integer fast path (the cost of simulating
  approximation);
* behavioural multiplier families vs circuit-backed multipliers: robustness
  impact as a function of MAE;
* convolution-only approximation (as in the paper) vs approximating every
  compute layer;
* energy/accuracy trade-off of the LeNet-5 multiplier set.
"""

import numpy as np
import pytest

from benchmarks.conftest import save_payload
from repro.axnn import build_axdnn
from repro.models import build_lenet5, multiply_counts
from repro.multipliers import (
    energy_saving_percent,
    get_multiplier,
    mean_absolute_error,
)


@pytest.mark.benchmark(group="ablation")
def test_ablation_lut_vs_exact_fastpath(benchmark, suite, lenet_bundle):
    """Cost of LUT-gather inference vs the exact-integer fast path."""
    import time

    x = lenet_bundle["x"][:24]
    quantized = lenet_bundle["victims"]["M1"]   # exact multiplier -> fast path
    approximate = lenet_bundle["victims"]["M4"]  # LUT path

    def run():
        start = time.perf_counter()
        quantized.predict(x)
        fast = time.perf_counter() - start
        start = time.perf_counter()
        approximate.predict(x)
        lut = time.perf_counter() - start
        return fast, lut

    fast, lut = benchmark.pedantic(run, rounds=1, iterations=1)
    slowdown = lut / max(fast, 1e-9)
    suite.record("lut_vs_exact.exact_fastpath_s", fast)
    suite.record("lut_vs_exact.lut_gather_s", lut)
    suite.record("lut_vs_exact.slowdown", slowdown, unit="ratio")
    save_payload(
        "ablation_lut_vs_exact",
        {"exact_fastpath_s": fast, "lut_gather_s": lut, "slowdown": slowdown},
    )
    print(f"\nexact fast path {fast:.3f}s, LUT gather {lut:.3f}s, slowdown x{slowdown:.1f}")
    assert lut > 0 and fast > 0


@pytest.mark.benchmark(group="ablation")
def test_ablation_mae_vs_clean_accuracy(benchmark, suite, lenet_bundle):
    """Clean AxDNN accuracy as a function of multiplier MAE (the paper's premise)."""
    x, y = lenet_bundle["x"], lenet_bundle["y"]

    def run():
        rows = []
        for label, victim in lenet_bundle["victims"].items():
            rows.append(
                {
                    "label": label,
                    "multiplier": victim.multiplier.name,
                    "mae_percent": mean_absolute_error(victim.multiplier),
                    "clean_accuracy": victim.accuracy_percent(x, y),
                }
            )
        return rows

    rows = benchmark.pedantic(
        lambda: suite.timed("mae_sweep_s", run), rounds=1, iterations=1
    )
    save_payload("ablation_mae_vs_accuracy", {"rows": rows})
    print()
    for row in rows:
        print(
            f"  {row['label']:3s} {row['multiplier']:14s} "
            f"MAE={row['mae_percent']:6.3f}%  clean accuracy={row['clean_accuracy']:5.1f}%"
        )
    # the two highest-MAE multipliers must sit below the accurate model
    accuracies = {row["label"]: row["clean_accuracy"] for row in rows}
    assert accuracies["M8"] <= accuracies["M1"]
    assert accuracies["M6"] <= accuracies["M1"]


@pytest.mark.benchmark(group="ablation")
def test_ablation_convolution_only_vs_all_layers(benchmark, suite, lenet_bundle):
    """Approximating only convolutions (paper setup) vs every compute layer."""
    model = lenet_bundle["model"]
    calibration = lenet_bundle["calibration"]
    x, y = lenet_bundle["x"], lenet_bundle["y"]

    def run():
        conv_only = build_axdnn(model, "M8", calibration, convolution_only=True)
        all_layers = build_axdnn(model, "M8", calibration, convolution_only=False)
        return (
            conv_only.accuracy_percent(x, y),
            all_layers.accuracy_percent(x, y),
        )

    conv_only_acc, all_layers_acc = benchmark.pedantic(
        lambda: suite.timed("convolution_only_s", run), rounds=1, iterations=1
    )
    save_payload(
        "ablation_convolution_only",
        {"convolution_only": conv_only_acc, "all_layers": all_layers_acc},
    )
    print(f"\nconv-only {conv_only_acc:.1f}% vs all-layers {all_layers_acc:.1f}%")
    # approximating strictly more layers can only keep or reduce accuracy
    assert all_layers_acc <= conv_only_acc + 5.0


@pytest.mark.benchmark(group="ablation")
def test_ablation_energy_accuracy_tradeoff(benchmark, suite, lenet_bundle):
    """Energy saving vs clean accuracy for the LeNet-5 multiplier set."""
    counts = multiply_counts(build_lenet5())
    x, y = lenet_bundle["x"], lenet_bundle["y"]

    def run():
        rows = []
        for label, victim in lenet_bundle["victims"].items():
            name = victim.multiplier.name
            rows.append(
                {
                    "label": label,
                    "multiplier": name,
                    "energy_saving_percent": energy_saving_percent(name),
                    "clean_accuracy": victim.accuracy_percent(x, y),
                    "multiplications_per_inference": int(sum(counts)),
                }
            )
        return rows

    rows = benchmark.pedantic(
        lambda: suite.timed("energy_accuracy_s", run), rounds=1, iterations=1
    )
    save_payload("ablation_energy_accuracy", {"rows": rows})
    print()
    for row in rows:
        print(
            f"  {row['label']:3s} saving={row['energy_saving_percent']:5.1f}% "
            f"accuracy={row['clean_accuracy']:5.1f}%"
        )
    savings = [row["energy_saving_percent"] for row in rows if row["label"] != "M1"]
    assert all(s > 0 for s in savings)
    assert get_multiplier("M1").is_exact()
