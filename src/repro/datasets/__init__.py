"""Synthetic datasets replacing the MNIST / CIFAR-10 downloads (offline).

See README.md, "Substitutions", for the rationale: the datasets preserve
tensor shapes, value ranges and class counts so every downstream code path
(training, quantization, LUT inference, attacks, robustness sweeps) is
exercised exactly as with the real data.
"""

from repro.datasets.base import DataSplit, Dataset
from repro.datasets.synthetic_cifar10 import (
    CLASS_RECIPES,
    SyntheticCIFAR10,
    load_synthetic_cifar10,
)
from repro.datasets.synthetic_mnist import (
    DIGIT_STROKES,
    SyntheticMNIST,
    glyph_template,
    load_synthetic_mnist,
)

__all__ = [
    "Dataset",
    "DataSplit",
    "SyntheticMNIST",
    "SyntheticCIFAR10",
    "load_synthetic_mnist",
    "load_synthetic_cifar10",
    "glyph_template",
    "DIGIT_STROKES",
    "CLASS_RECIPES",
]
