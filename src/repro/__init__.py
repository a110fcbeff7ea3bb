"""repro — reproduction of "Is Approximation Universally Defensive Against
Adversarial Attacks in Deep Neural Networks?" (Siddique & Hoque, DATE 2022).

The package is organised as a stack of substrates, mirroring the paper's
experimental stack:

``repro.circuits``
    Bit-level, vectorised gate models of exact and approximate adders,
    compressors and array multipliers (the EvoApprox8b / defensive-
    approximation substrate).
``repro.multipliers``
    The approximate multiplier library: behavioural and circuit-backed 8-bit
    multipliers, LUT construction, error metrics and an energy model.
``repro.quantization``
    Fixed-point (8-bit) quantization schemes and calibration.
``repro.nn``
    A from-scratch NumPy deep-learning framework (layers, losses, optimizers,
    training, input gradients) used to train the accurate float models.
``repro.axnn``
    The approximate inference engine: quantized conv/dense layers whose
    products are routed through a multiplier look-up table (the TFApprox
    substitute).
``repro.attacks``
    Foolbox-style adversarial attacks (FGM/BIM/PGD, contrast reduction,
    repeated additive Gaussian/uniform noise) and distance metrics.
``repro.datasets``
    Deterministic synthetic MNIST-like and CIFAR-10-like datasets.
``repro.models``
    LeNet-5, AlexNet-style CNN and FFNN builders.
``repro.robustness``
    The robustness-evaluation harness (Algorithm 1): adversarial suites,
    multiplier/epsilon grids, transferability tables and quantization
    studies.
``repro.analysis``
    ASCII heat-map tables, digitised paper data and paper-vs-measured checks.
``repro.experiments``
    The declarative experiment API: frozen ``ExperimentSpec`` trees with
    content hashes, a content-addressed artifact store, and the ``Session``
    facade that runs specs with caching — the public entry point for
    running anything in the repo.
"""

from repro.version import __version__

__all__ = ["__version__"]
