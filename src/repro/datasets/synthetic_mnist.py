"""Synthetic MNIST substitute: procedurally rendered digit-like glyphs.

The real MNIST download is not available offline, so this module generates a
deterministic 10-class, 28x28 grayscale dataset with the same tensor layout
and value range.  Each class is a hand-designed stroke glyph resembling the
corresponding digit; every sample applies a random affine perturbation
(shift / rotation / scale), intensity jitter and additive noise, which gives
the intra-class variability needed for the accurate models, the quantized
models and the AxDNNs to behave like their MNIST counterparts in the paper's
pipeline (see README.md, "Substitutions").
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.datasets.base import DataSplit, Dataset
from repro.datasets.rendering import random_affine, render_strokes
from repro.errors import ConfigurationError

IMAGE_SIZE = 28
NUM_CLASSES = 10

#: stroke description of each digit glyph, in (row, col) coordinates in [0, 1]
DIGIT_STROKES: Dict[int, List[dict]] = {
    0: [{"arc": ((0.50, 0.50), 0.30, 0.0, 360.0)}],
    1: [
        {"line": ((0.35, 0.40), (0.20, 0.55))},
        {"line": ((0.20, 0.55), (0.80, 0.55))},
        {"line": ((0.80, 0.40), (0.80, 0.70))},
    ],
    2: [
        {"arc": ((0.35, 0.50), 0.20, -80.0, 110.0)},
        {"line": ((0.48, 0.66), (0.80, 0.30))},
        {"line": ((0.80, 0.30), (0.80, 0.72))},
    ],
    3: [
        {"arc": ((0.33, 0.48), 0.18, -60.0, 150.0)},
        {"arc": ((0.67, 0.48), 0.18, 30.0, 240.0)},
    ],
    4: [
        {"line": ((0.20, 0.62), (0.80, 0.62))},
        {"line": ((0.20, 0.62), (0.58, 0.28))},
        {"line": ((0.58, 0.28), (0.58, 0.78))},
    ],
    5: [
        {"line": ((0.22, 0.32), (0.22, 0.72))},
        {"line": ((0.22, 0.32), (0.50, 0.32))},
        {"arc": ((0.65, 0.48), 0.20, 20.0, 270.0)},
    ],
    6: [
        {"line": ((0.22, 0.58), (0.55, 0.32))},
        {"arc": ((0.68, 0.50), 0.20, 0.0, 360.0)},
    ],
    7: [
        {"line": ((0.22, 0.30), (0.22, 0.74))},
        {"line": ((0.22, 0.74), (0.80, 0.42))},
    ],
    8: [
        {"arc": ((0.34, 0.50), 0.17, 0.0, 360.0)},
        {"arc": ((0.68, 0.50), 0.19, 0.0, 360.0)},
    ],
    9: [
        {"arc": ((0.36, 0.48), 0.19, 0.0, 360.0)},
        {"line": ((0.40, 0.66), (0.80, 0.60))},
    ],
}


def glyph_template(digit: int, size: int = IMAGE_SIZE, thickness: float = 1.8) -> np.ndarray:
    """Render the canonical glyph of a digit class."""
    if digit not in DIGIT_STROKES:
        raise ConfigurationError(f"digit must be in [0, 9], got {digit}")
    return render_strokes(size, DIGIT_STROKES[digit], thickness=thickness)


class SyntheticMNIST:
    """Generator for the synthetic MNIST-like dataset."""

    def __init__(
        self,
        noise_level: float = 0.08,
        max_shift: int = 2,
        max_rotate_deg: float = 12.0,
        scale_range: Tuple[float, float] = (0.9, 1.1),
        image_size: int = IMAGE_SIZE,
    ) -> None:
        self.noise_level = noise_level
        self.max_shift = max_shift
        self.max_rotate_deg = max_rotate_deg
        self.scale_range = scale_range
        self.image_size = image_size
        self._templates = {
            digit: glyph_template(digit, image_size) for digit in range(NUM_CLASSES)
        }

    # ------------------------------------------------------------- sampling
    def sample(self, digit: int, rng: np.random.Generator) -> np.ndarray:
        """Generate one (H, W, 1) sample of a digit class."""
        template = self._templates[digit]
        image = random_affine(
            template,
            rng,
            max_shift=self.max_shift,
            max_rotate_deg=self.max_rotate_deg,
            scale_range=self.scale_range,
        )
        intensity = rng.uniform(0.75, 1.0)
        image = image * intensity
        image = image + rng.normal(0.0, self.noise_level, size=image.shape)
        return np.clip(image, 0.0, 1.0)[..., None]

    def generate(
        self, n_samples: int, seed: int = 0, balanced: bool = True
    ) -> DataSplit:
        """Generate a split of ``n_samples`` images with labels."""
        if n_samples <= 0:
            raise ConfigurationError(f"n_samples must be positive, got {n_samples}")
        rng = np.random.default_rng(seed)
        if balanced:
            labels = np.arange(n_samples) % NUM_CLASSES
            rng.shuffle(labels)
        else:
            labels = rng.integers(0, NUM_CLASSES, size=n_samples)
        images = np.stack([self.sample(int(label), rng) for label in labels])
        return DataSplit(images.astype(np.float64), labels.astype(np.int64))

    def load(
        self, n_train: int = 2000, n_test: int = 400, seed: int = 0
    ) -> Dataset:
        """Generate the full train/test dataset."""
        train = self.generate(n_train, seed=seed)
        test = self.generate(n_test, seed=seed + 1)
        return Dataset(
            name="synthetic-mnist",
            train=train,
            test=test,
            num_classes=NUM_CLASSES,
            image_shape=(self.image_size, self.image_size, 1),
        )


def load_synthetic_mnist(
    n_train: int = 2000, n_test: int = 400, seed: int = 0
) -> Dataset:
    """Convenience wrapper mirroring a torchvision-style loader."""
    return SyntheticMNIST().load(n_train=n_train, n_test=n_test, seed=seed)
