"""Dataset containers and batching helpers."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.errors import ShapeError


@dataclass
class DataSplit:
    """One split (train or test) of a dataset: images plus integer labels."""

    images: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        if self.images.shape[0] != self.labels.shape[0]:
            raise ShapeError(
                f"images and labels disagree on sample count: {self.images.shape[0]} "
                f"vs {self.labels.shape[0]}"
            )

    def __len__(self) -> int:
        return int(self.images.shape[0])


@dataclass
class Dataset:
    """A train/test dataset with image metadata."""

    name: str
    train: DataSplit
    test: DataSplit
    num_classes: int
    image_shape: Tuple[int, int, int]

    def describe(self) -> str:
        """One-line description used in reports."""
        return (
            f"{self.name}: {len(self.train)} train / {len(self.test)} test samples, "
            f"shape {self.image_shape}, {self.num_classes} classes"
        )
