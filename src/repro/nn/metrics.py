"""Classification metrics."""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError


def accuracy(predicted_labels: np.ndarray, true_labels: np.ndarray) -> float:
    """Fraction of correct predictions, in [0, 1]."""
    predicted_labels = np.asarray(predicted_labels)
    true_labels = np.asarray(true_labels)
    if predicted_labels.shape != true_labels.shape:
        raise ShapeError(
            f"label arrays must have equal shapes, got {predicted_labels.shape} "
            f"and {true_labels.shape}"
        )
    if predicted_labels.size == 0:
        raise ShapeError("cannot compute accuracy of empty label arrays")
    return float(np.mean(predicted_labels == true_labels))


def accuracy_percent(predicted_labels: np.ndarray, true_labels: np.ndarray) -> float:
    """Accuracy expressed in percent (the unit used throughout the paper)."""
    return accuracy(predicted_labels, true_labels) * 100.0
