"""Loss functions.

Each loss exposes ``value(logits_or_predictions, targets)`` and
``gradient(...)`` returning the gradient with respect to the first argument.
Targets are integer class labels for classification losses.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.errors import ShapeError
from repro.nn.functional import log_softmax, one_hot, softmax, softmax_cross_entropy


class Loss:
    """Base class for losses."""

    def value(self, predictions: np.ndarray, targets: np.ndarray) -> float:
        raise NotImplementedError

    def gradient(self, predictions: np.ndarray, targets: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def value_and_gradient(
        self, predictions: np.ndarray, targets: np.ndarray
    ) -> Tuple[float, np.ndarray]:
        """Loss value and gradient of one batch in a single call.

        The base implementation simply chains :meth:`value` and
        :meth:`gradient`; fused losses override it to share the expensive
        intermediate (see :class:`CrossEntropyLoss`).
        """
        return self.value(predictions, targets), self.gradient(predictions, targets)

    def __call__(self, predictions: np.ndarray, targets: np.ndarray) -> float:
        return self.value(predictions, targets)


class CrossEntropyLoss(Loss):
    """Softmax cross-entropy on logits with integer class targets.

    :meth:`value` and :meth:`gradient` are the unfused reference pair (three
    shifted-exp passes between them); :meth:`value_and_gradient` is the
    fused single-pass path the training runtime uses, bit-identical to the
    pair (see :func:`repro.nn.functional.softmax_cross_entropy`).
    """

    def _check(self, logits: np.ndarray, targets: np.ndarray) -> None:
        if logits.ndim != 2:
            raise ShapeError(f"logits must be 2-D (N, classes), got {logits.shape}")
        if targets.ndim != 1 or targets.shape[0] != logits.shape[0]:
            raise ShapeError(
                f"targets must be a length-{logits.shape[0]} vector, got {targets.shape}"
            )

    def value(self, logits: np.ndarray, targets: np.ndarray) -> float:
        self._check(logits, targets)
        log_probs = log_softmax(logits, axis=-1)
        picked = log_probs[np.arange(logits.shape[0]), targets.astype(np.int64)]
        return float(-picked.mean())

    def gradient(self, logits: np.ndarray, targets: np.ndarray) -> np.ndarray:
        self._check(logits, targets)
        probs = softmax(logits, axis=-1)
        grad = (probs - one_hot(targets, logits.shape[1])) / logits.shape[0]
        return grad

    def value_and_gradient(
        self, logits: np.ndarray, targets: np.ndarray
    ) -> Tuple[float, np.ndarray]:
        self._check(logits, np.asarray(targets))
        return softmax_cross_entropy(logits, targets)
