"""The ReLU activation layer, the only activation the paper's networks use."""

from __future__ import annotations

import numpy as np

from repro.nn.layers.base import Layer


class ReLU(Layer):
    """Rectified linear unit."""

    _transient_attrs = ("_mask",)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        # np.maximum(x, 0.0) is (x > 0) ? x : +0.0 — the same bits as
        # np.where(x > 0, x, 0.0) for the finite float64 inputs training
        # produces (-0.0 rectifies to +0.0 either way), in one pass; the
        # mask pass is skipped entirely in pure inference.
        self._mask = (
            np.greater(x, 0) if self._keep_grad_cache(training) else None
        )
        return np.maximum(x, 0.0)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return np.multiply(grad_output, self._require_cache(self._mask))
