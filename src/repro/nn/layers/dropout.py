"""Dropout regularisation layer."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.nn.layers.base import Layer


class Dropout(Layer):
    """Inverted dropout: active only in training mode.

    In evaluation mode (the mode used for inference and adversarial-example
    generation) the layer is the identity, so input gradients are unaffected.
    """

    _transient_attrs = ("_mask",)

    def __init__(
        self, rate: float, seed: Optional[int] = None, name: Optional[str] = None
    ) -> None:
        super().__init__(name)
        if not 0.0 <= rate < 1.0:
            raise ConfigurationError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate
        self._rng = np.random.default_rng(seed)
        self._mask: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if not training or self.rate == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.rate
        self._mask = (self._rng.random(x.shape) < keep) / keep
        return x * self._mask

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return grad_output
        return grad_output * self._mask
