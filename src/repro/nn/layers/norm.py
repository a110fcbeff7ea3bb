"""Batch normalisation layer."""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.nn.layers.base import Layer


class BatchNorm(Layer):
    """Batch normalisation over the last (feature/channel) axis.

    Works for both dense activations ``(N, F)`` and NHWC feature maps
    ``(N, H, W, C)``; statistics are computed over every axis except the
    last.  Running statistics are tracked for evaluation mode.
    """

    _transient_attrs = ("_std", "_x_hat", "_batch_axes")

    def __init__(
        self,
        momentum: float = 0.9,
        epsilon: float = 1e-5,
        name: Optional[str] = None,
    ) -> None:
        super().__init__(name)
        if not 0.0 < momentum < 1.0:
            raise ConfigurationError(f"momentum must be in (0, 1), got {momentum}")
        if epsilon <= 0:
            raise ConfigurationError(f"epsilon must be positive, got {epsilon}")
        self.momentum = momentum
        self.epsilon = epsilon

    def build(self, input_shape: Tuple[int, ...], rng: np.random.Generator) -> None:
        features = input_shape[-1]
        self.params["gamma"] = np.ones(features, dtype=np.float64)
        self.params["beta"] = np.zeros(features, dtype=np.float64)
        self.running_mean = np.zeros(features, dtype=np.float64)
        self.running_var = np.ones(features, dtype=np.float64)
        self.built = True

    def data_parallel_safe(self) -> bool:
        # batch statistics couple samples: per-micro-batch statistics would
        # train a different function
        return False

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        axes = tuple(range(x.ndim - 1))
        if training:
            mean = x.mean(axis=axes)
            var = x.var(axis=axes)
            self.running_mean = (
                self.momentum * self.running_mean + (1.0 - self.momentum) * mean
            )
            self.running_var = (
                self.momentum * self.running_var + (1.0 - self.momentum) * var
            )
        else:
            mean = self.running_mean
            var = self.running_var
        std = np.sqrt(var + self.epsilon)
        # (x - mean) / std into a workspace buffer, same ops as the
        # allocating expression
        x_hat = self._buffer("x_hat", x.shape, x.dtype)
        np.subtract(x, mean, out=x_hat)
        np.divide(x_hat, std, out=x_hat)
        if self._keep_grad_cache(training):
            self._std = std
            self._x_hat = x_hat
            self._batch_axes = axes
        else:
            self._std = None
            self._x_hat = None
            self._batch_axes = None
        out = self._buffer("out", x.shape, x.dtype)
        np.multiply(self.params["gamma"], x_hat, out=out)
        np.add(out, self.params["beta"], out=out)
        return out

    def backward(
        self,
        grad_output: np.ndarray,
        input_grad: bool = True,
        param_grads: bool = True,
    ) -> Optional[np.ndarray]:
        axes = self._batch_axes
        x_hat = self._x_hat
        if param_grads:
            self.grads["gamma"] = np.sum(grad_output * x_hat, axis=axes)
            self.grads["beta"] = np.sum(grad_output, axis=axes)
        if not input_grad:
            return None
        gamma = self.params["gamma"]
        # standard batch-norm backward (through batch statistics)
        dx_hat = grad_output * gamma
        term1 = dx_hat
        term2 = np.mean(dx_hat, axis=axes, keepdims=True)
        term3 = x_hat * np.mean(dx_hat * x_hat, axis=axes, keepdims=True)
        return (term1 - term2 - term3) / self._std
