"""Fully-connected (dense) layer."""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError, ShapeError
from repro.nn.initializers import get_initializer
from repro.nn.layers.base import Layer


class Dense(Layer):
    """A fully-connected layer: ``y = x @ W + b``.

    Parameters
    ----------
    units:
        Number of output features.
    use_bias:
        Whether to add a bias vector.
    kernel_initializer:
        Name of the weight initializer (see :mod:`repro.nn.initializers`).
    """

    _transient_attrs = ("_input_cache",)

    def __init__(
        self,
        units: int,
        use_bias: bool = True,
        kernel_initializer: str = "he_normal",
        name: Optional[str] = None,
    ) -> None:
        super().__init__(name)
        if units <= 0:
            raise ConfigurationError(f"units must be positive, got {units}")
        self.units = units
        self.use_bias = use_bias
        self.kernel_initializer = kernel_initializer

    def build(self, input_shape: Tuple[int, ...], rng: np.random.Generator) -> None:
        if len(input_shape) != 1:
            raise ShapeError(
                f"{self.name}: Dense expects flat inputs, got shape {input_shape}"
            )
        in_features = input_shape[0]
        initializer = get_initializer(self.kernel_initializer)
        self.params["weight"] = initializer((in_features, self.units), rng)
        if self.use_bias:
            self.params["bias"] = np.zeros(self.units, dtype=np.float64)
        self.built = True

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        return (self.units,)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if x.ndim != 2:
            raise ShapeError(f"{self.name}: expected 2-D input, got shape {x.shape}")
        # The input is cached in both training and evaluation mode: adversarial
        # attacks need input gradients of the model in evaluation mode.  Under
        # no_grad_cache (pure batched inference) the reference is dropped.
        self._input_cache = x if self._keep_grad_cache(training) else None
        y = np.matmul(
            x,
            self.params["weight"],
            out=self._buffer("out", (x.shape[0], self.units), x.dtype),
        )
        if self.use_bias:
            y = np.add(y, self.params["bias"], out=y)
        return y

    def backward(
        self,
        grad_output: np.ndarray,
        input_grad: bool = True,
        param_grads: bool = True,
    ) -> Optional[np.ndarray]:
        x = self._require_cache(self._input_cache)
        if param_grads:
            self.grads["weight"] = np.matmul(
                x.T,
                grad_output,
                out=self._buffer("weight_grad", self.params["weight"].shape, x.dtype),
            )
            if self.use_bias:
                self.grads["bias"] = grad_output.sum(
                    axis=0, out=self._buffer("bias_grad", (self.units,), x.dtype)
                )
        if not input_grad:
            return None
        return np.matmul(
            grad_output,
            self.params["weight"].T,
            out=self._scratch(x.shape, x.dtype),
        )
