"""2-D convolution layer (NHWC layout)."""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError, ShapeError
from repro.nn.functional import col2im, conv_output_size, im2col
from repro.nn.initializers import get_initializer
from repro.nn.layers.base import Layer


class Conv2D(Layer):
    """A 2-D convolution over NHWC tensors.

    Weights have shape ``(kernel_h, kernel_w, in_channels, filters)`` and are
    flattened to ``(kernel_h * kernel_w * in_channels, filters)`` for the
    im2col matrix product — the same flattening the approximate inference
    engine uses, so float and LUT paths share weight layout.
    """

    _transient_attrs = ("_cols_cache", "_input_shape_cache")

    def __init__(
        self,
        filters: int,
        kernel_size: int,
        stride: int = 1,
        padding: str = "valid",
        use_bias: bool = True,
        kernel_initializer: str = "he_normal",
        name: Optional[str] = None,
    ) -> None:
        super().__init__(name)
        if filters <= 0:
            raise ConfigurationError(f"filters must be positive, got {filters}")
        if kernel_size <= 0:
            raise ConfigurationError(f"kernel_size must be positive, got {kernel_size}")
        if stride <= 0:
            raise ConfigurationError(f"stride must be positive, got {stride}")
        if padding not in ("valid", "same"):
            raise ConfigurationError(f"padding must be 'valid' or 'same', got {padding!r}")
        self.filters = filters
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.use_bias = use_bias
        self.kernel_initializer = kernel_initializer
        self._cols_cache: Optional[np.ndarray] = None
        self._input_shape_cache: Optional[Tuple[int, ...]] = None

    # ------------------------------------------------------------ geometry
    @property
    def pad_amount(self) -> int:
        """Zero-padding applied to each spatial border."""
        if self.padding == "valid":
            return 0
        return (self.kernel_size - 1) // 2

    def build(self, input_shape: Tuple[int, ...], rng: np.random.Generator) -> None:
        if len(input_shape) != 3:
            raise ShapeError(
                f"{self.name}: Conv2D expects (H, W, C) inputs, got {input_shape}"
            )
        in_channels = input_shape[2]
        initializer = get_initializer(self.kernel_initializer)
        shape = (self.kernel_size, self.kernel_size, in_channels, self.filters)
        self.params["weight"] = initializer(shape, rng)
        if self.use_bias:
            self.params["bias"] = np.zeros(self.filters, dtype=np.float64)
        self.built = True

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        height, width, _ = input_shape
        out_h = conv_output_size(height, self.kernel_size, self.stride, self.pad_amount)
        out_w = conv_output_size(width, self.kernel_size, self.stride, self.pad_amount)
        return (out_h, out_w, self.filters)

    # ------------------------------------------------------------- compute
    def flattened_weight(self) -> np.ndarray:
        """Weights reshaped to ``(kh * kw * in_channels, filters)``."""
        w = self.params["weight"]
        return w.reshape(-1, self.filters)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if x.ndim != 4:
            raise ShapeError(f"{self.name}: expected NHWC input, got shape {x.shape}")
        batch, height, width, channels = x.shape
        pad = self.pad_amount
        out_h = conv_output_size(height, self.kernel_size, self.stride, pad)
        out_w = conv_output_size(width, self.kernel_size, self.stride, pad)
        patch = self.kernel_size * self.kernel_size * channels
        padded_shape = (batch, height + 2 * pad, width + 2 * pad, channels)
        cols = im2col(
            x,
            self.kernel_size,
            self.kernel_size,
            self.stride,
            pad,
            out=self._buffer("cols", (batch, out_h, out_w, patch), x.dtype),
            padded=self._buffer("x_padded", padded_shape, x.dtype) if pad else None,
        )
        y = np.matmul(
            cols.reshape(-1, patch),
            self.flattened_weight(),
            out=self._buffer("out", (batch * out_h * out_w, self.filters), x.dtype),
        )
        y = y.reshape(batch, out_h, out_w, self.filters)
        if self.use_bias:
            y = np.add(y, self.params["bias"], out=y)
        # Caches are kept in evaluation mode as well so that adversarial
        # attacks can differentiate the loss with respect to the input —
        # except under no_grad_cache (pure batched inference), where keeping
        # them would pin one im2col buffer per layer for no benefit.
        if self._keep_grad_cache(training):
            self._cols_cache = cols
            self._input_shape_cache = x.shape
        else:
            self._cols_cache = None
            self._input_shape_cache = None
        return y

    def backward(
        self,
        grad_output: np.ndarray,
        input_grad: bool = True,
        param_grads: bool = True,
    ) -> Optional[np.ndarray]:
        if self._cols_cache is None or self._input_shape_cache is None:
            raise ShapeError(
                f"{self.name}: backward called without a training forward pass"
            )
        cols = self._cols_cache
        batch, out_h, out_w, patch = cols.shape
        grad_flat = grad_output.reshape(-1, self.filters)
        if param_grads:
            weight_grad = np.matmul(
                cols.reshape(-1, patch).T,
                grad_flat,
                out=self._buffer("weight_grad", (patch, self.filters), cols.dtype),
            )
            self.grads["weight"] = weight_grad.reshape(self.params["weight"].shape)
            if self.use_bias:
                self.grads["bias"] = grad_flat.sum(
                    axis=0, out=self._buffer("bias_grad", (self.filters,), cols.dtype)
                )
        if not input_grad:
            return None
        grad_cols = np.matmul(
            grad_flat,
            self.flattened_weight().T,
            out=self._scratch((grad_flat.shape[0], patch), cols.dtype),
        ).reshape(cols.shape)
        in_batch, in_h, in_w, in_c = self._input_shape_cache
        pad = self.pad_amount
        grad_input = col2im(
            grad_cols,
            self._input_shape_cache,
            self.kernel_size,
            self.kernel_size,
            self.stride,
            pad,
            out=self._scratch(
                (in_batch, in_h + 2 * pad, in_w + 2 * pad, in_c), cols.dtype
            ),
        )
        self._reclaim(grad_cols)
        return grad_input
