"""Average and max pooling layers (NHWC layout).

``AvgPool2D`` with ``pool_size <= 2`` sums its window offsets as strided
slices of the input, which reproduces NumPy's ``mean`` reduce bit for bit:
below eight elements that reduce is a sequential sum seeded with ``+0.0``.
At nine or more elements (``pool_size >= 3``) NumPy switches to an 8-lane
pairwise sum that a sequential loop does not reproduce, so those pools and
``MaxPool2D`` keep the stacked-window spelling (:meth:`_Pool2D._windows`).
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError, ShapeError
from repro.nn.functional import conv_output_size
from repro.nn.layers.base import Layer


class _Pool2D(Layer):
    """Shared geometry for 2-D pooling layers.

    :meth:`_offsets` enumerates the ``pool_size ** 2`` window offsets as
    strided views of an input; :meth:`_windows` stacks them along a new axis
    for the reduces that need every window element at once.
    """

    _transient_attrs = ("_input_shape",)

    def __init__(
        self, pool_size: int = 2, stride: Optional[int] = None, name: Optional[str] = None
    ) -> None:
        super().__init__(name)
        if pool_size <= 0:
            raise ConfigurationError(f"pool_size must be positive, got {pool_size}")
        self.pool_size = pool_size
        self.stride = stride if stride is not None else pool_size
        if self.stride <= 0:
            raise ConfigurationError(f"stride must be positive, got {self.stride}")

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        height, width, channels = input_shape
        out_h = conv_output_size(height, self.pool_size, self.stride, 0)
        out_w = conv_output_size(width, self.pool_size, self.stride, 0)
        return (out_h, out_w, channels)

    def _offsets(
        self, x: np.ndarray, out_h: int, out_w: int
    ) -> Iterator[Tuple[int, np.ndarray]]:
        """``(i * pool_size + j, view)`` per window offset, in that order.

        ``view[:, oh, ow]`` is element ``(i, j)`` of window ``(oh, ow)``;
        ``x`` may be the input or a gradient of the input's shape.
        """
        s = self.stride
        for i in range(self.pool_size):
            for j in range(self.pool_size):
                yield i * self.pool_size + j, x[
                    :, i : i + out_h * s : s, j : j + out_w * s : s, :
                ]

    def _windows(self, x: np.ndarray) -> np.ndarray:
        """Stack pooling windows along a new axis: (N, OH, OW, C, k*k)."""
        batch, out_h, out_w, channels = (x.shape[0],) + self.output_shape(
            x.shape[1:]
        )
        windows = np.empty(
            (batch, out_h, out_w, channels, self.pool_size * self.pool_size),
            dtype=x.dtype,
        )
        for index, view in self._offsets(x, out_h, out_w):
            windows[..., index] = view
        return windows


class AvgPool2D(_Pool2D):
    """Average pooling, as used by the paper's LeNet-5 and AlexNet variants.

    For ``pool_size <= 2`` the forward pass adds the window offsets into
    one output buffer, ``(((+0.0 + w00) + w01) + w10) + w11``, then divides
    by the window size: NumPy's own order for a ``mean`` over fewer than
    eight elements, so the result is bit-identical to stacking the windows
    and reducing them — without the stack.  The ``+0.0`` seed is
    load-bearing: a window of ``-0.0`` averages to ``+0.0``.  Larger pools
    stack the windows and call ``mean`` (see the module docstring).

    When windows do not overlap (``stride >= pool_size``) the backward pass
    writes each offset's share of the gradient once, as ``share + 0.0`` —
    the bits of adding it to a zero-filled gradient, ``-0.0`` included —
    and zeroes only the input rows and columns no window covers.
    Overlapping pools accumulate into a zero-filled gradient.
    """

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if x.ndim != 4:
            raise ShapeError(f"{self.name}: expected NHWC input, got shape {x.shape}")
        self._input_shape = x.shape if self._keep_grad_cache(training) else None
        if self.pool_size > 2:
            return self._windows(x).mean(axis=-1)
        out_h, out_w, _ = self.output_shape(x.shape[1:])
        views = self._offsets(x, out_h, out_w)
        _, first = next(views)
        out = np.add(first, 0.0)  # the +0.0 seed of NumPy's sequential sum
        for _, view in views:
            np.add(out, view, out=out)
        return np.divide(out, self.pool_size * self.pool_size, out=out)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        input_shape = self._require_cache(self._input_shape)
        out_h, out_w = grad_output.shape[1], grad_output.shape[2]
        grad_input = np.empty(input_shape, dtype=grad_output.dtype)
        share = grad_output / (self.pool_size * self.pool_size)
        pool, stride = self.pool_size, self.stride
        if stride < pool:
            grad_input.fill(0.0)
            for _, view in self._offsets(grad_input, out_h, out_w):
                view += share
        else:
            covered_h, covered_w = out_h * stride, out_w * stride
            tiles = (
                stride == pool
                and covered_h == input_shape[1]
                and covered_w == input_shape[2]
            )
            if not tiles:
                # the windows do not tile the input: zero the gaps between
                # them and the remainder past the last one
                grad_input[:, covered_h:].fill(0.0)
                grad_input[:, :, covered_w:].fill(0.0)
                for gap in range(pool, stride):
                    grad_input[:, gap:covered_h:stride].fill(0.0)
                    grad_input[:, :, gap:covered_w:stride].fill(0.0)
            for _, view in self._offsets(grad_input, out_h, out_w):
                np.add(share, 0.0, out=view)
        return grad_input


class MaxPool2D(_Pool2D):
    """Max pooling."""

    _transient_attrs = ("_input_shape", "_argmax")

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if x.ndim != 4:
            raise ShapeError(f"{self.name}: expected NHWC input, got shape {x.shape}")
        keep = self._keep_grad_cache(training)
        self._input_shape = x.shape if keep else None
        windows = self._windows(x)
        # The argmax map is activation-sized; skip it in pure inference.
        self._argmax = windows.argmax(axis=-1) if keep else None
        return windows.max(axis=-1)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        argmax = self._require_cache(self._argmax)
        out_h, out_w = grad_output.shape[1], grad_output.shape[2]
        grad_input = np.zeros(self._input_shape, dtype=grad_output.dtype)
        for index, view in self._offsets(grad_input, out_h, out_w):
            view += grad_output * (argmax == index)
        return grad_input


class GlobalAvgPool2D(Layer):
    """Global average pooling over the spatial dimensions."""

    _transient_attrs = ("_input_shape",)

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        return (input_shape[2],)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if x.ndim != 4:
            raise ShapeError(f"{self.name}: expected NHWC input, got shape {x.shape}")
        self._input_shape = x.shape if self._keep_grad_cache(training) else None
        return x.mean(axis=(1, 2))

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        input_shape = self._require_cache(self._input_shape)
        batch, height, width, channels = input_shape
        scale = 1.0 / (height * width)
        # broadcast-then-scale, matching the allocating expression bit for bit
        grad_input = np.empty(input_shape, dtype=grad_output.dtype)
        np.multiply(
            np.broadcast_to(grad_output[:, None, None, :], input_shape),
            scale,
            out=grad_input,
        )
        return grad_input
