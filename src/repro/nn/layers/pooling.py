"""Average pooling layer (NHWC layout).

``AvgPool2D`` sums its window offsets as strided slices of the input, which
reproduces NumPy's ``mean`` reduce bit for bit: below eight elements that
reduce is a sequential sum seeded with ``+0.0``.  At nine or more elements
(``pool_size >= 3``) NumPy switches to an 8-lane pairwise sum that a
sequential loop does not reproduce, so the layer takes windows of at most
2 x 2 — all the paper's LeNet-5 and AlexNet use.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError, ShapeError
from repro.nn.functional import conv_output_size
from repro.nn.layers.base import Layer


class AvgPool2D(Layer):
    """Average pooling, as used by the paper's LeNet-5 and AlexNet variants.

    The forward pass adds the window offsets into one output buffer,
    ``(((+0.0 + w00) + w01) + w10) + w11``, then divides by the window
    size: NumPy's own order for a ``mean`` over fewer than eight elements,
    so the result is bit-identical to stacking the windows and reducing
    them — without the stack.  The ``+0.0`` seed is load-bearing: a window
    of ``-0.0`` averages to ``+0.0``.  ``pool_size`` above 2 raises
    :class:`ConfigurationError` (see the module docstring).

    When windows do not overlap (``stride >= pool_size``) the backward pass
    writes each offset's share of the gradient once, as ``share + 0.0`` —
    the bits of adding it to a zero-filled gradient, ``-0.0`` included —
    and zeroes only the input rows and columns no window covers.
    Overlapping pools accumulate into a zero-filled gradient.
    """

    _transient_attrs = ("_input_shape",)

    def __init__(
        self, pool_size: int = 2, stride: Optional[int] = None, name: Optional[str] = None
    ) -> None:
        super().__init__(name)
        if not 0 < pool_size <= 2:
            raise ConfigurationError(f"pool_size must be 1 or 2, got {pool_size}")
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

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if x.ndim != 4:
            raise ShapeError(f"{self.name}: expected NHWC input, got shape {x.shape}")
        self._input_shape = x.shape if self._keep_grad_cache(training) else None
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
