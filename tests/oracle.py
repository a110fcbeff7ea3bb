"""Slow reference implementations the fast paths are checked against.

Each function here is the plainest spelling of an operation whose
production version was rewritten for speed.  The production code must
match these bit for bit; tests import them instead of comparing a fast path
with itself.  Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

import numpy as np


def _out_size(size: int, kernel: int, stride: int, padding: int) -> int:
    return (size + 2 * padding - kernel) // stride + 1


def im2col_reference(x, kernel_h, kernel_w, stride, padding):
    """Patch extraction as ``kernel_h * kernel_w`` strided slice copies.

    Same output layout as :func:`repro.nn.functional.im2col`:
    ``(N, OH, OW, kernel_h * kernel_w * C)``, last axis ordered
    kernel-row-major then channel.
    """
    batch, height, width, channels = x.shape
    out_h = _out_size(height, kernel_h, stride, padding)
    out_w = _out_size(width, kernel_w, stride, padding)
    x_padded = np.pad(
        x, ((0, 0), (padding, padding), (padding, padding), (0, 0)), mode="constant"
    )
    cols = np.empty(
        (batch, out_h, out_w, kernel_h * kernel_w * channels), dtype=x.dtype
    )
    for i in range(kernel_h):
        for j in range(kernel_w):
            offset = (i * kernel_w + j) * channels
            cols[..., offset : offset + channels] = x_padded[
                :, i : i + out_h * stride : stride, j : j + out_w * stride : stride, :
            ]
    return cols


def col2im_reference(cols, input_shape, kernel_h, kernel_w, stride, padding):
    """The scatter-add adjoint of :func:`im2col_reference`.

    Contributions are added in ascending kernel-offset order, the order the
    compiled scatter-add and the NumPy fallback of
    :func:`repro.nn.functional.col2im` must reproduce.
    """
    batch, height, width, channels = input_shape
    out_h = cols.shape[1]
    out_w = cols.shape[2]
    x_padded = np.zeros(
        (batch, height + 2 * padding, width + 2 * padding, channels),
        dtype=cols.dtype,
    )
    for i in range(kernel_h):
        for j in range(kernel_w):
            offset = (i * kernel_w + j) * channels
            x_padded[
                :, i : i + out_h * stride : stride, j : j + out_w * stride : stride, :
            ] += cols[..., offset : offset + channels]
    if padding == 0:
        return x_padded
    return x_padded[:, padding:-padding, padding:-padding, :]


def _pool_windows(x, pool_size, stride):
    """Pooling windows stacked along a new last axis: (N, OH, OW, C, k*k)."""
    batch, height, width, channels = x.shape
    out_h = _out_size(height, pool_size, stride, 0)
    out_w = _out_size(width, pool_size, stride, 0)
    windows = np.empty(
        (batch, out_h, out_w, channels, pool_size * pool_size), dtype=x.dtype
    )
    for i in range(pool_size):
        for j in range(pool_size):
            windows[..., i * pool_size + j] = x[
                :, i : i + out_h * stride : stride, j : j + out_w * stride : stride, :
            ]
    return windows


def avg_pool_reference(x, pool_size, stride):
    """Average pooling as a ``mean`` over the stacked windows.

    :class:`repro.nn.layers.AvgPool2D` must return these bits for every
    pool size and stride, whatever order NumPy's reduce adds in.
    """
    return _pool_windows(x, pool_size, stride).mean(axis=-1)


def avg_pool_backward_reference(grad_output, input_shape, pool_size, stride):
    """Average-pooling gradient: each window's share added into zeros."""
    out_h, out_w = grad_output.shape[1], grad_output.shape[2]
    grad_input = np.zeros(input_shape, dtype=grad_output.dtype)
    share = grad_output / (pool_size * pool_size)
    for i in range(pool_size):
        for j in range(pool_size):
            grad_input[
                :, i : i + out_h * stride : stride, j : j + out_w * stride : stride, :
            ] += share
    return grad_input
