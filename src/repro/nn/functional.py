"""Low-level tensor operations shared by the layers.

All image tensors use the NHWC layout ``(batch, height, width, channels)``.
``im2col`` and ``col2im``, its scatter-add adjoint, each run as one compiled
pass when a native backend resolved (see :mod:`repro.axnn.native`) and the
arrays are C-contiguous float64 (``im2col`` also takes the Ax layers' uint8
code images).  Otherwise ``im2col`` gathers every patch in one strided copy
from a sliding-window view, and ``col2im`` loops over the
``kh * kw`` kernel offsets.  Both copy or sum the same elements in a fixed
order, so every path is bit-identical to the slice-loop references kept in
the tests.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.errors import ShapeError


def _native_backend(*arrays: np.ndarray, dtypes=(np.float64,)):
    """The resolved compiled backend when every array is C-contiguous and
    all share one dtype from ``dtypes``.

    ``None`` when any array does not fit the kernels' layout contract or
    no backend resolved; callers then take their NumPy spelling.
    """
    dtype = arrays[0].dtype
    if dtype not in dtypes or not all(
        a.dtype == dtype and a.flags["C_CONTIGUOUS"] for a in arrays
    ):
        return None
    # imported lazily: repro.axnn.native depends only on numpy and
    # repro.errors, so this cannot cycle back into repro.nn
    from repro.axnn.native import get_backend

    return get_backend()


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution/pooling dimension."""
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ShapeError(
            f"non-positive output size for input={size}, kernel={kernel}, "
            f"stride={stride}, padding={padding}"
        )
    return out


def im2col(
    x: np.ndarray,
    kernel_h: int,
    kernel_w: int,
    stride: int,
    padding: int,
    pad_value=0.0,
) -> np.ndarray:
    """Extract convolution patches from an NHWC tensor.

    Returns an array of shape ``(N, OH, OW, kernel_h * kernel_w * C)`` whose
    last axis is ordered kernel-row-major then channel (matching the weight
    flattening used by :class:`repro.nn.layers.conv.Conv2D`).  The compiled
    backend copies one contiguous run of ``kernel_w * C`` values per patch
    row of a float64 or uint8 image; without it (or for strided arrays or
    other dtypes) the patch matrix is materialised in one
    multi-dimensional strided copy from a sliding-window view of the
    (padded) input.

    With ``padding > 0`` the input is first copied into a fresh padded
    image whose four border bands are filled with ``pad_value`` (zero for
    float images; the Ax-layers gather activation codes and pad with the
    scheme's zero point) — cheaper than ``np.pad`` and the same values.
    """
    if x.ndim != 4:
        raise ShapeError(f"im2col expects an NHWC tensor, got shape {x.shape}")
    batch, height, width, channels = x.shape
    out_h = conv_output_size(height, kernel_h, stride, padding)
    out_w = conv_output_size(width, kernel_w, stride, padding)
    cols = np.empty(
        (batch, out_h, out_w, kernel_h * kernel_w * channels), dtype=x.dtype
    )
    if padding == 0:
        x_padded = x
    else:
        pad = padding
        x_padded = np.empty(
            (batch, height + 2 * pad, width + 2 * pad, channels), dtype=x.dtype
        )
        x_padded[:, :pad].fill(pad_value)
        x_padded[:, -pad:].fill(pad_value)
        x_padded[:, pad:-pad, :pad].fill(pad_value)
        x_padded[:, pad:-pad, -pad:].fill(pad_value)
        np.copyto(x_padded[:, pad:-pad, pad:-pad, :], x)
    backend = _native_backend(x_padded, cols, dtypes=(np.float64, np.uint8))
    if backend is not None:
        backend.im2col(x_padded, cols, kernel_h, kernel_w, stride)
    else:
        im2col_windows(x_padded, cols, kernel_h, kernel_w, stride)
    return cols


def im2col_windows(
    x_padded: np.ndarray, cols: np.ndarray, kernel_h: int, kernel_w: int, stride: int
) -> None:
    """The NumPy patch gather: one strided copy from a sliding-window view.

    Fills ``cols`` (shape ``(N, OH, OW, kernel_h * kernel_w * C)``) from the
    already padded image, exactly as the compiled backend's ``im2col`` does.
    """
    batch, out_h, out_w, _ = cols.shape
    channels = x_padded.shape[3]
    windows = np.lib.stride_tricks.sliding_window_view(
        x_padded, (kernel_h, kernel_w), axis=(1, 2)
    )[:, ::stride, ::stride]
    # target layout of the last cols axis is (kernel row, kernel col,
    # channel); the window view carries (channel, kernel row, kernel col)
    np.copyto(
        cols.reshape(batch, out_h, out_w, kernel_h, kernel_w, channels),
        windows.transpose(0, 1, 2, 4, 5, 3),
    )


def col2im(
    cols: np.ndarray,
    input_shape: Tuple[int, int, int, int],
    kernel_h: int,
    kernel_w: int,
    stride: int,
    padding: int,
) -> np.ndarray:
    """Scatter-add patches back into an NHWC tensor (the adjoint of im2col).

    The patches are added into a zero-filled padded image, and the
    returned array is the unpadded view into it.  When a compiled backend
    resolved (see :mod:`repro.axnn.native`) and ``cols`` is C-contiguous
    float64 — as the conv layer's backward always hands in — the
    scatter-add runs as one native pass over the padded image instead of
    ``kh * kw`` strided read-modify-write sweeps.  The native formulation
    adds each output element's contributions in the same ascending
    kernel-offset order as the loop below, so the result is bit-identical.
    """
    batch, height, width, channels = input_shape
    out_h = conv_output_size(height, kernel_h, stride, padding)
    out_w = conv_output_size(width, kernel_w, stride, padding)
    expected = (batch, out_h, out_w, kernel_h * kernel_w * channels)
    if cols.shape != expected:
        raise ShapeError(f"col2im expects shape {expected}, got {cols.shape}")
    x_padded = np.zeros(
        (batch, height + 2 * padding, width + 2 * padding, channels),
        dtype=cols.dtype,
    )
    backend = _native_backend(cols, x_padded)
    if backend is not None:
        backend.col2im_add(
            cols, x_padded, kernel_h, kernel_w, stride, out_h, out_w
        )
    else:
        for i in range(kernel_h):
            for j in range(kernel_w):
                offset = (i * kernel_w + j) * channels
                x_padded[
                    :,
                    i : i + out_h * stride : stride,
                    j : j + out_w * stride : stride,
                    :,
                ] += cols[..., offset : offset + channels]
    if padding == 0:
        return x_padded
    return x_padded[:, padding:-padding, padding:-padding, :]


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax."""
    shifted = logits - np.max(logits, axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / np.sum(exp, axis=axis, keepdims=True)


def log_softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable log-softmax."""
    shifted = logits - np.max(logits, axis=axis, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))


def softmax_cross_entropy(
    logits: np.ndarray, targets: np.ndarray
) -> Tuple[float, np.ndarray]:
    """Fused softmax cross-entropy: loss value and logits gradient together.

    One shifted-exp pass replaces the three the unfused pair pays
    (``log_softmax`` for the value, ``softmax`` + ``one_hot`` for the
    gradient), and the results are bit-identical to
    ``CrossEntropyLoss.value``/``gradient``: the same float64 operations run
    in the same order per element — ``x - 0.0`` is exact, so subtracting the
    one-hot target is realised as a fancy-indexed decrement, and dividing
    after the subtraction preserves the unfused ``(probs - one_hot) / n``
    rounding.  The returned value is ``-sum(log p_target) / n``.
    """
    if logits.ndim != 2:
        raise ShapeError(f"logits must be 2-D (N, classes), got {logits.shape}")
    targets = np.asarray(targets, dtype=np.int64)
    if targets.ndim != 1 or targets.shape[0] != logits.shape[0]:
        raise ShapeError(
            f"targets must be a length-{logits.shape[0]} vector, got {targets.shape}"
        )
    n, num_classes = logits.shape
    if np.any(targets < 0) or np.any(targets >= num_classes):
        raise ShapeError(f"labels must lie in [0, {num_classes - 1}]")
    shifted = logits - np.max(logits, axis=-1, keepdims=True)
    exp = np.exp(shifted)
    sum_exp = np.sum(exp, axis=-1, keepdims=True)
    rows = np.arange(n)
    picked = shifted[rows, targets] - np.log(sum_exp)[rows, 0]
    value = float(-(picked.sum() / n))
    grad = np.divide(exp, sum_exp, out=exp)
    grad[rows, targets] -= 1.0
    np.divide(grad, n, out=grad)
    return value, grad


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """One-hot encode an integer label vector."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1:
        raise ShapeError(f"labels must be a 1-D vector, got shape {labels.shape}")
    if np.any(labels < 0) or np.any(labels >= num_classes):
        raise ShapeError(f"labels must lie in [0, {num_classes - 1}]")
    encoded = np.zeros((labels.shape[0], num_classes), dtype=np.float64)
    encoded[np.arange(labels.shape[0]), labels] = 1.0
    return encoded
