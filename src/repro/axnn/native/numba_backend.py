"""Numba njit mirrors of the C kernels in ``kernels.c``.

Importing this module raises :class:`ImportError` when Numba is absent; the
backend resolver (:mod:`repro.axnn.native`) catches that and falls through
to the ctypes/C backend or the NumPy reference.  The kernels are compiled
lazily on first call (``cache=True`` persists the machine code in Numba's
on-disk cache) and run with ``nogil=True``, releasing the GIL like the
ctypes path.

The loop structure intentionally mirrors ``kernels.c`` line for line —
int64 accumulation for the LUT matmul (order-independent, hence exact; the
``sign * lut`` product itself cannot overflow the LUT dtype because sign is
in {-1, 0, 1} and the packer rejects tables with |value| >= 2**31), int32
accumulation for the table matmul (exact because the caller only builds a
table when ``K * max|lut| < 2**31``) and
ascending (i, j) per-element addition order for col2im (which is what makes
the float path bit-identical to the NumPy reference loop); im2col is a pure
copy, bit-identical in any order.
"""

from __future__ import annotations

import numba  # noqa: F401 - presence check; ImportError gates this backend
import numpy as np
from numba import njit

#: column-block width, matching LUT_MATMUL_NB in kernels.c
_BLOCK = 128

#: lanes of one table row add, matching TABLE_MATMUL_LANES in kernels.c
_LANES = 8


@njit(cache=True, nogil=True)
def lut_matmul(codes, sign, mag, lut, out):  # pragma: no cover - jitted
    m_dim, k_dim = codes.shape
    n_dim = out.shape[1]
    for n0 in range(0, n_dim, _BLOCK):
        n1 = min(n0 + _BLOCK, n_dim)
        for m in range(m_dim):
            for j in range(n0, n1):
                out[m, j] = 0
            for k in range(k_dim):
                code = codes[m, k]
                for j in range(n0, n1):
                    out[m, j] += sign[k, j] * lut[code, mag[k, j]]
    return out


@njit(cache=True, nogil=True)
def table_matmul(codes, table, out):  # pragma: no cover - jitted
    m_dim, k_dim = codes.shape
    n_dim = out.shape[1]
    n_pad = table.shape[2]
    acc = np.empty(_LANES, dtype=np.int32)
    for m in range(m_dim):
        for n0 in range(0, n_pad, _LANES):
            for j in range(_LANES):
                acc[j] = 0
            for k in range(k_dim):
                code = codes[m, k]
                for j in range(_LANES):
                    acc[j] += table[k, code, n0 + j]
            nb = min(n_dim - n0, _LANES)
            for j in range(nb):
                out[m, n0 + j] = acc[j]
    return out


@njit(cache=True, nogil=True)
def col2im_add(cols, out, kernel_h, kernel_w, stride, out_h, out_w):
    # pragma: no cover - jitted
    batch, padded_h, padded_w, channels = out.shape
    for b in range(batch):
        for hp in range(padded_h):
            for i in range(kernel_h):
                oh_num = hp - i
                if oh_num < 0 or oh_num % stride:
                    continue
                oh = oh_num // stride
                if oh >= out_h:
                    continue
                for wp in range(padded_w):
                    for j in range(kernel_w):
                        ow_num = wp - j
                        if ow_num < 0 or ow_num % stride:
                            continue
                        ow = ow_num // stride
                        if ow >= out_w:
                            continue
                        base = (i * kernel_w + j) * channels
                        for c in range(channels):
                            out[b, hp, wp, c] += cols[b, oh, ow, base + c]
    return out


@njit(cache=True, nogil=True)
def im2col(x_padded, cols, kernel_h, kernel_w, stride):  # pragma: no cover - jitted
    batch, out_h, out_w, _ = cols.shape
    channels = x_padded.shape[3]
    run = kernel_w * channels
    for b in range(batch):
        for oh in range(out_h):
            for ow in range(out_w):
                for i in range(kernel_h):
                    base = i * run
                    for j in range(kernel_w):
                        for c in range(channels):
                            cols[b, oh, ow, base + j * channels + c] = x_padded[
                                b, oh * stride + i, ow * stride + j, c
                            ]
    return cols


def numba_version() -> str:
    """Version string of the Numba runtime backing these kernels."""
    return numba.__version__
