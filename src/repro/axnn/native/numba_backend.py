"""Numba njit mirrors of the C kernels in ``kernels.c``.

Importing this module raises :class:`ImportError` when Numba is absent; the
backend resolver (:mod:`repro.axnn.native`) catches that and falls through
to the ctypes/C backend or the NumPy reference.  The kernels are compiled
lazily on first call (``cache=True`` persists the machine code in Numba's
on-disk cache) and run with ``nogil=True``, releasing the GIL like the
ctypes path.

The loop structure intentionally mirrors ``kernels.c`` line for line —
one LUT loop and one table loop, each storing either the int64
accumulator or the dequantize epilogue of the fused layer call;
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

from repro.axnn.native import check_layer_call, check_layer_members

#: column-block width, matching LUT_MATMUL_NB in kernels.c
_BLOCK = 128

#: lanes of one table row add, matching TABLE_MATMUL_LANES in kernels.c
_LANES = 8


#: stand-ins for the output a loop does not write: the float output when it
#: stores int64 accumulators, the accumulator output under the epilogue
_NO_ACC = np.zeros((0, 0), dtype=np.int64)
_NO_OUT = np.zeros((0, 0), dtype=np.float64)
_NO_BIAS = np.zeros(0, dtype=np.float64)
_NO_CORRECTION = np.zeros(0, dtype=np.int64)


@njit(cache=True, nogil=True)
def _store(acc_out, out, m, n, acc, epilogue, zero_point, corr, alpha, bias,
           has_bias):  # pragma: no cover - jitted
    # store_result in kernels.c: the raw accumulator, or the dequantize
    # epilogue (one int64 -> float64 conversion, multiply, add)
    if epilogue:
        value = np.float64(acc - zero_point * corr[n]) * alpha
        if has_bias:
            value += bias[n]
        out[m, n] = value
    else:
        acc_out[m, n] = acc


@njit(cache=True, nogil=True)
def _lut_rows(codes, sign, mag, lut, acc_out, out, epilogue, zero_point, corr,
              alpha, bias, has_bias):  # pragma: no cover - jitted
    m_dim, k_dim = codes.shape
    n_dim = sign.shape[1]
    acc = np.empty(_BLOCK, dtype=np.int64)
    for n0 in range(0, n_dim, _BLOCK):
        n1 = min(n0 + _BLOCK, n_dim)
        for m in range(m_dim):
            for j in range(n1 - n0):
                acc[j] = 0
            for k in range(k_dim):
                code = codes[m, k]
                for j in range(n0, n1):
                    acc[j - n0] += sign[k, j] * lut[code, mag[k, j]]
            for j in range(n0, n1):
                _store(acc_out, out, m, j, acc[j - n0], epilogue, zero_point,
                       corr, alpha, bias, has_bias)


@njit(cache=True, nogil=True)
def _table_rows(codes, table, n_dim, acc_out, out, epilogue, zero_point, corr,
                alpha, bias, has_bias):  # pragma: no cover - jitted
    m_dim, k_dim = codes.shape
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
                _store(acc_out, out, m, n0 + j, np.int64(acc[j]), epilogue,
                       zero_point, corr, alpha, bias, has_bias)


def lut_matmul(codes, sign, mag, lut, out):
    _lut_rows(codes, sign, mag, lut, out, _NO_OUT, False, 0, _NO_CORRECTION,
              1.0, _NO_BIAS, False)
    return out


def table_matmul(codes, table, out):
    _table_rows(codes, table, out.shape[1], out, _NO_OUT, False, 0,
                _NO_CORRECTION, 1.0, _NO_BIAS, False)
    return out


def bind_layer(members, k_dim, n_dim, n_slots, stacked):
    """The fused layer call of ``members``: a Python loop over the members
    around one jitted product-and-epilogue call each (``repro_layer_f64`` in
    ``kernels.c`` is the same loop in C)."""
    check_layer_members(members, k_dim, n_dim, n_slots)
    bound = [
        (
            member.slot,
            member.table,
            (member.sign, member.mag, member.lut),
            (
                int(member.zero_point),
                member.correction,
                float(member.alpha),
                _NO_BIAS if member.bias is None else member.bias,
                member.bias is not None,
            ),
        )
        for member in members
    ]

    def run(codes, out):
        rows = check_layer_call(codes, out, k_dim, n_dim, n_slots, stacked)
        blocks = out.reshape(n_slots * rows, n_dim)
        for slot, table, lut_operands, epilogue in bound:
            member_codes = codes[slot * rows : (slot + 1) * rows] if stacked else codes
            block = blocks[slot * rows : (slot + 1) * rows]
            if table is not None:
                _table_rows(member_codes, table, n_dim, _NO_ACC, block, True,
                            *epilogue)
            else:
                _lut_rows(member_codes, *lut_operands, _NO_ACC, block, True,
                          *epilogue)

    return run


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
