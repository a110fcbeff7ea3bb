"""Optional compiled backend for the LUT-product, im2col and col2im hot loops.

The approximate-DNN reproduction keeps pure NumPy as its always-available
reference implementation; this package layers a *native* tier on top:
``cext``, a tiny C extension compiled on first use with the host's C
compiler and called through ctypes (GIL released for the whole call).

Backend choice is governed by ``REPRO_KERNEL_BACKEND``:

* ``auto`` (default) — the C extension if a compiler is available, else
  pure NumPy;
* ``cext`` — require the C extension; warn and fall back when unbuildable;
* ``numpy`` — force the reference implementations (native tier disabled).

Resolution happens once, on first use, behind a lock (the double-checked
pattern shared with :class:`repro.axnn.kernels.MultiplierKernelProfile` and
``nn/runtime.ProcessShardPool``), so first-touch compilation is
thread-safe.  ``reset_backend()`` drops the cached resolution — it is
invoked from :func:`repro.axnn.kernels.clear_profile_cache` so tests can
flip the environment variable and re-resolve.

This module must stay importable from :mod:`repro.nn.functional` without
creating a cycle, so it imports nothing from the :mod:`repro.axnn`
namespace — only stdlib, NumPy, and :mod:`repro.errors`.
"""

from __future__ import annotations

import os
import threading
import warnings
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError, ShapeError

#: environment variable selecting the kernel backend
BACKEND_ENV_VAR = "REPRO_KERNEL_BACKEND"

#: recognised values for the env var (aliases normalised first)
BACKEND_CHOICES = ("auto", "cext", "numpy")

_ALIASES = {
    "": "auto",
    "default": "auto",
    "c": "cext",
    "ctypes": "cext",
    "native": "auto",
    "reference": "numpy",
    "none": "numpy",
    "off": "numpy",
}


@dataclass(frozen=True)
class NativeBackend:
    """A resolved compiled backend: a name plus its kernel entry points.

    ``lut_matmul(codes_u8, sign_i8, mag_u8, lut, out_i64)`` accumulates the
    signed LUT product into ``out`` (all arrays C-contiguous, LUT int16 or
    int32).  ``table_matmul(codes_u8, table_i32, out_i64)`` computes the
    same product from the weight-stationary signed table ``table[k, c, n]
    = sign[k, n] * lut[c, mag[k, n]]`` (output axis zero-padded to a
    multiple of 8; the caller guarantees ``K * max|lut| < 2**31``).
    ``col2im_add(cols, out, kh, kw, stride, out_h, out_w)`` scatter-adds an
    im2col patch matrix into the pre-zeroed padded image ``out``.
    ``im2col(x_padded, cols, kh, kw, stride)`` gathers the patches of the
    padded float64 or uint8 image into ``cols`` of the same dtype (its
    shape fixes ``out_h, out_w``).
    ``bind_layer(members, k, n, n_slots, stacked)`` binds the
    :class:`FusedMember` operands of one Ax layer's native victims and
    returns ``run(codes, out)``: one call that writes every member's
    dequantized product into its row block of the group's stacked float64
    output (see :func:`check_layer_call` for the shapes).
    All are bit-identical to their NumPy references.
    """

    name: str
    lut_matmul: Callable
    table_matmul: Callable
    col2im_add: Callable
    im2col: Callable
    bind_layer: Callable


@dataclass(frozen=True)
class FusedMember:
    """One victim's operands in a fused layer call.

    The product operands are either the signed ``table`` (int32, ``(K, C,
    N padded to 8)``, see ``NativeLUTKernel``) or the LUT loop's ``sign``
    (int8, ``(K, N)``), ``mag`` (uint8, ``(K, N)``) and ``lut`` (int16 or
    int32, ``(C, C)``).  The dequantize epilogue is ``out = (acc -
    zero_point * correction) * alpha + bias``: ``correction`` is the
    int64 ``(N,)`` zero-point correction, ``alpha`` the activation scale
    times the weight scale, and ``bias`` a float64 ``(N,)`` vector or
    ``None`` (no add).  ``slot`` is the member's row block in the group's
    stacked codes and output.  The caller guarantees every code is below
    the table's (or LUT's) code count.
    """

    slot: int
    zero_point: int
    correction: np.ndarray
    alpha: float
    bias: Optional[np.ndarray] = None
    table: Optional[np.ndarray] = None
    sign: Optional[np.ndarray] = None
    mag: Optional[np.ndarray] = None
    lut: Optional[np.ndarray] = None


def _check_operand(name: str, array, dtypes, shape) -> None:
    """Raise :class:`ShapeError` unless ``array`` is a C-contiguous array of
    one of ``dtypes`` whose shape matches ``shape`` (``None`` = any)."""
    if not (
        isinstance(array, np.ndarray)
        and array.dtype in dtypes
        and array.flags["C_CONTIGUOUS"]
        and array.ndim == len(shape)
        and all(want is None or got == want for got, want in zip(array.shape, shape))
    ):
        got = getattr(array, "shape", None), getattr(array, "dtype", None)
        raise ShapeError(
            f"fused layer operand {name}: expected C-contiguous "
            f"{'/'.join(np.dtype(d).name for d in dtypes)} of shape {shape}, "
            f"got {got}"
        )


def check_layer_members(
    members: Sequence[FusedMember], k_dim: int, n_dim: int, n_slots: int
) -> None:
    """The layout checks of a fused layer call, run once when it is bound.

    Every operand must be C-contiguous with the dtype and shape the loops
    read through raw pointers, and every slot a distinct block of
    ``range(n_slots)``.
    """
    slots = [member.slot for member in members]
    if len(set(slots)) != len(slots) or any(not 0 <= s < n_slots for s in slots):
        raise ShapeError(f"fused layer slots {slots} are not distinct in [0, {n_slots})")
    for member in members:
        _check_operand("correction", member.correction, (np.int64,), (n_dim,))
        if member.bias is not None:
            _check_operand("bias", member.bias, (np.float64,), (n_dim,))
        if member.table is not None:
            _check_operand("table", member.table, (np.int32,), (k_dim, None, None))
            _, codes_total, n_pad = member.table.shape
            if n_pad < n_dim or n_pad % 8 or codes_total == 0:
                raise ShapeError(
                    f"fused layer table {member.table.shape} does not cover "
                    f"{n_dim} outputs in 8-lane blocks"
                )
            continue
        _check_operand("sign", member.sign, (np.int8,), (k_dim, n_dim))
        _check_operand("mag", member.mag, (np.uint8,), (k_dim, n_dim))
        _check_operand("lut", member.lut, (np.int16, np.int32), (None, None))
        if member.mag.size and int(member.mag.max()) >= member.lut.shape[1]:
            raise ShapeError("fused layer magnitudes exceed the LUT's columns")


def check_layer_call(
    codes: np.ndarray, out: np.ndarray, k_dim: int, n_dim: int, n_slots: int,
    stacked: bool,
) -> int:
    """The per-call checks of a fused layer call; returns the rows per member.

    ``codes`` must be a C-contiguous uint8 ``(rows, K)`` matrix shared by
    every member, or ``(n_slots * rows, K)`` when ``stacked``; ``out`` a
    C-contiguous float64 array of ``n_slots * rows * N`` values (any
    shape, e.g. NHWC).
    """
    if (
        codes.dtype != np.uint8
        or not codes.flags.c_contiguous
        or codes.ndim != 2
        or codes.shape[1] != k_dim
        or (stacked and codes.shape[0] % n_slots)
    ):
        raise ShapeError(
            f"fused layer codes must be C-contiguous uint8 (rows, {k_dim}), "
            f"got {codes.dtype} {codes.shape}"
        )
    rows = codes.shape[0] // n_slots if stacked else codes.shape[0]
    if (
        out.dtype != np.float64
        or not out.flags.c_contiguous
        or out.size != n_slots * rows * n_dim
    ):
        raise ShapeError(
            f"fused layer output must be C-contiguous float64 with "
            f"{n_slots} x {rows} x {n_dim} values, got {out.dtype} {out.shape}"
        )
    return rows


_STATE_LOCK = threading.Lock()
_RESOLVED = False
_BACKEND: Optional[NativeBackend] = None


def requested_backend() -> str:
    """The backend named by ``REPRO_KERNEL_BACKEND``, normalised.

    Raises :class:`ConfigurationError` for unrecognised values — a typo in
    the env var should fail loudly, not silently run the slow path.
    """
    raw = os.environ.get(BACKEND_ENV_VAR, "auto").strip().lower()
    choice = _ALIASES.get(raw, raw)
    if choice not in BACKEND_CHOICES:
        raise ConfigurationError(
            f"{BACKEND_ENV_VAR}={raw!r} is not a valid kernel backend; "
            f"expected one of {', '.join(BACKEND_CHOICES)}"
        )
    return choice


def _load_cext() -> NativeBackend:
    from repro.axnn.native import cext

    lib = cext.load_library()
    return NativeBackend(
        name="cext",
        lut_matmul=lambda codes, sign, mag, lut, out: cext.lut_matmul(
            lib, codes, sign, mag, lut, out
        ),
        table_matmul=lambda codes, table, out: cext.table_matmul(
            lib, codes, table, out
        ),
        col2im_add=lambda cols, out, kh, kw, stride, oh, ow: cext.col2im_add(
            lib, cols, out, kh, kw, stride, oh, ow
        ),
        im2col=lambda x_padded, cols, kh, kw, stride: cext.im2col(
            lib, x_padded, cols, kh, kw, stride
        ),
        bind_layer=lambda members, k, n, n_slots, stacked: cext.bind_layer(
            lib, members, k, n, n_slots, stacked
        ),
    )


def _resolve() -> Optional[NativeBackend]:
    choice = requested_backend()
    if choice == "numpy":
        return None
    from repro.axnn.native.cext import NativeBuildError

    try:
        return _load_cext()
    except NativeBuildError as exc:
        if choice == "cext":
            warnings.warn(
                f"{BACKEND_ENV_VAR}=cext but the C extension is "
                f"unavailable ({exc}); falling back to the pure-NumPy "
                "reference kernels",
                RuntimeWarning,
                stacklevel=3,
            )
        return None


def get_backend() -> Optional[NativeBackend]:
    """The resolved native backend, or ``None`` for pure NumPy.

    First call resolves (possibly compiling) under a lock; later calls
    return the cached result.  Safe to call from any thread.
    """
    global _RESOLVED, _BACKEND
    if _RESOLVED:
        return _BACKEND
    with _STATE_LOCK:
        if not _RESOLVED:
            _BACKEND = _resolve()
            _RESOLVED = True
    return _BACKEND


def reset_backend() -> None:
    """Forget the resolved backend so the next use re-reads the env var."""
    global _RESOLVED, _BACKEND
    with _STATE_LOCK:
        _RESOLVED = False
        _BACKEND = None


def backend_name() -> str:
    """Resolved backend name: ``cext`` or ``numpy``."""
    backend = get_backend()
    return backend.name if backend is not None else "numpy"


def native_fingerprint() -> dict:
    """Backend facts for :func:`repro.benchmarking.report.env_fingerprint`.

    Records both the request (env var) and the resolution, so recorded
    baselines can never silently mix kernel backends.
    """
    try:
        resolved = backend_name()
    except ConfigurationError:
        resolved = "invalid"
    return {
        "kernel_backend": resolved,
        "kernel_backend_env": os.environ.get(BACKEND_ENV_VAR, "auto"),
    }


__all__ = [
    "BACKEND_CHOICES",
    "BACKEND_ENV_VAR",
    "FusedMember",
    "NativeBackend",
    "backend_name",
    "check_layer_call",
    "check_layer_members",
    "get_backend",
    "native_fingerprint",
    "requested_backend",
    "reset_backend",
]
