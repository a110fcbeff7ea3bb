"""Optional compiled backend for the LUT-product, im2col and col2im hot loops.

The approximate-DNN reproduction keeps pure NumPy as its always-available
reference implementation; this package layers a *native* tier on top:

* ``numba_backend`` — njit kernels, used when Numba is importable;
* ``cext`` — a tiny C extension compiled on first use with the host's C
  compiler and called through ctypes (GIL released for the whole call).

Backend choice is governed by ``REPRO_KERNEL_BACKEND``:

* ``auto`` (default) — Numba if importable, else the C extension if a
  compiler is available, else pure NumPy;
* ``numba`` — require Numba; warn and fall back to NumPy when absent;
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
from typing import Callable, Optional

from repro.errors import ConfigurationError

#: environment variable selecting the kernel backend
BACKEND_ENV_VAR = "REPRO_KERNEL_BACKEND"

#: recognised values for the env var (aliases normalised first)
BACKEND_CHOICES = ("auto", "numba", "cext", "numpy")

_ALIASES = {
    "": "auto",
    "default": "auto",
    "jit": "numba",
    "c": "cext",
    "ctypes": "cext",
    "native": "auto",
    "reference": "numpy",
    "none": "numpy",
    "off": "numpy",
}


@dataclass(frozen=True)
class NativeBackend:
    """A resolved compiled backend: a name plus the four kernel entry points.

    ``lut_matmul(codes_u8, sign_i8, mag_u8, lut, out_i64)`` accumulates the
    signed LUT product into ``out`` (all arrays C-contiguous, LUT int16 or
    int32).  ``table_matmul(codes_u8, table_i32, out_i64)`` computes the
    same product from the weight-stationary signed table ``table[k, c, n]
    = sign[k, n] * lut[c, mag[k, n]]`` (output axis zero-padded to a
    multiple of 8; the caller guarantees ``K * max|lut| < 2**31``).
    ``col2im_add(cols, out, kh, kw, stride, out_h, out_w)`` scatter-adds an
    im2col patch matrix into the pre-zeroed padded image ``out``.
    ``im2col(x_padded, cols, kh, kw, stride)`` gathers the patches of the
    padded float64 image into ``cols`` (its shape fixes ``out_h, out_w``).
    All are bit-identical to their NumPy references.
    """

    name: str
    lut_matmul: Callable
    table_matmul: Callable
    col2im_add: Callable
    im2col: Callable


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


def _load_numba() -> NativeBackend:
    from repro.axnn.native import numba_backend

    return NativeBackend(
        name="numba",
        lut_matmul=numba_backend.lut_matmul,
        table_matmul=numba_backend.table_matmul,
        col2im_add=numba_backend.col2im_add,
        im2col=numba_backend.im2col,
    )


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
    )


def _resolve() -> Optional[NativeBackend]:
    choice = requested_backend()
    if choice == "numpy":
        return None
    if choice in ("auto", "numba"):
        try:
            return _load_numba()
        except ImportError:
            if choice == "numba":
                warnings.warn(
                    f"{BACKEND_ENV_VAR}=numba but Numba is not importable; "
                    "falling back to the pure-NumPy reference kernels",
                    RuntimeWarning,
                    stacklevel=3,
                )
                return None
    # choice is "cext", or "auto" with Numba unavailable
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
    """Resolved backend name: ``numba``, ``cext`` or ``numpy``."""
    backend = get_backend()
    return backend.name if backend is not None else "numpy"


def native_fingerprint() -> dict:
    """Backend facts for :func:`repro.benchmarking.report.env_fingerprint`.

    Records both the request (env var) and the resolution, plus the Numba
    version when present, so recorded baselines can never silently mix
    kernel backends.
    """
    try:
        resolved = backend_name()
    except ConfigurationError:
        resolved = "invalid"
    try:
        import numba  # type: ignore

        numba_version = numba.__version__
    except ImportError:
        numba_version = "absent"
    return {
        "kernel_backend": resolved,
        "kernel_backend_env": os.environ.get(BACKEND_ENV_VAR, "auto"),
        "numba": numba_version,
    }


__all__ = [
    "BACKEND_CHOICES",
    "BACKEND_ENV_VAR",
    "NativeBackend",
    "backend_name",
    "get_backend",
    "native_fingerprint",
    "requested_backend",
    "reset_backend",
]
