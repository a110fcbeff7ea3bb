"""Build-and-load machinery for the tiny C kernel extension.

``kernels.c`` (next to this module) is compiled on first use with whatever C
compiler the host offers (``cc``/``gcc``/``clang``, ``-O3 -shared``) into a
shared object cached under ``$REPRO_NATIVE_CACHE`` (default
``~/.cache/repro/native``).  The cache file name embeds a hash of the C
source, so editing the kernels invalidates stale builds and concurrent
processes converge on one artifact; the build itself writes to a temporary
name and ``os.replace``s it into place, so a crashed compile can never leave
a torn library behind.

The loaded functions are plain ``ctypes`` foreign calls: ctypes drops the
GIL for the duration of each call, which is what lets the threaded inference
runtime (:mod:`repro.nn.runtime`) shard batches over these kernels with real
parallelism — the property the scipy.sparse path never had.

Everything degrades cleanly: no compiler, a failing compile, or an
unloadable artifact raise :class:`NativeBuildError`, which the backend
resolver (:mod:`repro.axnn.native`) turns into a fall-back to the NumPy
reference implementations.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from typing import Optional

import numpy as np
from numpy.ctypeslib import ndpointer

from repro.errors import ShapeError

#: environment variable overriding where compiled kernels are cached
CACHE_ENV_VAR = "REPRO_NATIVE_CACHE"

#: compilers probed in order; the first one present on PATH is used
_COMPILERS = ("cc", "gcc", "clang")

#: optimisation flags — deliberately *without* -ffast-math: C forbids
#: reassociating float additions at -O3, which is load-bearing for the
#: col2im kernel's bit-identity with the NumPy reference loop
_CFLAGS = ("-O3", "-fPIC", "-shared", "-std=c99")

_SOURCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "kernels.c")


class NativeBuildError(RuntimeError):
    """The C kernel library could not be built or loaded on this host."""


def _i8(flags="C_CONTIGUOUS"):
    return ndpointer(dtype=np.int8, flags=flags)


def _u8(flags="C_CONTIGUOUS"):
    return ndpointer(dtype=np.uint8, flags=flags)


def cache_dir() -> str:
    """Directory holding compiled kernel libraries."""
    override = os.environ.get(CACHE_ENV_VAR)
    if override:
        return override
    return os.path.join(os.path.expanduser("~"), ".cache", "repro", "native")


def _source_digest() -> str:
    with open(_SOURCE_PATH, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()[:16]


def find_compiler() -> Optional[str]:
    """Path of the first available C compiler, or ``None``."""
    for name in _COMPILERS:
        path = shutil.which(name)
        if path:
            return path
    return None


def build_library() -> str:
    """Compile (or reuse) the kernel shared object; returns its path.

    Raises :class:`NativeBuildError` when no compiler exists or the compile
    fails.  The build is atomic (temp file + ``os.replace``), so concurrent
    first-touch builds in separate processes race benignly: both produce the
    same bytes for the same source hash and the last rename wins.
    """
    directory = cache_dir()
    library = os.path.join(directory, f"repro_kernels_{_source_digest()}.so")
    if os.path.exists(library):
        return library
    compiler = find_compiler()
    if compiler is None:
        raise NativeBuildError(
            f"no C compiler found (tried {', '.join(_COMPILERS)})"
        )
    os.makedirs(directory, exist_ok=True)
    fd, temp_path = tempfile.mkstemp(suffix=".so", dir=directory)
    os.close(fd)
    try:
        proc = subprocess.run(
            [compiler, *_CFLAGS, "-o", temp_path, _SOURCE_PATH],
            capture_output=True,
            text=True,
            timeout=120,
        )
        if proc.returncode != 0:
            raise NativeBuildError(
                f"{compiler} failed (exit {proc.returncode}): "
                f"{proc.stderr.strip()[:500]}"
            )
        os.replace(temp_path, library)
    except (OSError, subprocess.SubprocessError) as exc:
        raise NativeBuildError(f"compiling native kernels failed: {exc}") from exc
    finally:
        if os.path.exists(temp_path):
            try:
                os.unlink(temp_path)
            except OSError:  # pragma: no cover - best-effort cleanup
                pass
    return library


def load_library(path: Optional[str] = None) -> ctypes.CDLL:
    """Load the compiled library and declare every kernel's signature."""
    if path is None:
        path = build_library()
    try:
        lib = ctypes.CDLL(path)
    except OSError as exc:
        raise NativeBuildError(f"loading {path} failed: {exc}") from exc
    i64 = ctypes.c_int64
    for suffix, lut_dtype in (("i16", np.int16), ("i32", np.int32)):
        fn = getattr(lib, f"repro_lut_matmul_{suffix}")
        fn.restype = None
        fn.argtypes = [
            _u8(),  # codes (M, K)
            _i8(),  # sign (K, N)
            _u8(),  # mag (K, N)
            ndpointer(dtype=lut_dtype, flags="C_CONTIGUOUS"),  # lut (C, C)
            i64, i64, i64, i64,  # m, k, n, lut_cols
            ndpointer(dtype=np.int64, flags="C_CONTIGUOUS,WRITEABLE"),  # out
        ]
    table = lib.repro_table_matmul_i32
    table.restype = None
    table.argtypes = [
        _u8(),  # codes (M, K)
        ndpointer(dtype=np.int32, flags="C_CONTIGUOUS"),  # table (K, C, n_pad)
        i64, i64, i64, i64, i64,  # m, k, n, codes_total, n_pad
        ndpointer(dtype=np.int64, flags="C_CONTIGUOUS,WRITEABLE"),  # out
    ]
    col2im = lib.repro_col2im_f64
    col2im.restype = None
    col2im.argtypes = [
        ndpointer(dtype=np.float64, flags="C_CONTIGUOUS"),  # cols
        i64, i64, i64,  # batch, out_h, out_w
        i64, i64, i64, i64,  # kh, kw, channels, stride
        i64, i64,  # padded_h, padded_w
        ndpointer(dtype=np.float64, flags="C_CONTIGUOUS,WRITEABLE"),  # out
    ]
    gather = lib.repro_im2col_f64
    gather.restype = None
    gather.argtypes = [
        ndpointer(dtype=np.float64, flags="C_CONTIGUOUS"),  # padded image
        i64, i64, i64, i64,  # batch, padded_h, padded_w, channels
        i64, i64, i64,  # kh, kw, stride
        i64, i64,  # out_h, out_w
        ndpointer(dtype=np.float64, flags="C_CONTIGUOUS,WRITEABLE"),  # cols
    ]
    return lib


def lut_matmul(lib: ctypes.CDLL, codes, sign, mag, lut, out) -> None:
    """Dispatch the LUT matmul to the i16 or i32 entry point by LUT dtype."""
    m, k = codes.shape
    n = out.shape[1]
    if lut.dtype == np.int16:
        fn = lib.repro_lut_matmul_i16
    else:
        fn = lib.repro_lut_matmul_i32
    fn(codes, sign, mag, lut, m, k, n, lut.shape[1], out)


def table_matmul(lib: ctypes.CDLL, codes, table, out) -> None:
    """Accumulate ``out[m, n] = sum_k table[k, codes[m, k], n]``."""
    m, k = codes.shape
    _, codes_total, n_pad = table.shape
    lib.repro_table_matmul_i32(
        codes, table, m, k, out.shape[1], codes_total, n_pad, out
    )


def col2im_add(lib: ctypes.CDLL, cols, out, kernel_h, kernel_w, stride,
               out_h, out_w) -> None:
    """Scatter-add ``cols`` into the pre-zeroed padded image ``out``."""
    batch, padded_h, padded_w, channels = out.shape
    lib.repro_col2im_f64(
        cols, batch, out_h, out_w, kernel_h, kernel_w, channels, stride,
        padded_h, padded_w, out,
    )


def im2col(lib: ctypes.CDLL, x_padded, cols, kernel_h, kernel_w, stride) -> None:
    """Gather the patches of the padded image ``x_padded`` into ``cols``.

    Raises :class:`ShapeError` unless every patch lies inside the image and
    ``cols`` holds exactly one patch row per output pixel — the C loop reads
    and writes through raw pointers.
    """
    batch, padded_h, padded_w, channels = x_padded.shape
    _, out_h, out_w, patch = cols.shape
    if (
        cols.shape[0] != batch
        or patch != kernel_h * kernel_w * channels
        or (out_h - 1) * stride + kernel_h > padded_h
        or (out_w - 1) * stride + kernel_w > padded_w
    ):
        raise ShapeError(
            f"im2col: cols {cols.shape} does not match image {x_padded.shape} "
            f"with a {kernel_h}x{kernel_w} kernel at stride {stride}"
        )
    lib.repro_im2col_f64(
        x_padded, batch, padded_h, padded_w, channels, kernel_h, kernel_w,
        stride, out_h, out_w, cols,
    )
