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
GIL for the duration of each call, so other threads (the service's job and
query threads, the event loop) keep running while a kernel, or a whole
compiled panel pass, does.

Everything degrades cleanly: no compiler, an unusable cache directory, a
failing compile, or an unloadable artifact raise :class:`NativeBuildError`,
which the backend resolver (:mod:`repro.axnn.native`) turns into a
fall-back to the NumPy reference implementations.
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

from repro.axnn.native import (
    PANEL_OP_KINDS,
    check_layer_call,
    check_layer_members,
    check_operand,
    check_panel_program,
)
from repro.errors import ConfigurationError, ShapeError

#: environment variable overriding where compiled kernels are cached
CACHE_ENV_VAR = "REPRO_NATIVE_CACHE"

#: compilers probed in order; the first one present on PATH is used
_COMPILERS = ("cc", "gcc", "clang")

#: optimisation flags — deliberately *without* -ffast-math: C forbids
#: reassociating float additions at -O3, which is load-bearing for the
#: col2im kernel's bit-identity with the NumPy reference loop; and with
#: -ffp-contract=off, so the fused layer epilogue's multiply and bias add
#: stay two roundings (as in NumPy) on targets with a fused multiply-add
_CFLAGS = ("-O3", "-fPIC", "-shared", "-std=c99", "-ffp-contract=off")

_SOURCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "kernels.c")


class NativeBuildError(RuntimeError):
    """The C kernel library could not be built or loaded on this host."""


def cache_dir() -> str:
    """Directory holding compiled kernel libraries."""
    override = os.environ.get(CACHE_ENV_VAR)
    if override:
        return override
    return os.path.join(os.path.expanduser("~"), ".cache", "repro", "native")


def _source_digest() -> str:
    """Hash of the C source and the compile flags: a change to either
    rebuilds the library."""
    with open(_SOURCE_PATH, "rb") as handle:
        digest = hashlib.sha256(handle.read())
    digest.update(" ".join(_CFLAGS).encode())
    return digest.hexdigest()[:16]


def find_compiler() -> Optional[str]:
    """Path of the first available C compiler, or ``None``."""
    for name in _COMPILERS:
        path = shutil.which(name)
        if path:
            return path
    return None


def build_library() -> str:
    """Compile (or reuse) the kernel shared object; returns its path.

    Raises :class:`NativeBuildError` when no compiler exists, the cache
    directory is unusable or the compile fails.  The build is atomic (temp
    file + ``os.replace``), so concurrent first-touch builds in separate
    processes race benignly: both produce the same bytes for the same
    source hash and the last rename wins.
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
    temp_path = None
    try:
        os.makedirs(directory, exist_ok=True)
        fd, temp_path = tempfile.mkstemp(suffix=".so", dir=directory)
        os.close(fd)
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
        if temp_path is not None and os.path.exists(temp_path):
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
    # raw addresses throughout: the wrappers below check every operand's
    # dtype, C-contiguity, shape and (outputs) writeability before the call
    for suffix in ("i16", "i32"):
        fn = getattr(lib, f"repro_lut_matmul_{suffix}")
        fn.restype = None
        fn.argtypes = [
            ctypes.c_void_p,  # codes (M, K) uint8
            ctypes.c_void_p,  # sign (K, N) int8
            ctypes.c_void_p,  # mag (K, N) uint8
            ctypes.c_void_p,  # lut (C, C) int16 or int32
            i64, i64, i64, i64,  # m, k, n, lut_cols
            ctypes.c_void_p,  # out (M, N) int64
        ]
    table = lib.repro_table_matmul_i32
    table.restype = None
    table.argtypes = [
        ctypes.c_void_p,  # codes (M, K) uint8
        ctypes.c_void_p,  # table (K, C, n_pad) int32
        i64, i64, i64, i64, i64,  # m, k, n, codes_total, n_pad
        ctypes.c_void_p,  # out (M, N) int64
    ]
    col2im = lib.repro_col2im_f64
    col2im.restype = None
    col2im.argtypes = [
        ctypes.c_void_p,  # cols float64
        i64, i64, i64,  # batch, out_h, out_w
        i64, i64, i64, i64,  # kh, kw, channels, stride
        i64, i64,  # padded_h, padded_w
        ctypes.c_void_p,  # out float64
    ]
    for suffix in ("f64", "u8"):
        gather = getattr(lib, f"repro_im2col_{suffix}")
        gather.restype = None
        gather.argtypes = [
            ctypes.c_void_p,  # padded image
            i64, i64, i64, i64,  # batch, padded_h, padded_w, channels
            i64, i64, i64,  # kh, kw, stride
            i64, i64,  # out_h, out_w
            ctypes.c_void_p,  # cols, the image's dtype
        ]
    layer = lib.repro_layer_f64
    layer.restype = ctypes.c_int
    # raw addresses: bind_layer checks the member operands once, and each
    # call checks its code matrix and output (see check_layer_call)
    layer.argtypes = [
        ctypes.c_void_p,  # codes (rows or n_slots * rows, K) uint8
        i64, i64, i64,  # rows, k, n
        i64, i64,  # codes_stacked, n_members
        ctypes.c_void_p,  # LayerMember array
        ctypes.c_void_p,  # out (n_slots * rows, N) float64
    ]
    lib.repro_set_dgemm.restype = None
    lib.repro_set_dgemm.argtypes = [ctypes.c_void_p]
    panel = lib.repro_panel_f64
    panel.restype = ctypes.c_int
    # raw addresses: bind_panel checks the program once, and each call
    # checks its input batch and output
    panel.argtypes = [
        ctypes.c_void_p,  # x (batch, h, w, c) float64
        i64, i64,  # batch, n_ops
        ctypes.c_void_p,  # PanelOp array
        i64,  # output values per sample
        ctypes.c_void_p,  # out float64
    ]
    return lib


def lut_matmul(lib: ctypes.CDLL, codes, sign, mag, lut, out) -> None:
    """Dispatch the LUT matmul to the i16 or i32 entry point by LUT dtype.

    Raises :class:`ShapeError` unless ``codes`` is uint8 ``(M, K)``,
    ``sign`` int8 and ``mag`` uint8 ``(K, N)``, ``lut`` int16 or int32
    ``(C, C')`` and ``out`` a writeable int64 ``(M, N)``, all C-contiguous.
    """
    check_operand("lut_matmul codes", codes, (np.uint8,), (None, None))
    m, k = codes.shape
    check_operand("lut_matmul sign", sign, (np.int8,), (k, None))
    n = sign.shape[1]
    check_operand("lut_matmul mag", mag, (np.uint8,), (k, n))
    check_operand("lut_matmul lut", lut, (np.int16, np.int32), (None, None))
    check_operand("lut_matmul out", out, (np.int64,), (m, n), writeable=True)
    fn = lib.repro_lut_matmul_i16 if lut.dtype == np.int16 else lib.repro_lut_matmul_i32
    fn(codes.ctypes.data, sign.ctypes.data, mag.ctypes.data, lut.ctypes.data,
       m, k, n, lut.shape[1], out.ctypes.data)


def table_matmul(lib: ctypes.CDLL, codes, table, out) -> None:
    """Accumulate ``out[m, n] = sum_k table[k, codes[m, k], n]``.

    Raises :class:`ShapeError` unless ``codes`` is uint8 ``(M, K)``,
    ``table`` int32 ``(K, C, n_pad)`` with ``n_pad`` a multiple of 8 lanes
    covering ``N``, and ``out`` a writeable int64 ``(M, N)``, all
    C-contiguous.
    """
    check_operand("table_matmul codes", codes, (np.uint8,), (None, None))
    m, k = codes.shape
    check_operand("table_matmul table", table, (np.int32,), (k, None, None))
    _, codes_total, n_pad = table.shape
    check_operand("table_matmul out", out, (np.int64,), (m, None), writeable=True)
    n = out.shape[1]
    if n > n_pad or n_pad % 8:
        raise ShapeError(
            f"table_matmul: table {table.shape} does not cover {n} outputs "
            "in 8-lane blocks"
        )
    lib.repro_table_matmul_i32(
        codes.ctypes.data, table.ctypes.data, m, k, n, codes_total, n_pad,
        out.ctypes.data,
    )


def _check_patches(what, image, cols, dtypes, kernel_h, kernel_w, stride,
                   image_out: bool):
    """Raise :class:`ShapeError` unless the padded NHWC ``image`` and the
    patch matrix ``cols`` are C-contiguous arrays of one dtype of
    ``dtypes``, the one the loop writes (``image`` when ``image_out``, else
    ``cols``) is writeable, ``cols`` holds one ``kernel_h * kernel_w * C``
    patch row per output pixel and every patch lies inside the image: the
    C loops read and write through raw pointers."""
    check_operand(f"{what} image", image, dtypes, (None,) * 4, writeable=image_out)
    batch, padded_h, padded_w, channels = image.shape
    check_operand(f"{what} cols", cols, (image.dtype,), (batch, None, None, None),
                  writeable=not image_out)
    _, out_h, out_w, patch = cols.shape
    if (
        patch != kernel_h * kernel_w * channels
        or (out_h - 1) * stride + kernel_h > padded_h
        or (out_w - 1) * stride + kernel_w > padded_w
    ):
        raise ShapeError(
            f"{what}: cols {cols.shape} does not match image {image.shape} "
            f"with a {kernel_h}x{kernel_w} kernel at stride {stride}"
        )


def col2im_add(lib: ctypes.CDLL, cols, out, kernel_h, kernel_w, stride,
               out_h, out_w) -> None:
    """Scatter-add ``cols`` into the pre-zeroed padded image ``out``.

    Raises :class:`ShapeError` unless both are C-contiguous float64, ``out``
    is writeable and ``cols`` is ``(batch, out_h, out_w, kernel_h *
    kernel_w * C)`` for ``out``'s ``(batch, padded_h, padded_w, C)``.
    """
    _check_patches("col2im", out, cols, (np.float64,), kernel_h, kernel_w, stride,
                   image_out=True)
    if cols.shape[1:3] != (out_h, out_w):
        raise ShapeError(f"col2im: cols {cols.shape} are not {out_h}x{out_w} patches")
    batch, padded_h, padded_w, channels = out.shape
    lib.repro_col2im_f64(
        cols.ctypes.data, batch, out_h, out_w, kernel_h, kernel_w, channels, stride,
        padded_h, padded_w, out.ctypes.data,
    )


def im2col(lib: ctypes.CDLL, x_padded, cols, kernel_h, kernel_w, stride) -> None:
    """Gather the patches of the padded image ``x_padded`` into ``cols``.

    Raises :class:`ShapeError` unless both are C-contiguous float64 or
    uint8 of one dtype, ``cols`` is writeable, every patch lies inside the
    image and ``cols`` holds exactly one patch row per output pixel.
    """
    _check_patches("im2col", x_padded, cols, (np.float64, np.uint8), kernel_h,
                   kernel_w, stride, image_out=False)
    batch, padded_h, padded_w, channels = x_padded.shape
    _, out_h, out_w, _ = cols.shape
    gather = lib.repro_im2col_u8 if x_padded.dtype == np.uint8 else lib.repro_im2col_f64
    gather(
        x_padded.ctypes.data, batch, padded_h, padded_w, channels, kernel_h,
        kernel_w, stride, out_h, out_w, cols.ctypes.data,
    )


class LayerMember(ctypes.Structure):
    """``repro_layer_member`` of ``kernels.c``, field for field."""

    _fields_ = [
        ("slot", ctypes.c_int64),
        ("table", ctypes.c_void_p),
        ("codes_total", ctypes.c_int64),
        ("n_pad", ctypes.c_int64),
        ("sign", ctypes.c_void_p),
        ("mag", ctypes.c_void_p),
        ("lut", ctypes.c_void_p),
        ("lut_cols", ctypes.c_int64),
        ("lut_bytes", ctypes.c_int64),
        ("code_factors", ctypes.c_void_p),
        ("weight_factors", ctypes.c_void_p),
        ("rank", ctypes.c_int64),
        ("zero_point", ctypes.c_int64),
        ("corr", ctypes.c_void_p),
        ("alpha", ctypes.c_double),
        ("bias", ctypes.c_void_p),
    ]


def _raise_status(status: int, what: str) -> None:
    """Raise for the non-zero status of a fused call (see ``factor_rows``
    in ``kernels.c``)."""
    if status == -1:
        raise MemoryError(f"{what} could not allocate its buffers")
    raise ConfigurationError(
        f"{what} ran a factor product without a bound BLAS dgemm "
        "(NativeBackend.enable_blas) or beyond its int dimensions"
    )


def _pack_members(members):
    """The ``LayerMember`` array of checked :class:`FusedMember` operands."""
    packed = (LayerMember * len(members))()
    for entry, member in zip(packed, members):
        entry.slot = member.slot
        entry.zero_point = member.zero_point
        entry.corr = member.correction.ctypes.data
        entry.alpha = member.alpha
        entry.bias = None if member.bias is None else member.bias.ctypes.data
        if member.table is not None:
            entry.table = member.table.ctypes.data
            _, entry.codes_total, entry.n_pad = member.table.shape
        elif member.weight_factors is not None:
            entry.weight_factors = member.weight_factors.ctypes.data
            entry.rank = 1
            if member.code_factors is not None:
                entry.code_factors = member.code_factors.ctypes.data
                entry.rank = member.code_factors.shape[1]
        else:
            entry.sign = member.sign.ctypes.data
            entry.mag = member.mag.ctypes.data
            entry.lut = member.lut.ctypes.data
            entry.lut_cols = member.lut.shape[1]
            entry.lut_bytes = member.lut.dtype.itemsize
    return packed


def bind_layer(lib: ctypes.CDLL, members, k_dim, n_dim, n_slots, stacked):
    """The fused layer call of ``members`` (see ``NativeBackend.bind_layer``).

    Checks every member's operands once (:func:`check_layer_members`) and
    packs their addresses into one ``LayerMember`` array; the returned
    ``run(codes, out)`` checks only its two arguments before the single
    foreign call.  ``run`` keeps the member operands alive, so the
    addresses stay valid as long as it does.
    """
    check_layer_members(members, k_dim, n_dim, n_slots)
    stacked = int(bool(stacked))
    packed = _pack_members(members)
    fn = lib.repro_layer_f64
    address = ctypes.addressof(packed)
    count = len(members)
    keep = (packed, tuple(members))

    def run(codes, out):
        rows = check_layer_call(codes, out, k_dim, n_dim, n_slots, stacked)
        status = fn(codes.ctypes.data, rows, k_dim, n_dim, stacked, count,
                    address, out.ctypes.data)
        if status:
            _raise_status(status, "a fused layer call")

    run.operands = keep
    return run


def scipy_dgemm_address() -> Optional[int]:
    """The address of SciPy's BLAS ``dgemm`` (``scipy.linalg.cython_blas``,
    the capsule Numba calls through), or ``None`` without SciPy."""
    try:
        from scipy.linalg import cython_blas
    except ImportError:  # pragma: no cover - scipy is a baked-in dependency
        return None
    capsule = cython_blas.__pyx_capi__["dgemm"]
    api = ctypes.pythonapi
    api.PyCapsule_GetName.restype = ctypes.c_char_p
    api.PyCapsule_GetName.argtypes = [ctypes.py_object]
    api.PyCapsule_GetPointer.restype = ctypes.c_void_p
    api.PyCapsule_GetPointer.argtypes = [ctypes.py_object, ctypes.c_char_p]
    return api.PyCapsule_GetPointer(capsule, api.PyCapsule_GetName(capsule))


def enable_blas(lib: ctypes.CDLL) -> bool:
    """Point the library's factor product at SciPy's ``dgemm``; returns
    whether it can run (see ``NativeBackend.enable_blas``)."""
    address = scipy_dgemm_address()
    if address:
        lib.repro_set_dgemm(address)
    return bool(address)


class PanelOp(ctypes.Structure):
    """``repro_panel_op`` of ``kernels.c``, field for field."""

    _fields_ = [
        ("kind", ctypes.c_int64),
        ("in_blocks", ctypes.c_int64),
        ("in_h", ctypes.c_int64),
        ("in_w", ctypes.c_int64),
        ("in_c", ctypes.c_int64),
        ("out_h", ctypes.c_int64),
        ("out_w", ctypes.c_int64),
        ("window", ctypes.c_int64),
        ("stride", ctypes.c_int64),
        ("pad", ctypes.c_int64),
        ("scale", ctypes.c_double),
        ("zero_point", ctypes.c_int64),
        ("qmax", ctypes.c_int64),
        ("k_dim", ctypes.c_int64),
        ("n_dim", ctypes.c_int64),
        ("n_members", ctypes.c_int64),
        ("members", ctypes.c_void_p),
    ]


def bind_panel(lib: ctypes.CDLL, ops, in_shape):
    """The compiled panel pass of the :class:`repro.axnn.native.PanelOp`
    program ``ops`` (see ``NativeBackend.bind_panel``).

    Checks the program once (:func:`check_panel_program`) and packs it into
    one ``PanelOp`` array; the returned ``run(x, out)`` checks that ``x`` is
    a C-contiguous float64 batch of ``in_shape`` samples and ``out`` a
    C-contiguous float64 array of the output's values, makes the single
    foreign call (GIL released throughout) and returns ``out``.  It raises
    :class:`MemoryError` when the pass cannot allocate its buffers.
    """
    out_blocks, out_values = check_panel_program(ops, in_shape)
    in_shape = tuple(int(size) for size in in_shape)
    packed = (PanelOp * len(ops))()
    member_arrays = []
    for entry, op in zip(packed, ops):
        entry.kind = PANEL_OP_KINDS[op.kind]
        entry.in_blocks = op.in_blocks
        entry.in_h, entry.in_w, entry.in_c = op.in_shape
        if op.kind in ("conv", "avgpool"):
            entry.out_h, entry.out_w = op.out_hw
        entry.window, entry.stride, entry.pad = op.window, op.stride, op.pad
        entry.scale = op.scale
        entry.zero_point, entry.qmax = op.zero_point, op.qmax
        entry.k_dim, entry.n_dim = op.k_dim, op.n_dim
        entry.n_members = len(op.members)
        if op.members:
            members = _pack_members(op.members)
            member_arrays.append(members)
            entry.members = ctypes.addressof(members)
    fn = lib.repro_panel_f64
    address = ctypes.addressof(packed)
    count = len(ops)
    per_sample = out_blocks * out_values

    def run(x, out):
        if (
            x.dtype != np.float64
            or not x.flags.c_contiguous
            or x.shape[1:] != in_shape
        ):
            raise ShapeError(
                f"panel input must be a C-contiguous float64 batch of "
                f"{in_shape} samples, got {x.dtype} {x.shape}"
            )
        batch = x.shape[0]
        if (
            out.dtype != np.float64
            or not out.flags.c_contiguous
            or out.size != batch * per_sample
        ):
            raise ShapeError(
                f"panel output must be C-contiguous float64 with {batch} x "
                f"{per_sample} values, got {out.dtype} {out.shape}"
            )
        status = fn(x.ctypes.data, batch, count, address, out_values * out_blocks,
                    out.ctypes.data)
        if status:
            _raise_status(status, "the compiled panel pass")
        return out

    run.operands = (packed, member_arrays, tuple(ops))
    return run
