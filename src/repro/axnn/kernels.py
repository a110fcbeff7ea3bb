"""Pluggable BLAS-backed kernels for the approximate LUT matmul.

The hot loop of the whole reproduction is the integer product

    result[m, n] = sum_k sign[k, n] * LUT[A[m, k], mag[k, n]]

where ``A`` holds unsigned activation codes and ``(sign, mag)`` is the
sign-magnitude weight decomposition.  The reference implementation
(:func:`repro.axnn.approx_ops.approx_matmul`) evaluates it by materialising
an ``(m, K, N)`` gather tensor — correct, but every downstream sweep
(accuracy grids, PGD/decision attacks, transferability matrices) pays for
that fancy-indexing loop.  This module provides interchangeable,
*bit-identical* kernel strategies that route the same accumulation through
float64 BLAS instead:

``gather``
    The legacy chunked LUT-gather loop, kept as the reference semantics.

``percode``
    The per-code BLAS decomposition ``result = sum_c onehot(A == c) @ T_c``
    with ``T_c[k, n] = sign[k, n] * LUT[c, mag[k, n]]``: at most ``2**bits``
    float64 matmuls over only the codes actually present in the batch.
    When the LUT admits an exact integer rank factorisation
    ``LUT = sum_i outer(f_i, g_i)`` (true for the exact, operand-truncation,
    partial-product-truncation, DRUM and mirror-adder array multipliers),
    the one-hot sum collapses through the LUT's row space into one fused
    BLAS product ``F[A] @ G`` with ``F[A]`` the ``(M, K*r)`` gathered code
    factors and ``G`` the ``(K*r, N)`` interleaved weight factors
    ``sign * g_i[mag]`` — a single ``dgemm`` for every rank.

``errorcorrection``
    ``exact_matmul(A, W)`` via one BLAS product plus a correction drawn from
    the multiplier's ``error_lut()`` restricted to its nonzero structure
    (low-rank factors of the error table when they exist, otherwise only the
    error-active codes present in the batch), analysed when the kernel is
    built.  Never chosen by ``auto`` —
    it ties or loses against ``percode``/``native`` on every measured
    shape — and kept constructible by name only.

``sparse``
    The per-code one-hot sum evaluated as a *single* scipy.sparse matmul:
    the activation codes become one CSR one-hot matrix ``S`` of shape
    ``(M, 2**bits * K)`` with exactly ``K`` ones per row, and the weights
    become one stacked table ``T[c*K + k, n] = sign[k, n] * LUT[c,
    mag[k, n]]`` built once per layer (chunked over the codes present in
    the batch when the full stack exceeds a byte budget).  All arithmetic
    is int64, so the result is exact by construction.  This is the escape
    hatch for *full-rank* LUTs (the compressor-tree circuits M6/M9/A4/A8,
    Mitchell, noisy-LSB) that admit no low-rank factorisation: it does
    ``M*K`` row-accumulations instead of ``2**bits`` dense one-hot matmuls
    or the reference gather's fancy-indexed ``(m, K, N)`` tensor.

``exact``
    A plain rounded float64 BLAS product; only valid for bit-exact
    multipliers (the quantized accurate DNN).

``native``
    The compiled hot loop from :mod:`repro.axnn.native` (the ctypes C
    extension, enabled or disabled by ``REPRO_KERNEL_BACKEND``), GIL
    released for the whole call.  Where the layer's weight-stationary signed table
    ``T[k, c, n] = sign[k, n] * LUT[c, mag[k, n]]`` (int32, N padded to 8)
    is exact in int32 and fits a per-layer byte budget, the loop adds one
    table row per ``(m, k)`` and 8 output lanes; otherwise it gathers from
    the LUT packed to 16 or 32 bits with int64 accumulators, cache-blocked
    over output columns.  It reads the uint8 activation codes the
    Ax-layers produce without a copy.  Only constructible when a native
    backend resolved; ``auto`` picks it for full-rank LUTs and for rank-r
    LUTs on layers whose table fits and whose width is below ``16 * r``,
    where the ``r``-fold fused BLAS product loses to the table (see
    :func:`select_strategy` for the calibrated crossover).

All BLAS paths operate on integer-valued float64 operands whose partial sums
are provably below 2**53, so the rounded accumulators are bit-identical to
the gather reference; kernels verify that bound at construction time and
fall back to an always-safe formulation when it cannot be guaranteed.  The
sparse and native paths accumulate in integers, so they are exact by
construction.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Union

import numpy as np

try:  # scipy ships with the toolchain; degrade to gather if it ever vanishes
    from scipy import sparse as _scipy_sparse
except ImportError:  # pragma: no cover - scipy is a baked-in dependency
    _scipy_sparse = None

from repro.errors import ConfigurationError, ShapeError
from repro.multipliers.base import Multiplier

#: canonical kernel strategy names (plus the "auto" selector)
KERNEL_STRATEGIES = (
    "gather",
    "percode",
    "errorcorrection",
    "sparse",
    "exact",
    "native",
)

#: partial sums in the BLAS paths must stay below this to round exactly
_EXACT_FLOAT_BOUND = float(1 << 52)

#: give up on the integer rank factorisation beyond this many terms
_MAX_FACTOR_RANK = 24

#: abort the factorisation when residual entries grow past this magnitude
_FACTOR_VALUE_BOUND = 1 << 40

#: largest LUT side for which factor analysis is attempted (12-bit tables
#: are 16M entries; peeling them buys nothing the cache does not)
_MAX_ANALYSIS_BITS = 10

#: "auto" sends a rank-r LUT to the native kernel when its signed table
#: fits and the layer's output width N is below ``_NATIVE_WIDTH_PER_RANK *
#: r``.  The fused low-rank product's work grows with r, the table loop's
#: (one row add per (m, k) and 8 output lanes) with N, so the crossover
#: width grows with the rank.  Calibrated from the per-shape
#: percode-vs-native sweep recorded by ``benchmarks/bench_native_kernels.py``
#: (``BENCH_native_kernels.json``, ``auto_vs_best.*``): percode beats the
#: table only for rank 1 at N >= 16.
_NATIVE_WIDTH_PER_RANK = 16

#: per-layer byte budget of the native kernel's signed int32 table
#: ``(K, 2**bits, N padded to 8)``; LeNet conv2 needs 2.3 MiB, conv3 would
#: need 30 MiB per victim and keeps the LUT loop
_NATIVE_TABLE_BUDGET_BYTES = 8 * 1024 * 1024

#: lanes of one native table row add; the table's N axis is padded to it
_NATIVE_TABLE_LANES = 8

#: byte budget for per-kernel memoised per-code row tables
_ROW_TABLE_CACHE_BYTES = 64 * 1024 * 1024

#: byte budget for the sparse kernel's stacked (2**bits * K, N) weight table;
#: larger shapes fall back to chunking over the codes present in the batch
_SPARSE_STACK_BUDGET_BYTES = 256 * 1024 * 1024


def normalize_strategy(strategy: str) -> str:
    """Check a kernel name: ``"auto"`` or one of :data:`KERNEL_STRATEGIES`."""
    if strategy == "auto" or strategy in KERNEL_STRATEGIES:
        return strategy
    raise ConfigurationError(
        f"unknown kernel strategy {strategy!r}; known: "
        f"{['auto', *KERNEL_STRATEGIES]}"
    )


def integer_low_rank_factors(
    table: np.ndarray,
    max_rank: int = _MAX_FACTOR_RANK,
    value_bound: int = _FACTOR_VALUE_BOUND,
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Exact integer rank factorisation ``table = sum_i outer(F[i], G[i])``.

    Performs Gaussian elimination with pivots restricted to entries that
    divide their whole column exactly, so every factor stays integral and the
    reconstruction is exact (not approximate).  Returns ``(F, G)`` with
    shapes ``(r, rows)`` / ``(r, cols)``, or ``None`` when no such
    factorisation with at most ``max_rank`` terms is found.  The zero table
    factorises with rank 0.
    """
    residual = np.asarray(table, dtype=np.int64).copy()
    if residual.ndim != 2:
        raise ShapeError("integer_low_rank_factors expects a 2-D table")
    fs, gs = [], []
    for _ in range(max_rank):
        if not residual.any():
            rows, cols = residual.shape
            if not fs:
                return (
                    np.zeros((0, rows), dtype=np.int64),
                    np.zeros((0, cols), dtype=np.int64),
                )
            return np.array(fs, dtype=np.int64), np.array(gs, dtype=np.int64)
        column_mass = np.abs(residual).sum(axis=0)
        peeled = False
        for b0 in np.argsort(-column_mass):
            column = residual[:, b0]
            nonzero = column[column != 0]
            if nonzero.size == 0:
                continue
            gcd = np.gcd.reduce(np.abs(nonzero))
            pivots = np.flatnonzero(np.abs(column) == gcd)
            if pivots.size == 0:
                continue  # gcd not attained by any entry: division inexact
            a0 = int(pivots[0])
            pivot = int(column[a0])
            f = column // pivot
            g = residual[a0, :].copy()
            residual = residual - np.outer(f, g)
            if np.abs(residual).max(initial=0) > value_bound:
                return None
            fs.append(f)
            gs.append(g)
            peeled = True
            break
        if not peeled:
            return None
    return None if residual.any() else (np.array(fs), np.array(gs))


@dataclass(frozen=True)
class MultiplierKernelProfile:
    """Cached per-multiplier structure used to build and select kernels."""

    #: exact integer factors of the product LUT, or None
    lut_factors: Optional[Tuple[np.ndarray, np.ndarray]]
    #: largest |entry| of the product LUT
    lut_peak: int

    @property
    def lut_rank(self) -> Optional[int]:
        return None if self.lut_factors is None else len(self.lut_factors[0])


def _analysed_factors(
    multiplier: Multiplier, table: np.ndarray
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Integer factors of a multiplier's table; None past the analysis width."""
    if multiplier.bit_width > _MAX_ANALYSIS_BITS:
        return None
    return integer_low_rank_factors(table)


_PROFILE_CACHE: Dict[tuple, MultiplierKernelProfile] = {}

#: serialises first-touch profile analysis so concurrent kernel builds (the
#: service's job and query threads) share one cached profile
_PROFILE_LOCK = threading.Lock()


def multiplier_kernel_profile(multiplier: Multiplier) -> MultiplierKernelProfile:
    """Analyse (once per process per multiplier) the LUT structure.

    Safe under concurrent first-touch calls from worker threads: the
    analysis runs under a lock and every caller receives the same cached
    profile object.
    """
    key = multiplier._lut_cache_key()
    if key is not None and key in _PROFILE_CACHE:
        return _PROFILE_CACHE[key]
    with _PROFILE_LOCK:
        if key is not None and key in _PROFILE_CACHE:
            return _PROFILE_CACHE[key]
        lut = multiplier.lut()
        profile = MultiplierKernelProfile(
            lut_factors=_analysed_factors(multiplier, lut),
            lut_peak=int(np.abs(lut).max(initial=0)),
        )
        if key is not None:
            _PROFILE_CACHE[key] = profile
    return profile


def clear_profile_cache() -> None:
    """Drop cached multiplier profiles and the resolved native backend.

    Resetting the native backend too means a test (or a long-lived service
    reconfiguring itself) can flip ``REPRO_KERNEL_BACKEND`` and have both
    the "auto" strategy choice and subsequent kernel builds re-resolve.
    """
    from repro.axnn import native as _native

    _PROFILE_CACHE.clear()
    _native.reset_backend()


def _factor_sum_bound(factors: Tuple[np.ndarray, np.ndarray], inner: int) -> float:
    """Upper bound on any partial sum of a rank-decomposed accumulation."""
    fs, gs = factors
    if len(fs) == 0:
        return 0.0
    per_term = np.abs(fs).max(axis=1).astype(np.float64) * np.abs(gs).max(
        axis=1
    ).astype(np.float64)
    return float(per_term.sum()) * float(inner)


class MatmulKernel:
    """A bound approximate-matmul kernel: fixed multiplier and weights.

    Kernels are constructed once per Ax-layer (weights are constant during
    inference) and then invoked with batches of activation codes.  Every
    strategy returns the same int64 accumulator as the gather reference.
    """

    strategy: str = "base"

    def __init__(
        self,
        multiplier: Multiplier,
        weight_sign: np.ndarray,
        weight_magnitude: np.ndarray,
    ) -> None:
        weight_sign = np.asarray(weight_sign, dtype=np.int64)
        weight_magnitude = np.asarray(weight_magnitude, dtype=np.int64)
        if weight_sign.ndim != 2 or weight_sign.shape != weight_magnitude.shape:
            raise ShapeError(
                "kernel weights must be 2-D sign/magnitude arrays of equal shape"
            )
        if weight_magnitude.size and (
            weight_magnitude.min() < 0 or weight_magnitude.max() > multiplier.operand_max
        ):
            raise ConfigurationError(
                f"weight magnitudes exceed the {multiplier.bit_width}-bit operand range"
            )
        self.multiplier = multiplier
        self.weight_sign = weight_sign
        self.weight_magnitude = weight_magnitude
        self.inner, self.outputs = weight_sign.shape
        self.codes_total = multiplier.operand_max + 1

    # ------------------------------------------------------------------ API
    def matmul(self, activation_codes: np.ndarray) -> np.ndarray:
        """Integer accumulator ``(M, K) @ (K, N) -> (M, N)`` (int64)."""
        raise NotImplementedError

    def describe(self) -> str:
        """Human-readable strategy summary (used by AxModel.kernel_report)."""
        return self.strategy

    def factor_operands(self) -> Optional[Dict[str, Optional[np.ndarray]]]:
        """The low-rank operands this kernel already holds, as
        :class:`repro.axnn.native.FusedMember` fields, or ``None``: the
        float64 ``(K * r, N)`` weight factors and ``(2**bits, r)`` code
        factors of ``sum_i f_i[A] @ (sign * g_i[mag])``, with no code
        factors for the exact product (rank 1, factor = code)."""
        return None

    def packed_codes(self, activation_codes: np.ndarray) -> np.ndarray:
        """The C-contiguous uint8 code matrix the compiled loops read.

        uint8 codes of an 8-bit multiplier are used as they are; any other
        integer codes are range-checked against the operand range
        (:class:`ConfigurationError` outside it) and packed.
        """
        codes = self._check_codes(activation_codes)
        if codes.dtype != np.uint8 or self.codes_total != 256:
            if codes.size and (codes.min() < 0 or codes.max() >= self.codes_total):
                raise ConfigurationError(
                    f"activation codes outside the {self.multiplier.bit_width}-bit "
                    "operand range"
                )
        return np.ascontiguousarray(codes, dtype=np.uint8)

    # ------------------------------------------------------------ internals
    def _check_codes(self, activation_codes: np.ndarray) -> np.ndarray:
        """Validate the code matrix; integer codes keep their dtype (the
        Ax-layers hand over uint8), anything else becomes int64."""
        codes = np.asarray(activation_codes)
        if codes.dtype.kind not in "ui":
            codes = codes.astype(np.int64)
        if codes.ndim != 2:
            raise ShapeError("kernel matmul expects a 2-D activation-code matrix")
        if codes.shape[1] != self.inner:
            raise ShapeError(
                f"inner dimensions disagree: {codes.shape} vs "
                f"{self.weight_sign.shape}"
            )
        return codes

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(multiplier={self.multiplier.name!r}, "
            f"shape=({self.inner}, {self.outputs}))"
        )


class GatherKernel(MatmulKernel):
    """The legacy chunked LUT-gather loop (reference semantics)."""

    strategy = "gather"

    def __init__(self, multiplier, weight_sign, weight_magnitude) -> None:
        super().__init__(multiplier, weight_sign, weight_magnitude)
        self._lut = multiplier.lut()

    def matmul(self, activation_codes: np.ndarray) -> np.ndarray:
        from repro.axnn.approx_ops import approx_matmul

        codes = self._check_codes(activation_codes)
        return approx_matmul(codes, self.weight_sign, self.weight_magnitude, self._lut)


class ExactBLASKernel(MatmulKernel):
    """Rounded float64 BLAS product; only valid for bit-exact multipliers."""

    strategy = "exact"

    def __init__(self, multiplier, weight_sign, weight_magnitude) -> None:
        super().__init__(multiplier, weight_sign, weight_magnitude)
        if not multiplier.is_exact():
            raise ConfigurationError(
                f"the 'exact' kernel requires a bit-exact multiplier, got "
                f"{multiplier.name!r}"
            )
        self._signed_weights = np.ascontiguousarray(
            weight_sign * weight_magnitude, dtype=np.float64
        )

    def matmul(self, activation_codes: np.ndarray) -> np.ndarray:
        codes = self._check_codes(activation_codes)
        product = codes.astype(np.float64) @ self._signed_weights
        return np.rint(product).astype(np.int64)

    def factor_operands(self) -> Dict[str, Optional[np.ndarray]]:
        return {"code_factors": None, "weight_factors": self._signed_weights}


class _TableOperand:
    """Weight-bound evaluation of one source table (product LUT or error LUT).

    Shared machinery of the per-code and error-correction kernels: when the
    table has an exact integer rank factorisation (within the float64
    exactness bound), the per-code one-hot sum collapses into ``r`` fused
    BLAS products ``sum_i f_i[A] @ (sign * g_i[mag])``; otherwise per-code
    row tables ``T_c = sign * table[c, mag]`` are built lazily, memoised
    under a byte budget, and applied as one one-hot matmul per code present.
    """

    def __init__(
        self,
        table: np.ndarray,
        factors: Optional[Tuple[np.ndarray, np.ndarray]],
        weight_sign: np.ndarray,
        weight_magnitude: np.ndarray,
        reserved_bound: float = 0.0,
    ) -> None:
        inner, outputs = weight_sign.shape
        self.inner = inner
        self.outputs = outputs
        self.rank: Optional[int] = None
        self.weight_magnitude = weight_magnitude
        if factors is not None and (
            _factor_sum_bound(factors, inner) + reserved_bound < _EXACT_FLOAT_BOUND
        ):
            fs, gs = factors
            self.rank = len(fs)
            #: (2**bits, r) gather table: one row of code factors per code,
            #: so ``table[codes]`` is already the (M, K*r) operand
            self._code_factors = np.ascontiguousarray(fs.T, dtype=np.float64)
            #: (K*r, N) weight-side factors sign * g_i[mag], interleaved so
            #: row ``k*r + i`` pairs with column ``k*r + i`` of the operand
            sign_f = weight_sign.astype(np.float64)
            weight_factors = [
                sign_f * g.astype(np.float64)[weight_magnitude] for g in gs
            ]
            self._weight_factors = (
                np.stack(weight_factors, axis=1).reshape(inner * self.rank, outputs)
                if self.rank
                else np.zeros((0, outputs))
            )
        else:
            self._table_rows = table.astype(np.float64)
            self._sign_f = weight_sign.astype(np.float64)
            self._row_tables: Dict[int, np.ndarray] = {}
            self._row_table_bytes = 0
            # memoisation is shared when the bound kernel serves concurrent
            # service threads; the lock keeps the byte accounting consistent
            self._row_table_lock = threading.Lock()

    @property
    def is_low_rank(self) -> bool:
        return self.rank is not None

    def add_low_rank_product(
        self, codes: np.ndarray, accumulator: np.ndarray
    ) -> np.ndarray:
        """Add the fused low-rank contribution for ``codes`` in place."""
        if self.rank == 0:
            return accumulator
        gathered = self._code_factors[codes].reshape(
            codes.shape[0], self.inner * self.rank
        )
        accumulator += gathered @ self._weight_factors
        return accumulator

    def _row_table(self, code: int) -> np.ndarray:
        table = self._row_tables.get(code)
        if table is None:
            table = self._sign_f * self._table_rows[code][self.weight_magnitude]
            with self._row_table_lock:
                if code in self._row_tables:
                    table = self._row_tables[code]
                elif self._row_table_bytes + table.nbytes <= _ROW_TABLE_CACHE_BYTES:
                    self._row_tables[code] = table
                    self._row_table_bytes += table.nbytes
        return table

    def add_per_code_products(
        self,
        codes: np.ndarray,
        accumulator: np.ndarray,
        active: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Add one one-hot matmul per (active) code present, in place."""
        for code in np.unique(codes):
            if active is not None and not active[int(code)]:
                continue
            onehot = (codes == code).astype(np.float64)
            accumulator += onehot @ self._row_table(int(code))
        return accumulator


class PerCodeBLASKernel(MatmulKernel):
    """Per-code one-hot decomposition routed through float64 BLAS.

    With an exact integer rank factorisation of the LUT the per-code sum
    collapses into ``r`` fused BLAS products; otherwise at most one matmul
    per activation code present in the batch is issued, with the per-code
    weight tables ``T_c`` built lazily and memoised under a byte budget.
    """

    strategy = "percode"

    def __init__(self, multiplier, weight_sign, weight_magnitude) -> None:
        super().__init__(multiplier, weight_sign, weight_magnitude)
        profile = multiplier_kernel_profile(multiplier)
        self._operand = _TableOperand(
            multiplier.lut(), profile.lut_factors, weight_sign, weight_magnitude
        )

    def describe(self) -> str:
        if self._operand.is_low_rank:
            return f"percode[low-rank r={self._operand.rank}]"
        return "percode[per-code loop]"

    def factor_operands(self) -> Optional[Dict[str, Optional[np.ndarray]]]:
        if not self._operand.is_low_rank:
            return None
        return {
            "code_factors": self._operand._code_factors,
            "weight_factors": self._operand._weight_factors,
        }

    def matmul(self, activation_codes: np.ndarray) -> np.ndarray:
        codes = self._check_codes(activation_codes)
        accumulator = np.zeros((codes.shape[0], self.outputs), dtype=np.float64)
        if self._operand.is_low_rank:
            self._operand.add_low_rank_product(codes, accumulator)
        else:
            self._operand.add_per_code_products(codes, accumulator)
        return np.rint(accumulator).astype(np.int64)


class ErrorCorrectionKernel(MatmulKernel):
    """Exact BLAS product plus a correction drawn from the error LUT.

    The correction uses the error table's exact integer factors when they
    exist, and otherwise loops over only the error-active codes present in
    the batch (the rows of ``error_lut()`` with any nonzero entry).
    """

    strategy = "errorcorrection"

    def __init__(self, multiplier, weight_sign, weight_magnitude) -> None:
        super().__init__(multiplier, weight_sign, weight_magnitude)
        qmax = float(multiplier.operand_max)
        exact_bound = qmax * qmax * qmax * max(self.inner, 1)
        if exact_bound >= _EXACT_FLOAT_BOUND:
            raise ConfigurationError(
                "operand range too wide for an exactly-rounded BLAS product"
            )
        self._signed_weights = (weight_sign * weight_magnitude).astype(np.float64)
        error = multiplier.error_lut()
        self._operand = _TableOperand(
            error,
            _analysed_factors(multiplier, error),
            weight_sign,
            weight_magnitude,
            reserved_bound=exact_bound,
        )
        if not self._operand.is_low_rank:
            self._active = np.any(error != 0, axis=1)

    def describe(self) -> str:
        if self._operand.is_low_rank:
            return f"errorcorrection[exact + low-rank r={self._operand.rank}]"
        return "errorcorrection[exact + active-code loop]"

    def matmul(self, activation_codes: np.ndarray) -> np.ndarray:
        codes = self._check_codes(activation_codes)
        accumulator = codes.astype(np.float64) @ self._signed_weights
        if self._operand.is_low_rank:
            self._operand.add_low_rank_product(codes, accumulator)
        else:
            self._operand.add_per_code_products(codes, accumulator, self._active)
        return np.rint(accumulator).astype(np.int64)


class SparseOneHotKernel(MatmulKernel):
    """Full-rank LUT matmul as a single scipy.sparse one-hot product.

    The accumulation ``result = sum_c onehot(A == c) @ T_c`` is evaluated in
    one shot: the activation codes become a CSR matrix ``S`` of shape
    ``(M, C*K)`` holding exactly one 1 per ``(m, k)`` entry at column
    ``A[m, k] * K + k``, and the weight side becomes the stacked table
    ``T[c*K + k, n] = sign[k, n] * LUT[c, mag[k, n]]``, built once per layer
    at construction when it fits the byte budget (every layer of the repo's
    architectures does).  All arithmetic is integer, so the accumulator is
    exact — bit-identical to the gather reference with no float-rounding
    argument required; int32 operands are used when the worst-case partial
    sum ``K * max|LUT|`` fits in 31 bits (half the memory traffic), int64
    otherwise.

    Shapes whose stacked table exceeds the budget adapt per call: batches
    with ``M >= 2*C`` rebuild the table in budget-bounded code chunks (the
    ``O(C*K*N)`` rebuild is then dominated by the ``O(M*K*N)`` product),
    while smaller batches delegate to the chunked gather reference, which
    is the cheapest known evaluation when tables cannot be amortised.
    """

    strategy = "sparse"

    def __init__(self, multiplier, weight_sign, weight_magnitude) -> None:
        super().__init__(multiplier, weight_sign, weight_magnitude)
        if _scipy_sparse is None:  # pragma: no cover - scipy is baked in
            raise ConfigurationError(
                "the 'sparse' kernel requires scipy; install it or pick "
                "another strategy"
            )
        self._lut = multiplier.lut()
        lut_peak = max(1, int(np.abs(self._lut).max(initial=1)))
        self._dtype = (
            np.int32 if max(self.inner, 1) * lut_peak < (1 << 31) else np.int64
        )
        row_bytes = self.inner * self.outputs * np.dtype(self._dtype).itemsize
        #: codes per chunk when the stacked table is built on the fly
        self.group_codes = max(1, _SPARSE_STACK_BUDGET_BYTES // max(1, row_bytes))
        if self.codes_total * row_bytes <= _SPARSE_STACK_BUDGET_BYTES:
            self._stacked_table: Optional[np.ndarray] = self._stack_rows(
                np.arange(self.codes_total)
            )
        else:
            self._stacked_table = None

    def describe(self) -> str:
        bits = 8 * np.dtype(self._dtype).itemsize
        if self._stacked_table is not None:
            return f"sparse[stacked one-hot, int{bits}]"
        return (
            f"sparse[grouped one-hot, int{bits}, {self.group_codes} codes/chunk, "
            "gather below amortisation]"
        )

    def _stack_rows(self, codes_subset: np.ndarray) -> np.ndarray:
        """Stacked weight table ``(len(subset)*K, N)`` for a code subset."""
        rows = self._lut[np.asarray(codes_subset, dtype=np.intp)]
        gathered = rows.astype(self._dtype)[:, self.weight_magnitude]
        gathered *= self.weight_sign[None, :, :].astype(self._dtype)
        return gathered.reshape(-1, self.outputs)

    def _onehot(self, codes: np.ndarray, n_code_blocks: int):
        """CSR one-hot of shape ``(M, n_code_blocks * K)`` — K ones per row."""
        m, k = codes.shape
        # int64 before scaling: uint8 codes would wrap at codes * k
        columns = (
            codes.astype(np.int64) * k + np.arange(k, dtype=np.int64)[None, :]
        ).ravel()
        indptr = np.arange(m + 1, dtype=np.int64) * k
        data = np.ones(m * k, dtype=self._dtype)
        return _scipy_sparse.csr_array(
            (data, columns, indptr), shape=(m, n_code_blocks * k)
        )

    def matmul(self, activation_codes: np.ndarray) -> np.ndarray:
        codes = self._check_codes(activation_codes)
        if codes.size and (codes.min() < 0 or codes.max() >= self.codes_total):
            raise ConfigurationError(
                f"activation codes outside the {self.multiplier.bit_width}-bit "
                "operand range"
            )
        if self._stacked_table is not None:
            product = self._onehot(codes, self.codes_total) @ self._stacked_table
            return np.asarray(product, dtype=np.int64)
        if codes.shape[0] >= 2 * self.codes_total:
            return self._matmul_grouped(codes)
        # Below the amortisation point the table rebuild would cost more
        # than the product itself; the chunked gather reference is cheapest.
        from repro.axnn.approx_ops import approx_matmul

        return approx_matmul(codes, self.weight_sign, self.weight_magnitude, self._lut)

    def _matmul_grouped(self, codes: np.ndarray) -> np.ndarray:
        """Chunk the one-hot product over groups of codes present in the batch."""
        result = np.zeros((codes.shape[0], self.outputs), dtype=np.int64)
        present = np.unique(codes)
        k = self.inner
        for start in range(0, present.size, self.group_codes):
            group = present[start : start + self.group_codes]
            position = np.full(self.codes_total, -1, dtype=np.int64)
            position[group] = np.arange(group.size)
            in_group = position[codes] >= 0
            row_index, k_index = np.nonzero(in_group)
            columns = position[codes[row_index, k_index]] * k + k_index
            block = _scipy_sparse.csr_array(
                (np.ones(row_index.size, dtype=self._dtype), (row_index, columns)),
                shape=(codes.shape[0], group.size * k),
            )
            result += block @ self._stack_rows(group)
        return result


class NativeLUTKernel(MatmulKernel):
    """Compiled LUT accumulation from :mod:`repro.axnn.native`.

    The weights are constant, so construction folds them into the
    weight-stationary signed table ``T[k, c, n] = sign[k, n] * LUT[c,
    mag[k, n]]`` (int32, shape ``(K, 2**bits, N)`` with N zero-padded to a
    multiple of 8).  The compiled loop then adds one contiguous table row
    ``T[k, codes[m, k], n0:n0+8]`` per ``(m, k)`` and lane block into
    int32 register accumulators — one SIMD row add instead of N LUT
    gathers, sign loads and multiplies.  The table is used while
    ``K * max|LUT| < 2**31`` (no int32 partial sum can overflow, so the
    integer result is exact in any order) and it fits
    ``_NATIVE_TABLE_BUDGET_BYTES``; a LeNet-5 victim's conv1, conv2 and fc2
    tables take ~3.9 MiB together.

    Layers over either bound keep the LUT loop (:func:`lut_loop_operands`:
    weight magnitudes packed to uint8 and signs to int8 once per layer, the
    LUT once per multiplier), cache-blocked over output columns with int64
    accumulators.  LeNet conv3, whose table would take 30 MiB
    per victim, runs there.  Activation codes arrive as uint8 from the
    Ax-layers' quantizers and are used as they are; other integer codes are
    range-checked and packed.  ctypes releases the GIL for the whole call.

    Construction fails with :class:`ConfigurationError` when no native
    backend resolved (``REPRO_KERNEL_BACKEND=numpy``, or no C compiler is
    available) or when the multiplier does not fit the
    packed layout; ``"auto"`` only selects this strategy when it is
    constructible.
    """

    strategy = "native"

    def __init__(self, multiplier, weight_sign, weight_magnitude) -> None:
        super().__init__(multiplier, weight_sign, weight_magnitude)
        from repro.axnn import native as _native

        backend = _native.get_backend()
        if backend is None:
            raise ConfigurationError(
                "the 'native' kernel requires a compiled backend; set "
                f"{_native.BACKEND_ENV_VAR}=auto or cext and install a C compiler"
            )
        if multiplier.operand_max > 255:
            raise ConfigurationError(
                "the 'native' kernel packs operands to 8 bits; "
                f"{multiplier.name!r} has operand_max={multiplier.operand_max}"
            )
        if weight_sign.size and int(np.abs(weight_sign).max()) > 1:
            raise ConfigurationError(
                "the 'native' kernel expects sign values in {-1, 0, 1}"
            )
        lut = multiplier.lut()
        peak = int(np.abs(lut).max(initial=0))
        if peak >= (1 << 31):
            raise ConfigurationError(
                "the 'native' kernel packs the LUT to at most 32 bits; "
                f"{multiplier.name!r} has |entry| up to {peak}"
            )
        self._backend = backend
        self._table: Optional[np.ndarray] = None
        self._lut_operands: Optional[Dict[str, np.ndarray]] = None
        if _native_table_fits(peak, self.codes_total, self.inner, self.outputs):
            self._table = self._signed_table(lut)
        else:
            self._lut_operands = lut_loop_operands(self)

    def _signed_table(self, lut: np.ndarray) -> np.ndarray:
        """``T[k, c, n] = sign[k, n] * LUT[c, mag[k, n]]``, N padded to 8."""
        padded = _padded_outputs(self.outputs)
        table = np.zeros((self.inner, self.codes_total, padded), dtype=np.int32)
        # (K, N, C): row ``mag[k, n]`` of the transposed LUT per weight
        gathered = np.ascontiguousarray(lut.T, dtype=np.int32)[self.weight_magnitude]
        gathered *= self.weight_sign[:, :, None].astype(np.int32)
        table[:, :, : self.outputs] = gathered.transpose(0, 2, 1)
        return table

    def describe(self) -> str:
        if self._table is not None:
            return f"native[{self._backend.name}, int32 table]"
        bits = 8 * self._lut_operands["lut"].dtype.itemsize
        return f"native[{self._backend.name}, int{bits} lut]"

    def fused_operands(self) -> Dict[str, np.ndarray]:
        """This kernel's product operands as :class:`FusedMember` fields:
        the signed table, or the LUT loop's sign, magnitude and LUT."""
        if self._table is not None:
            return {"table": self._table}
        return self._lut_operands

    def matmul(self, activation_codes: np.ndarray) -> np.ndarray:
        """The int64 accumulator, the same loops as the fused layer call
        (:class:`repro.axnn.layers.NativeLayerCall`) with the epilogue off."""
        codes_u8 = self.packed_codes(activation_codes)
        out = np.zeros((codes_u8.shape[0], self.outputs), dtype=np.int64)
        if codes_u8.shape[0] == 0 or self.inner == 0 or self.outputs == 0:
            return out
        if self._table is not None:
            self._backend.table_matmul(codes_u8, self._table, out)
        else:
            operands = self._lut_operands
            self._backend.lut_matmul(codes_u8, operands["sign"], operands["mag"],
                                     operands["lut"], out)
        return out


def lut_loop_operands(kernel: MatmulKernel) -> Optional[Dict[str, np.ndarray]]:
    """The compiled LUT loop's operands for ``kernel``'s multiplier and
    weights, as :class:`FusedMember` fields; ``None`` when the loop cannot
    run them (operands wider than 8 bits, or signs outside {-1, 0, 1}).

    Signs pack to int8 and magnitudes to uint8 (``K * N`` bytes each); the
    LUT is the multiplier's process-wide :meth:`Multiplier.packed_lut`, so
    every kernel and fused member of one multiplier reads one copy.
    """
    if kernel.codes_total > 256:
        return None
    if kernel.weight_sign.size and int(np.abs(kernel.weight_sign).max()) > 1:
        return None
    return {
        "sign": np.ascontiguousarray(kernel.weight_sign, dtype=np.int8),
        "mag": np.ascontiguousarray(kernel.weight_magnitude, dtype=np.uint8),
        "lut": kernel.multiplier.packed_lut(),
    }


#: a fused member whose kernel holds low-rank factors (``exact`` is rank 1)
#: runs the compiled factor product up to this rank and the LUT loop above
#: it.  Read off the paired ``panel_factor_rank`` cells of
#: ``benchmarks/bench_native_kernels.py`` (LeNet M1-M9 panel pass, 2-core
#: x86_64, one BLAS thread, speedup of this cut-off over the other, three
#: recordings): at batch 1 over a cut-off of 8 1.14-1.20x, over 1
#: 0.95-0.96x; at batch 60 over 1 1.04-1.10x, over 8 0.96-1.02x.  4 keeps
#: ranks 3-4 (M2, M3) on BLAS and sends ranks 5-8 (M5, M8) to the LUT loop
FACTOR_PRODUCT_MAX_RANK = 4


def member_operands(kernel: MatmulKernel) -> Optional[Dict[str, np.ndarray]]:
    """``kernel``'s product operands in a fused call, as
    :class:`FusedMember` fields; ``None`` when no compiled loop can run it.

    A native kernel brings its signed table or LUT-loop operands.  A kernel
    with low-rank factors of rank at most :data:`FACTOR_PRODUCT_MAX_RANK`
    brings its factors (:meth:`MatmulKernel.factor_operands`, no copy) when
    the backend's factor product can call BLAS; any other kernel the LUT
    loop's (:func:`lut_loop_operands`).
    """
    if isinstance(kernel, NativeLUTKernel):
        return kernel.fused_operands()
    from repro.axnn import native as _native

    factors = kernel.factor_operands()
    backend = _native.get_backend()
    if (
        factors is not None
        and (
            factors["code_factors"] is None
            or factors["code_factors"].shape[1] <= FACTOR_PRODUCT_MAX_RANK
        )
        and backend is not None
        and backend.enable_blas()
    ):
        return factors
    return lut_loop_operands(kernel)


def _padded_outputs(outputs: int) -> int:
    """Output width rounded up to the native table's lane count."""
    return -(-outputs // _NATIVE_TABLE_LANES) * _NATIVE_TABLE_LANES


def _native_table_fits(
    lut_peak: int, codes_total: int, inner: Optional[int], outputs: Optional[int]
) -> bool:
    """Whether a ``(K, N)`` native kernel may use the signed int32 table.

    Both bounds of :class:`NativeLUTKernel`: int32 accumulation is exact
    (``K * max|LUT| < 2**31``) and the table fits the per-layer byte
    budget.  Unknown shapes never fit.
    """
    if inner is None or outputs is None:
        return False
    if max(inner, 1) * lut_peak >= (1 << 31):
        return False
    table_bytes = inner * codes_total * _padded_outputs(outputs) * 4
    return table_bytes <= _NATIVE_TABLE_BUDGET_BYTES


def _native_strategy_available(multiplier: Multiplier) -> bool:
    """Whether ``"auto"`` may route ``multiplier`` to the native kernel."""
    from repro.axnn import native as _native

    if _native.get_backend() is None:
        return False
    if multiplier.operand_max > 255:
        return False
    return multiplier_kernel_profile(multiplier).lut_peak < (1 << 31)


_KERNEL_CLASSES = {
    "gather": GatherKernel,
    "percode": PerCodeBLASKernel,
    "errorcorrection": ErrorCorrectionKernel,
    "sparse": SparseOneHotKernel,
    "exact": ExactBLASKernel,
    "native": NativeLUTKernel,
}

KernelSpec = Union[str, MatmulKernel]


def select_strategy(
    multiplier: Multiplier,
    outputs: Optional[int] = None,
    inner: Optional[int] = None,
) -> str:
    """The "auto" heuristic: pick the cheapest bit-identical strategy.

    ``inner`` and ``outputs`` are the contraction depth K and output width
    N of the bound ``(K, N)`` weights; without them the choice is the one
    for a wide layer.  The rules, in order:

    * bit-exact multipliers take the plain BLAS product (``exact``);
    * rank-r LUTs with r >= 1 take the native kernel when a backend
      resolved, its signed table fits (``K * max|LUT| < 2**31`` and within
      ``_NATIVE_TABLE_BUDGET_BYTES``) and ``N < _NATIVE_WIDTH_PER_RANK * r``,
      else the fused per-code BLAS kernel (also for rank 0);
    * full-rank LUTs (compressor trees, Mitchell, noisy-LSB) take the
      native kernel when a backend resolved — with the table when it fits,
      the LUT loop otherwise — else the sparse one-hot kernel (``gather``
      if scipy is ever absent).

    ``errorcorrection`` and ``gather`` are never chosen; both stay
    constructible by name.  The choice is made once per layer and ignores
    the batch.  A compiled :class:`repro.axnn.panel.VictimPanel` pass runs
    the product of a member chosen here by :func:`member_operands`: a
    ``percode`` member of rank above :data:`FACTOR_PRODUCT_MAX_RANK` there
    takes the LUT loop, whose cost does not stream a ``(K*r, N)`` float64
    factor operand per call; a lone layer keeps the kernel chosen here.
    """
    if multiplier.is_exact():
        return "exact"
    profile = multiplier_kernel_profile(multiplier)
    lut_rank = profile.lut_rank
    if lut_rank is not None:
        narrow = (
            outputs is not None
            and outputs < _NATIVE_WIDTH_PER_RANK * lut_rank
            and _native_table_fits(
                profile.lut_peak, multiplier.operand_max + 1, inner, outputs
            )
        )
        if narrow and _native_strategy_available(multiplier):
            return "native"
        return "percode"
    if _native_strategy_available(multiplier):
        return "native"
    return "sparse" if _scipy_sparse is not None else "gather"


def make_kernel(
    multiplier: Multiplier,
    weight_sign: np.ndarray,
    weight_magnitude: np.ndarray,
    strategy: KernelSpec = "auto",
) -> MatmulKernel:
    """Build a bound kernel for ``(multiplier, weights)``.

    ``strategy`` is a kernel name (see :data:`KERNEL_STRATEGIES`),
    ``"auto"`` (chosen once here from the multiplier's
    LUT structure and the weights' ``(K, N)`` shape, see
    :func:`select_strategy`), or an already constructed
    :class:`MatmulKernel` (returned unchanged).
    """
    if isinstance(strategy, MatmulKernel):
        return strategy
    name = normalize_strategy(strategy)
    if name == "auto":
        shape = np.shape(weight_sign)
        inner, outputs = shape if len(shape) == 2 else (None, None)
        name = select_strategy(multiplier, outputs, inner)
    return _KERNEL_CLASSES[name](multiplier, weight_sign, weight_magnitude)
