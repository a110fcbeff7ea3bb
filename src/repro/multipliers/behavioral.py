"""Behavioural approximate-multiplier families.

These are parametric, well-understood approximation schemes from the
approximate-arithmetic literature.  Named EvoApprox-like instances (see
:mod:`repro.multipliers.evoapprox`) are built by picking a family and a
parameter set whose measured error profile matches the role the multiplier
plays in the paper (see README.md, "Substitutions").

Families
--------
ExactMultiplier
    The accurate reference (``a * b``).
OperandTruncationMultiplier
    Zeroes the ``k`` least-significant bits of each operand before an exact
    multiplication (always under-estimates).
PartialProductTruncationMultiplier
    Drops all partial-product bits in the ``cut`` least-significant columns
    (always under-estimates, much milder than operand truncation).
LowerColumnOrMultiplier
    Replaces the sum of each of the ``cut`` least-significant columns with a
    logical OR of its partial products (under-estimates for busy columns).
BrokenCarryMultiplier
    Accumulates partial-product rows with a carry chain that is cut at a
    fixed column, losing carries that would cross the boundary.
MitchellLogMultiplier
    Mitchell's logarithmic multiplier (piecewise-linear log/antilog
    approximation; systematically under-estimates, large relative error).
DrumMultiplier
    Dynamic-range unbiased multiplier: keeps the ``k`` leading bits of each
    operand (with steering-bit rounding), multiplies exactly and shifts back.
NoisyLSBMultiplier
    Deterministic pseudo-random bit flips in the low result bits, modelling
    an aggressively rewired partial-product tree with sign-balanced errors.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.multipliers.base import Multiplier


class ExactMultiplier(Multiplier):
    """The accurate multiplier (paper label 1JFF / M1 / A1)."""

    def __init__(self, name: str = "exact", bit_width: int = 8) -> None:
        super().__init__(name, bit_width)

    def _compute(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return a * b


class OperandTruncationMultiplier(Multiplier):
    """Exact multiplication of operands with truncated LSBs."""

    def __init__(
        self, name: str, truncate_a: int, truncate_b: int, bit_width: int = 8
    ) -> None:
        super().__init__(name, bit_width)
        for label, value in (("truncate_a", truncate_a), ("truncate_b", truncate_b)):
            if not 0 <= value < bit_width:
                raise ConfigurationError(
                    f"{label} must be in [0, {bit_width - 1}], got {value}"
                )
        self.truncate_a = truncate_a
        self.truncate_b = truncate_b

    def _compute(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        mask_a = ~((1 << self.truncate_a) - 1)
        mask_b = ~((1 << self.truncate_b) - 1)
        return (a & mask_a) * (b & mask_b)


class PartialProductTruncationMultiplier(Multiplier):
    """Drops the partial-product bits of the ``cut`` least-significant columns."""

    def __init__(self, name: str, cut_columns: int, bit_width: int = 8) -> None:
        super().__init__(name, bit_width)
        if not 0 <= cut_columns <= 2 * bit_width:
            raise ConfigurationError(
                f"cut_columns must be in [0, {2 * bit_width}], got {cut_columns}"
            )
        self.cut_columns = cut_columns

    def _compute(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        result = np.zeros(np.broadcast(a, b).shape, dtype=np.int64)
        for i in range(self.bit_width):
            a_bit = (a >> i) & 1
            for j in range(self.bit_width):
                column = i + j
                if column < self.cut_columns:
                    continue
                b_bit = (b >> j) & 1
                result += (a_bit & b_bit).astype(np.int64) << column
        return result


class LowerColumnOrMultiplier(Multiplier):
    """OR-compresses the ``cut`` least-significant partial-product columns."""

    def __init__(self, name: str, cut_columns: int, bit_width: int = 8) -> None:
        super().__init__(name, bit_width)
        if not 0 <= cut_columns <= 2 * bit_width:
            raise ConfigurationError(
                f"cut_columns must be in [0, {2 * bit_width}], got {cut_columns}"
            )
        self.cut_columns = cut_columns

    def _compute(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        shape = np.broadcast(a, b).shape
        result = np.zeros(shape, dtype=np.int64)
        for column in range(2 * self.bit_width):
            column_sum = np.zeros(shape, dtype=np.int64)
            column_or = np.zeros(shape, dtype=np.int64)
            for i in range(self.bit_width):
                j = column - i
                if not 0 <= j < self.bit_width:
                    continue
                bit = ((a >> i) & 1) & ((b >> j) & 1)
                column_sum += bit
                column_or |= bit
            if column < self.cut_columns:
                result += column_or << column
            else:
                result += column_sum << column
        return result


class BrokenCarryMultiplier(Multiplier):
    """Accumulates partial-product rows with a carry chain cut at ``segment``.

    The accumulation of each partial-product row is performed as an exact
    addition within the low segment (bits ``< segment``) and within the high
    segment, but the carry from the low segment into the high segment is
    discarded — the behaviour of a speculative/segmented adder that never
    resolves its worst-case carry.
    """

    def __init__(self, name: str, segment: int, bit_width: int = 8) -> None:
        super().__init__(name, bit_width)
        if not 1 <= segment < 2 * bit_width:
            raise ConfigurationError(
                f"segment must be in [1, {2 * bit_width - 1}], got {segment}"
            )
        self.segment = segment

    def _compute(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        low_mask = (1 << self.segment) - 1
        accumulator = np.zeros(np.broadcast(a, b).shape, dtype=np.int64)
        for row in range(self.bit_width):
            row_value = (a * ((b >> row) & 1)) << row
            low = (accumulator & low_mask) + (row_value & low_mask)
            high = (accumulator >> self.segment) + (row_value >> self.segment)
            # the carry out of the low segment (low >> segment) is dropped
            accumulator = ((high << self.segment) | (low & low_mask)).astype(np.int64)
        return accumulator


class MitchellLogMultiplier(Multiplier):
    """Mitchell's logarithmic multiplier (1962).

    ``log2(x)`` is approximated as ``k + m`` where ``k`` is the position of
    the leading one and ``m`` the fractional mantissa; the product is
    reconstructed from the summed approximate logarithms.  Errors are always
    under-estimates with a worst-case relative error of about 11%.
    """

    def __init__(self, name: str = "mitchell", bit_width: int = 8) -> None:
        super().__init__(name, bit_width)

    def _compute(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        a = a.astype(np.float64)
        b = b.astype(np.float64)
        result = np.zeros(np.broadcast(a, b).shape, dtype=np.float64)
        nonzero = (a > 0) & (b > 0)
        if np.any(nonzero):
            an = a[nonzero]
            bn = b[nonzero]
            ka = np.floor(np.log2(an))
            kb = np.floor(np.log2(bn))
            ma = an / np.exp2(ka) - 1.0
            mb = bn / np.exp2(kb) - 1.0
            msum = ma + mb
            carry = msum >= 1.0
            approx = np.where(
                carry,
                np.exp2(ka + kb + 1) * msum,
                np.exp2(ka + kb) * (1.0 + msum),
            )
            result[nonzero] = approx
        return np.floor(result).astype(np.int64)


class DrumMultiplier(Multiplier):
    """DRUM-style dynamic-range unbiased multiplier (Hashemi et al., 2015).

    Keeps the ``k`` most significant bits starting at the leading one of each
    operand, forces the discarded part to its expected value (steering bit),
    multiplies the reduced operands exactly and shifts the result back.
    Errors are approximately zero-mean.
    """

    def __init__(self, name: str, k: int = 4, bit_width: int = 8) -> None:
        super().__init__(name, bit_width)
        if not 2 <= k <= bit_width:
            raise ConfigurationError(f"k must be in [2, {bit_width}], got {k}")
        self.k = k

    def _reduce(self, x: np.ndarray) -> tuple:
        """Return (reduced operand, left-shift amount) for each element."""
        x = x.astype(np.int64)
        leading = np.zeros_like(x)
        nonzero = x > 0
        leading[nonzero] = np.floor(np.log2(x[nonzero])).astype(np.int64)
        shift = np.maximum(leading - (self.k - 1), 0)
        reduced = x >> shift
        # steering bit: set the LSB of the truncated part's expected value
        steer = np.where(shift > 0, 1, 0)
        reduced = (reduced | steer).astype(np.int64)
        return reduced, shift

    def _compute(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        ra, sa = self._reduce(a)
        rb, sb = self._reduce(b)
        return (ra * rb) << (sa + sb)


class NoisyLSBMultiplier(Multiplier):
    """Deterministic pseudo-random perturbation of the exact product.

    The exact product's low bits are XOR-ed with a hash of the operand pair,
    bounded to ``max_error``.  This family models aggressively restructured
    partial-product trees whose errors look input-dependent and sign-balanced
    — the "masked or unmasked" error traversal the paper discusses.
    """

    def __init__(
        self, name: str, max_error: int, seed: int = 0x9E3779B1, bit_width: int = 8
    ) -> None:
        super().__init__(name, bit_width)
        if max_error < 1:
            raise ConfigurationError(f"max_error must be >= 1, got {max_error}")
        self.max_error = max_error
        self.seed = seed

    def _compute(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        exact = a * b
        # cheap integer hash of the operand pair (deterministic, data dependent)
        h = (a * np.int64(2654435761) + b * np.int64(40503) + np.int64(self.seed))
        h = np.bitwise_xor(h, h >> 13) & 0xFFFFFFFF
        magnitude = (h % (self.max_error + 1)).astype(np.int64)
        sign = np.where((h >> 7) & 1 == 1, 1, -1).astype(np.int64)
        # only perturb when both operands are "busy" (non-zero), as real
        # approximate partial-product trees produce exact zeros for zero inputs
        busy = (a > 0) & (b > 0)
        approx = exact + np.where(busy, sign * magnitude, 0)
        return np.clip(approx, 0, None)
