"""Quantization schemes: affine (asymmetric) and symmetric fixed point.

An affine scheme maps a real value ``x`` to an unsigned integer ``q`` via

    q = clip(round(x / scale) + zero_point, 0, 2**bits - 1)

and back via ``x ≈ (q - zero_point) * scale``.  A symmetric scheme maps to a
signed integer without a zero point.  Both are per-tensor, matching the
fixed-point quantization used by the paper.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import CalibrationError, ConfigurationError


@dataclass(frozen=True)
class AffineQuantization:
    """Per-tensor affine (asymmetric, unsigned) quantization."""

    scale: float
    zero_point: int
    bits: int = 8

    def __post_init__(self) -> None:
        if self.scale <= 0:
            raise ConfigurationError(f"scale must be positive, got {self.scale}")
        if not 1 <= self.bits <= 16:
            raise ConfigurationError(f"bits must be in [1, 16], got {self.bits}")
        if not 0 <= self.zero_point <= self.qmax:
            raise ConfigurationError(
                f"zero_point must be in [0, {self.qmax}], got {self.zero_point}"
            )

    @property
    def qmax(self) -> int:
        """Largest quantized code."""
        return (1 << self.bits) - 1

    def _clipped_codes(self, x: np.ndarray) -> np.ndarray:
        """``clip(round(x / scale) + zero_point)`` as float64, computed in
        one temporary (the division's result is updated in place)."""
        q = np.asarray(x, dtype=np.float64) / self.scale
        np.round(q, out=q)
        q += self.zero_point
        return np.clip(q, 0, self.qmax, out=q)

    def quantize(self, x: np.ndarray) -> np.ndarray:
        """Quantize a float array to integer codes (int64)."""
        return self._clipped_codes(x).astype(np.int64)

    def quantize_packed(self, x: np.ndarray) -> np.ndarray:
        """The codes of :meth:`quantize` in the narrowest dtype the kernels
        take: uint8 for schemes of at most 8 bits, int64 otherwise."""
        dtype = np.uint8 if self.bits <= 8 else np.int64
        return self._clipped_codes(x).astype(dtype)

    def dequantize(self, q: np.ndarray) -> np.ndarray:
        """Map integer codes back to floats."""
        return (np.asarray(q, dtype=np.float64) - self.zero_point) * self.scale

    def round_trip(self, x: np.ndarray) -> np.ndarray:
        """Quantize then dequantize (the fixed-point projection of ``x``)."""
        return self.dequantize(self.quantize(x))


@dataclass(frozen=True)
class SymmetricQuantization:
    """Per-tensor symmetric (signed, no zero point) quantization."""

    scale: float
    bits: int = 8

    def __post_init__(self) -> None:
        if self.scale <= 0:
            raise ConfigurationError(f"scale must be positive, got {self.scale}")
        if not 2 <= self.bits <= 16:
            raise ConfigurationError(f"bits must be in [2, 16], got {self.bits}")

    @property
    def qmax(self) -> int:
        """Largest positive quantized code (magnitude bound)."""
        return (1 << (self.bits - 1)) - 1

    def quantize(self, x: np.ndarray) -> np.ndarray:
        """Quantize a float array to signed integer codes (int64)."""
        q = np.round(np.asarray(x, dtype=np.float64) / self.scale)
        return np.clip(q, -self.qmax, self.qmax).astype(np.int64)

    def dequantize(self, q: np.ndarray) -> np.ndarray:
        """Map signed integer codes back to floats."""
        return np.asarray(q, dtype=np.float64) * self.scale

    def round_trip(self, x: np.ndarray) -> np.ndarray:
        """Quantize then dequantize (the fixed-point projection of ``x``)."""
        return self.dequantize(self.quantize(x))


@dataclass
class QuantizedTensor:
    """An integer tensor together with the scheme that produced it."""

    codes: np.ndarray
    scheme: object

    @property
    def shape(self) -> tuple:
        return self.codes.shape

    def dequantize(self) -> np.ndarray:
        """Recover the float approximation of the original tensor."""
        return self.scheme.dequantize(self.codes)


def calibrate_affine(
    x: np.ndarray, bits: int = 8, min_range: float = 1e-8
) -> AffineQuantization:
    """Min/max calibration of an affine scheme over a float tensor."""
    x = np.asarray(x, dtype=np.float64)
    if x.size == 0:
        raise CalibrationError("cannot calibrate on an empty tensor")
    lo = float(min(x.min(), 0.0))
    hi = float(max(x.max(), 0.0))
    span = max(hi - lo, min_range)
    qmax = (1 << bits) - 1
    scale = span / qmax
    zero_point = int(np.clip(np.round(-lo / scale), 0, qmax))
    return AffineQuantization(scale=scale, zero_point=zero_point, bits=bits)


def calibrate_symmetric(
    x: np.ndarray, bits: int = 8, min_range: float = 1e-8
) -> SymmetricQuantization:
    """Max-abs calibration of a symmetric scheme over a float tensor."""
    x = np.asarray(x, dtype=np.float64)
    if x.size == 0:
        raise CalibrationError("cannot calibrate on an empty tensor")
    amax = max(float(np.abs(x).max()), min_range)
    qmax = (1 << (bits - 1)) - 1
    return SymmetricQuantization(scale=amax / qmax, bits=bits)
