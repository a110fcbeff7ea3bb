"""Exact and approximate 4:2 compressors.

A 4:2 compressor takes four partial-product bits plus a carry-in and produces
a sum bit, a carry bit and a carry-out such that

    x1 + x2 + x3 + x4 + cin == sum + 2 * (carry + cout)

Approximate compressors break this identity for a documented subset of the 32
input combinations; they are the building blocks of the compressor-tree
multipliers in :mod:`repro.circuits.array_multiplier`.

``compress`` on per-lane 0/1 arrays is the single definition of each
compressor's logic; :meth:`Compressor42.compress_packed` evaluates it on
packed 64-lane words through a program compiled once from the 32-row
:meth:`Compressor42.truth_table`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Tuple

import numpy as np

from repro.circuits.bitops import (
    bit_and,
    bit_or,
    bit_xor,
    compile_truth_table,
    run_packed,
)


class Compressor42(ABC):
    """Interface for a 4:2 compressor operating on vectorised bit arrays."""

    name: str = "compressor42"

    #: packed program compiled from :meth:`truth_table` on first use (two
    #: threads racing here compile the same program; either one is kept)
    _packed = None

    @abstractmethod
    def compress(
        self,
        x1: np.ndarray,
        x2: np.ndarray,
        x3: np.ndarray,
        x4: np.ndarray,
        cin: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return ``(sum, carry, cout)`` bit arrays."""

    def truth_table(self) -> np.ndarray:
        """Return the 32x8 truth table ``[x1..x4, cin, sum, carry, cout]``."""
        rows = []
        for value in range(32):
            bits = [(value >> k) & 1 for k in range(5)]
            x1, x2, x3, x4, cin = (np.array([bit]) for bit in bits)
            s, c, co = self.compress(x1, x2, x3, x4, cin)
            rows.append(bits + [int(s[0]), int(c[0]), int(co[0])])
        return np.array(rows, dtype=np.int64)

    def compress_packed(
        self,
        x1: np.ndarray,
        x2: np.ndarray,
        x3: np.ndarray,
        x4: np.ndarray,
        cin: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`compress` on packed 64-lane ``uint64`` words."""
        if self._packed is None:
            self._packed = compile_truth_table(self.truth_table(), inputs=5)
        return run_packed(self._packed, (x1, x2, x3, x4, cin))

    def error_rate(self) -> float:
        """Fraction of the 32 input rows whose weighted output value is wrong."""
        table = self.truth_table()
        expected = table[:, :5].sum(axis=1)
        produced = table[:, 5] + 2 * (table[:, 6] + table[:, 7])
        return float(np.mean(expected != produced))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class ExactCompressor42(Compressor42):
    """The exact 4:2 compressor (mux-based decomposition)."""

    name = "exact42"

    def compress(self, x1, x2, x3, x4, cin):
        x1 = np.asarray(x1, dtype=np.int64)
        x2 = np.asarray(x2, dtype=np.int64)
        x3 = np.asarray(x3, dtype=np.int64)
        x4 = np.asarray(x4, dtype=np.int64)
        cin = np.asarray(cin, dtype=np.int64)
        t = bit_xor(bit_xor(x1, x2), bit_xor(x3, x4))
        s = bit_xor(t, cin)
        # cout = x3 when x1 ^ x2 else x1  (standard mux form)
        sel = bit_xor(x1, x2)
        cout = np.where(sel == 1, x3, x1)
        # carry = cin when t else x4
        carry = np.where(t == 1, cin, x4)
        return s, carry, cout


class ApproximateCompressor42A(Compressor42):
    """Approximate 4:2 compressor that ignores the carry-in.

    ``sum = x1^x2^x3^x4``, ``carry = (x1&x2) | (x3&x4)``, ``cout = 0``.
    The weighted output is wrong whenever ``cin = 1``, when two inputs from
    different pairs are set (e.g. ``x1`` and ``x3``), or when more than two
    inputs are set.  The error is always an under-estimate, which makes
    multipliers built from this cell negatively biased.
    """

    name = "approx42a"

    def compress(self, x1, x2, x3, x4, cin):
        s = bit_xor(bit_xor(x1, x2), bit_xor(x3, x4))
        carry = bit_or(bit_and(x1, x2), bit_and(x3, x4))
        cout = np.zeros_like(np.asarray(x1, dtype=np.int64))
        return s, carry, cout


class ApproximateCompressor42B(Compressor42):
    """A more aggressive approximate 4:2 compressor (OR-based sum).

    ``sum = (x1|x2) ^ (x3|x4)``, ``carry = (x1&x2) | (x3&x4)``, ``cout = 0``;
    the carry-in is ignored.  Compared with variant A the sum term introduces
    additional over-estimates, partially cancelling the missing carries.
    """

    name = "approx42b"

    def compress(self, x1, x2, x3, x4, cin):
        s = bit_xor(bit_or(x1, x2), bit_or(x3, x4))
        carry = bit_or(bit_and(x1, x2), bit_and(x3, x4))
        cout = np.zeros_like(np.asarray(x1, dtype=np.int64))
        return s, carry, cout


COMPRESSORS = {
    compressor.name: compressor
    for compressor in (
        ExactCompressor42(),
        ApproximateCompressor42A(),
        ApproximateCompressor42B(),
    )
}
