"""Unsigned multiplier circuits built from adder cells and compressors.

Two circuit families are provided:

:class:`ArrayMultiplierCircuit`
    The classic carry-propagate array multiplier: partial-product rows are
    accumulated one after another with ripple-carry adders.  The adder cells
    used for the least-significant result columns can be replaced with
    approximate mirror adders — this is exactly the construction used by the
    "defensive approximation" baseline of Guesmi et al. (ASPLOS 2021).

:class:`CompressorTreeMultiplierCircuit`
    A Dadda-style multiplier: partial-product columns are reduced with 4:2
    compressors (exact or approximate) until at most two bits per column
    remain, then a final exact ripple-carry adder produces the product.

Both circuits broadcast their operands, pack them 64 lanes per ``uint64``
word (see :mod:`repro.circuits.bitops`) and evaluate every gate as one
bitwise NumPy op on those words, so a complete 256x256 look-up table is a
single call over 1,024 words per bit position.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.circuits.adders import AdderCell, ExactFullAdder
from repro.circuits.bitops import from_planes, to_planes
from repro.circuits.compressors import Compressor42, ExactCompressor42
from repro.circuits.ripple import RippleCarryAdder
from repro.errors import ConfigurationError


class ArrayMultiplierCircuit:
    """An ``width x width`` unsigned array multiplier with configurable cells.

    Parameters
    ----------
    width:
        Operand bit width (8 for the paper's multipliers).
    approx_cell:
        Adder cell used in the ``approx_columns`` least-significant columns of
        the accumulation adders.  ``None`` selects the exact full adder
        everywhere (an exact multiplier).
    approx_columns:
        Number of least-significant result columns whose adder cells are
        replaced by ``approx_cell``.
    """

    def __init__(
        self,
        width: int = 8,
        approx_cell: Optional[AdderCell] = None,
        approx_columns: int = 0,
    ) -> None:
        if width <= 0:
            raise ConfigurationError(f"multiplier width must be positive, got {width}")
        result_width = 2 * width
        if not 0 <= approx_columns <= result_width:
            raise ConfigurationError(
                f"approx_columns must be in [0, {result_width}], got {approx_columns}"
            )
        if approx_columns > 0 and approx_cell is None:
            raise ConfigurationError(
                "approx_columns > 0 requires an approximate adder cell"
            )
        self.width = width
        self.result_width = result_width
        self.approx_cell = approx_cell
        self.approx_columns = approx_columns
        exact = ExactFullAdder()
        cells: List[AdderCell] = []
        for column in range(result_width):
            if approx_cell is not None and column < approx_columns:
                cells.append(approx_cell)
            else:
                cells.append(exact)
        self._row_adder = RippleCarryAdder(result_width, cells)

    def multiply(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Multiply unsigned integer arrays ``a`` and ``b`` element-wise."""
        a, b = np.broadcast_arrays(np.asarray(a), np.asarray(b))
        a_planes = to_planes(a, self.width)
        b_planes = to_planes(b, self.width)
        zero = np.zeros_like(a_planes[0])
        accumulator = [zero] * self.result_width
        for row in range(self.width):
            # partial-product row `row`: (a & b_row) shifted left by `row`
            row_planes = [zero] * self.result_width
            row_planes[row : row + self.width] = list(a_planes & b_planes[row])
            accumulator, _ = self._row_adder.add_words(accumulator, row_planes)
        return from_planes(accumulator, a.size).reshape(a.shape)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        cell = self.approx_cell.name if self.approx_cell is not None else "exact"
        return (
            f"ArrayMultiplierCircuit(width={self.width}, approx_cell={cell!r}, "
            f"approx_columns={self.approx_columns})"
        )


class CompressorTreeMultiplierCircuit:
    """A Dadda-style unsigned multiplier using 4:2 compressors.

    Parameters
    ----------
    width:
        Operand bit width.
    compressor:
        Compressor used for the ``approx_columns`` least-significant columns.
    approx_columns:
        Number of least-significant product columns reduced with the
        (possibly approximate) ``compressor``; higher columns always use the
        exact compressor.
    """

    def __init__(
        self,
        width: int = 8,
        compressor: Optional[Compressor42] = None,
        approx_columns: int = 0,
    ) -> None:
        if width <= 0:
            raise ConfigurationError(f"multiplier width must be positive, got {width}")
        result_width = 2 * width
        if not 0 <= approx_columns <= result_width:
            raise ConfigurationError(
                f"approx_columns must be in [0, {result_width}], got {approx_columns}"
            )
        self.width = width
        self.result_width = result_width
        self.approx_columns = approx_columns
        self._approx_compressor = compressor if compressor is not None else ExactCompressor42()
        self._exact_compressor = ExactCompressor42()
        self._full_adder = ExactFullAdder()
        self._final_adder = RippleCarryAdder(result_width, self._full_adder)

    def _compressor_for(self, column: int) -> Compressor42:
        if column < self.approx_columns:
            return self._approx_compressor
        return self._exact_compressor

    def multiply(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Multiply unsigned integer arrays ``a`` and ``b`` element-wise."""
        a, b = np.broadcast_arrays(np.asarray(a), np.asarray(b))
        a_planes = to_planes(a, self.width)
        b_planes = to_planes(b, self.width)
        zero = np.zeros_like(a_planes[0])

        # Build the partial-product columns: column j holds bits a_i & b_k with i+k=j.
        columns: List[List[np.ndarray]] = [[] for _ in range(self.result_width)]
        for i in range(self.width):
            for k in range(self.width):
                columns[i + k].append(a_planes[i] & b_planes[k])

        # Reduce columns with 4:2 compressors (and 3:2 full adders for the
        # leftover triples) until every column has <= 2 bits.
        while any(len(column) > 2 for column in columns):
            new_columns: List[List[np.ndarray]] = [[] for _ in range(self.result_width)]
            for j in range(self.result_width):
                column = columns[j]
                index = 0
                while len(column) - index >= 4:
                    compressor = self._compressor_for(j)
                    x1, x2, x3, x4 = column[index : index + 4]
                    s, carry, cout = compressor.compress_packed(x1, x2, x3, x4, zero)
                    new_columns[j].append(s)
                    if j + 1 < self.result_width:
                        new_columns[j + 1].append(carry)
                        new_columns[j + 1].append(cout)
                    index += 4
                if len(column) - index == 3:
                    x1, x2, x3 = column[index : index + 3]
                    s, carry = self._full_adder.add_packed(x1, x2, x3)
                    new_columns[j].append(s)
                    if j + 1 < self.result_width:
                        new_columns[j + 1].append(carry)
                    index += 3
                new_columns[j].extend(column[index:])
            columns = new_columns

        # Final carry-propagate addition of the two remaining rows.
        row_a = [column[0] if column else zero for column in columns]
        row_b = [column[1] if len(column) == 2 else zero for column in columns]
        sum_planes, _ = self._final_adder.add_words(row_a, row_b)
        return from_planes(sum_planes, a.size).reshape(a.shape)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CompressorTreeMultiplierCircuit(width={self.width}, "
            f"compressor={self._approx_compressor.name!r}, "
            f"approx_columns={self.approx_columns})"
        )
