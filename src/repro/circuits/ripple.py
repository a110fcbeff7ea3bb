"""Ripple-carry adders assembled from one-bit adder cells.

A :class:`RippleCarryAdder` chains ``width`` one-bit cells; each bit position
can use a different cell, which is how lower-part approximate adders (e.g.
the Guesmi-style mirror-adder array multiplier, or LOA adders) are modelled:
the ``k`` least-significant positions use an approximate cell and the rest
use the exact full adder.

The carry chain runs once, over packed 64-lane words
(:meth:`RippleCarryAdder.add_words`); :meth:`RippleCarryAdder.add` and
:meth:`RippleCarryAdder.add_bits` pack their operands into it.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.circuits.adders import AdderCell, ExactFullAdder, LowerOrCell
from repro.circuits.bitops import (
    from_planes,
    pack_lanes,
    to_planes,
    unpack_lanes,
)
from repro.errors import ConfigurationError


class RippleCarryAdder:
    """A ``width``-bit ripple-carry adder with per-bit configurable cells.

    Parameters
    ----------
    width:
        Number of bit positions.
    cells:
        Either a single :class:`AdderCell` used for every position, or a
        sequence of ``width`` cells ordered LSB first.
    """

    def __init__(
        self,
        width: int,
        cells: Union[AdderCell, Sequence[AdderCell], None] = None,
    ) -> None:
        if width <= 0:
            raise ConfigurationError(f"adder width must be positive, got {width}")
        self.width = width
        if cells is None:
            cells = ExactFullAdder()
        if isinstance(cells, AdderCell):
            cell_list: List[AdderCell] = [cells] * width
        else:
            cell_list = list(cells)
            if len(cell_list) != width:
                raise ConfigurationError(
                    f"expected {width} adder cells, got {len(cell_list)}"
                )
        self.cells = cell_list

    @classmethod
    def with_approximate_lower_bits(
        cls,
        width: int,
        approx_cell: AdderCell,
        approx_bits: int,
        exact_cell: Optional[AdderCell] = None,
    ) -> "RippleCarryAdder":
        """Build an adder whose ``approx_bits`` LSB positions use ``approx_cell``."""
        if not 0 <= approx_bits <= width:
            raise ConfigurationError(
                f"approx_bits must be in [0, {width}], got {approx_bits}"
            )
        exact = exact_cell if exact_cell is not None else ExactFullAdder()
        cells = [approx_cell] * approx_bits + [exact] * (width - approx_bits)
        return cls(width, cells)

    def add_words(
        self,
        a_planes: Sequence[np.ndarray],
        b_planes: Sequence[np.ndarray],
        cin: Optional[np.ndarray] = None,
    ) -> Tuple[List[np.ndarray], np.ndarray]:
        """Add packed operands: ``width`` bit planes each, LSB first.

        Each plane is a ``uint64`` word array holding one bit position of 64
        lanes per word (see :mod:`repro.circuits.bitops`); ``cin`` defaults
        to zero.  Returns ``(sum_planes, carry_out)`` in the same form.
        """
        carry = np.zeros_like(a_planes[0]) if cin is None else cin
        sum_planes = []
        for cell, a, b in zip(self.cells, a_planes, b_planes):
            s, carry = cell.add_packed(a, b, carry)
            sum_planes.append(s)
        return sum_planes, carry

    def add_bits(
        self, a_bits: np.ndarray, b_bits: np.ndarray, cin: Optional[np.ndarray] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Add two bit arrays of shape ``(..., width)``; return ``(sum_bits, cout)``."""
        a_bits = np.asarray(a_bits, dtype=np.int64)
        b_bits = np.asarray(b_bits, dtype=np.int64)
        if a_bits.shape != b_bits.shape or a_bits.shape[-1] != self.width:
            raise ConfigurationError(
                "operand bit arrays must both have last dimension "
                f"{self.width}; got {a_bits.shape} and {b_bits.shape}"
            )
        batch = a_bits.shape[:-1]
        count = int(np.prod(batch))
        carry = None if cin is None else pack_lanes(np.broadcast_to(cin, batch).reshape(-1))
        sum_planes, carry = self.add_words(
            pack_lanes(a_bits.reshape(count, self.width).T),
            pack_lanes(b_bits.reshape(count, self.width).T),
            carry,
        )
        sum_bits = unpack_lanes(np.stack(sum_planes), count).T.reshape(a_bits.shape)
        cout = unpack_lanes(carry, count).reshape(batch)
        return sum_bits.astype(np.int64), cout.astype(np.int64)

    def add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Add two unsigned integer arrays, returning ``width + 1``-bit results."""
        a, b = np.broadcast_arrays(np.asarray(a), np.asarray(b))
        sum_planes, cout = self.add_words(
            to_planes(a, self.width), to_planes(b, self.width)
        )
        return from_planes(sum_planes + [cout], a.size).reshape(a.shape)


class LowerPartOrAdder(RippleCarryAdder):
    """Lower-part OR adder (LOA): OR cells in the LSBs, exact adders above."""

    def __init__(self, width: int, approx_bits: int) -> None:
        if not 0 <= approx_bits <= width:
            raise ConfigurationError(
                f"approx_bits must be in [0, {width}], got {approx_bits}"
            )
        cells = [LowerOrCell()] * approx_bits + [ExactFullAdder()] * (width - approx_bits)
        super().__init__(width, cells)
        self.approx_bits = approx_bits
