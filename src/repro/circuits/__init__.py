"""Bit-level, vectorised circuit models.

This package provides behavioural gate-level models of the arithmetic
circuits that the paper's approximate multipliers are built from:

* one-bit adder cells — the exact mirror adder and the approximate mirror
  adders (AMA1..AMA5) used by the "defensive approximation" baseline of
  Guesmi et al. (ASPLOS 2021), plus a lower-OR cell;
* ripple-carry adders assembled from per-bit cells;
* 4:2 compressors (exact and approximate) for compressor-tree multipliers;
* unsigned array multipliers whose internal adders can be swapped for
  approximate cells column-by-column.

Each cell and compressor defines its logic once, as ``add`` / ``compress`` on
per-lane 0/1 ``int64`` arrays; those helpers (:func:`to_bits`,
:func:`bit_and`, ...) stay the per-lane form the truth tables are read from.
The adders and multipliers evaluate bit-sliced: operands are packed 64 lanes
per ``uint64`` word, one word array per bit position, and each cell runs a
program compiled once from its truth table, so every gate is one bitwise
NumPy op on whole words (see :mod:`repro.circuits.bitops`).  A complete
256x256 look-up table for an 8-bit multiplier is a single call over 1,024
words per bit position.
"""

from repro.circuits.bitops import (
    bit_and,
    bit_not,
    bit_or,
    bit_xor,
    from_bits,
    to_bits,
)
from repro.circuits.adders import (
    AdderCell,
    ExactFullAdder,
    ApproximateMirrorAdder1,
    ApproximateMirrorAdder2,
    ApproximateMirrorAdder3,
    ApproximateMirrorAdder4,
    ApproximateMirrorAdder5,
    LowerOrCell,
    ADDER_CELLS,
)
from repro.circuits.ripple import RippleCarryAdder, LowerPartOrAdder
from repro.circuits.compressors import (
    Compressor42,
    ExactCompressor42,
    ApproximateCompressor42A,
    ApproximateCompressor42B,
)
from repro.circuits.array_multiplier import (
    ArrayMultiplierCircuit,
    CompressorTreeMultiplierCircuit,
)

__all__ = [
    "bit_and",
    "bit_not",
    "bit_or",
    "bit_xor",
    "from_bits",
    "to_bits",
    "AdderCell",
    "ExactFullAdder",
    "ApproximateMirrorAdder1",
    "ApproximateMirrorAdder2",
    "ApproximateMirrorAdder3",
    "ApproximateMirrorAdder4",
    "ApproximateMirrorAdder5",
    "LowerOrCell",
    "ADDER_CELLS",
    "RippleCarryAdder",
    "LowerPartOrAdder",
    "Compressor42",
    "ExactCompressor42",
    "ApproximateCompressor42A",
    "ApproximateCompressor42B",
    "ArrayMultiplierCircuit",
    "CompressorTreeMultiplierCircuit",
]
