"""Bit-manipulation helpers used by the circuit models.

Two representations are used:

* **Per-lane 0/1 arrays.**  Bits are ``int64`` arrays containing only 0s and
  1s; bit vectors are stored least-significant-bit first along the last
  axis.  :func:`to_bits`, :func:`from_bits` and the gate helpers
  (:func:`bit_and`, :func:`majority`, ...) work in this form.  It is the form
  every adder cell and compressor spells its logic in, and the one their
  truth tables are read from.
* **Packed 64-lane words.**  A batch of ``N`` operand pairs is evaluated
  bit-sliced: one bit position of all ``N`` lanes is a ``uint64`` array of
  ``ceil(N / 64)`` words, lane ``i`` being bit ``i % 64`` of word
  ``i // 64``.  A gate is then one bitwise NumPy op on those words.
  :func:`to_planes` / :func:`from_planes` convert integers to and from a
  stack of such bit planes, :func:`pack_lanes` / :func:`unpack_lanes` convert
  0/1 arrays, and :func:`compile_truth_table` / :func:`run_packed` turn a
  cell's truth table into a program over packed words.  Lanes past ``N`` in
  the last word hold don't-care bits; they never mix with real lanes and
  are dropped on unpacking.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.errors import ShapeError

#: operand pairs carried by one packed ``uint64`` word
LANES = 64

#: packed words are read as little-endian so their bytes are in lane order
_WORD = np.dtype("<u8")


def _check_fits(values: np.ndarray, width: int) -> None:
    if width <= 0:
        raise ShapeError(f"bit width must be positive, got {width}")
    if np.any(values < 0):
        raise ShapeError("bit decomposition expects non-negative integers")
    if np.any(values >= (1 << width)):
        raise ShapeError(f"values do not fit in {width} bits")


def to_bits(values: np.ndarray, width: int) -> np.ndarray:
    """Decompose unsigned integers into a bit array (LSB first).

    Parameters
    ----------
    values:
        Array of non-negative integers.
    width:
        Number of bits to extract.  Values must fit in ``width`` bits.

    Returns
    -------
    numpy.ndarray
        Array of shape ``values.shape + (width,)`` with entries in {0, 1}.
    """
    values = np.asarray(values)
    _check_fits(values, width)
    shifts = np.arange(width, dtype=np.int64)
    return ((values[..., None].astype(np.int64) >> shifts) & 1).astype(np.int64)


def from_bits(bits: np.ndarray) -> np.ndarray:
    """Recompose a bit array (LSB first along the last axis) into integers."""
    bits = np.asarray(bits, dtype=np.int64)
    width = bits.shape[-1]
    weights = (np.int64(1) << np.arange(width, dtype=np.int64))
    return np.sum(bits * weights, axis=-1)


def bit_and(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Logical AND of two bit arrays."""
    return np.asarray(a, dtype=np.int64) & np.asarray(b, dtype=np.int64)


def bit_or(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Logical OR of two bit arrays."""
    return np.asarray(a, dtype=np.int64) | np.asarray(b, dtype=np.int64)


def bit_xor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Logical XOR of two bit arrays."""
    return np.asarray(a, dtype=np.int64) ^ np.asarray(b, dtype=np.int64)


def bit_not(a: np.ndarray) -> np.ndarray:
    """Logical NOT of a bit array (1 - a)."""
    return 1 - np.asarray(a, dtype=np.int64)


def majority(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Majority vote of three bit arrays."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    c = np.asarray(c, dtype=np.int64)
    return ((a + b + c) >= 2).astype(np.int64)


# ------------------------------------------------------------ packed lanes
def pack_lanes(bits: np.ndarray) -> np.ndarray:
    """Pack 0/1 values along the last axis into 64-lane ``uint64`` words.

    An array of shape ``(..., N)`` becomes ``(..., ceil(N / 64))``; lane
    ``i`` lands in bit ``i % 64`` of word ``i // 64``.
    """
    octets = np.packbits(np.asarray(bits, dtype=bool), axis=-1, bitorder="little")
    pad = -octets.shape[-1] % (LANES // 8)
    if pad:
        octets = np.pad(octets, [(0, 0)] * (octets.ndim - 1) + [(0, pad)])
    return np.ascontiguousarray(octets).view(_WORD)


def unpack_lanes(words: np.ndarray, count: int) -> np.ndarray:
    """Inverse of :func:`pack_lanes`: the first ``count`` lanes as 0/1 ``uint8``."""
    octets = np.ascontiguousarray(words, dtype=_WORD).view(np.uint8)
    return np.unpackbits(octets, axis=-1, count=count, bitorder="little")


def to_planes(values: np.ndarray, width: int) -> np.ndarray:
    """Bit planes of flattened unsigned integers, packed 64 lanes per word.

    Returns a ``(width, ceil(values.size / 64))`` word array whose row ``k``
    holds bit ``k`` of every value.  Values must fit in ``width`` bits.
    """
    flat = np.asarray(values).reshape(-1)
    _check_fits(flat, width)
    shifts = np.arange(width, dtype=np.int64)[:, None]
    return pack_lanes((flat.astype(np.int64) >> shifts) & 1)


def from_planes(planes: Sequence[np.ndarray], count: int) -> np.ndarray:
    """Recompose ``count`` integers from packed bit planes (LSB plane first)."""
    bits = unpack_lanes(np.stack(planes), count)
    octets = np.packbits(bits, axis=0, bitorder="little")
    values = np.zeros(count, dtype=np.int64)
    for index, octet in enumerate(octets):
        values |= octet.astype(np.int64) << (8 * index)
    return values


# ------------------------------------------------- truth-table compilation
#: a compiled packed program: ``steps`` appends one register per step,
#: ``(function, operand registers)``; ``outputs`` names the result registers
PackedProgram = Tuple[Tuple[Tuple[object, Tuple[int, ...]], ...], Tuple[int, ...]]


class _ProgramBuilder:
    """Builds a bitwise program with constant folding and shared subterms."""

    ZERO, ONE = "0", "1"

    def __init__(self, inputs: int) -> None:
        self.inputs = inputs
        self.steps: List[Tuple[object, Tuple]] = []
        self._emitted: Dict[Tuple, object] = {}
        self._nodes: Dict[Tuple[int, int], object] = {}

    def _emit(self, function, *operands):
        if function is not np.invert:
            operands = tuple(sorted(operands))
        key = (function, operands)
        if key not in self._emitted:
            self.steps.append(key)
            self._emitted[key] = self.inputs + len(self.steps) - 1
        return self._emitted[key]

    def invert(self, p):
        if p in (self.ZERO, self.ONE):
            return self.ONE if p == self.ZERO else self.ZERO
        return self._emit(np.invert, p)

    def conj(self, p, q):
        if self.ZERO in (p, q):
            return self.ZERO
        if p == self.ONE or p == q:
            return q
        return p if q == self.ONE else self._emit(np.bitwise_and, p, q)

    def disj(self, p, q):
        if self.ONE in (p, q):
            return self.ONE
        if p == self.ZERO or p == q:
            return q
        return p if q == self.ZERO else self._emit(np.bitwise_or, p, q)

    def xor(self, p, q):
        if p == q:
            return self.ZERO
        for constant, other in ((p, q), (q, p)):
            if constant == self.ZERO:
                return other
            if constant == self.ONE:
                return self.invert(other)
        return self._emit(np.bitwise_xor, p, q)

    def node(self, mask: int, variables: int):
        """Register computing the function whose minterm set is ``mask``.

        Bit ``r`` of ``mask`` is the output for the input row ``r``, where
        input ``i`` is bit ``i`` of ``r``; the function is over inputs
        ``0 .. variables - 1`` and is split on the last one (Shannon
        expansion), with shared subfunctions built once.
        """
        key = (mask, variables)
        if key not in self._nodes:
            full = (1 << (1 << variables)) - 1
            if mask == 0:
                result = self.ZERO
            elif mask == full:
                result = self.ONE
            else:
                # input `top` (register `top`) is split off; the cofactors
                # f0 / f1 are functions of the `top` inputs below it
                top = variables - 1
                low = (1 << (1 << top)) - 1
                f0, f1 = mask & low, mask >> (1 << top)
                if f1 == low:
                    result = self.disj(top, self.node(f0, top))
                elif f0 == low:
                    result = self.disj(self.invert(top), self.node(f1, top))
                else:
                    # f = f0 ^ (top & (f0 ^ f1)): a mux whose select term is
                    # itself a shared subfunction; constant folding reduces
                    # it to AND / XOR / pass-through forms
                    result = self.xor(
                        self.node(f0, top), self.conj(top, self.node(f0 ^ f1, top))
                    )
            self._nodes[key] = result
        return self._nodes[key]

    def constant(self, value):
        zero = self._emit(np.zeros_like, 0)
        return zero if value == self.ZERO else self._emit(np.invert, zero)


def compile_truth_table(table: np.ndarray, inputs: int) -> PackedProgram:
    """Compile a complete 0/1 truth table into a program over packed words.

    ``table`` has one row per input combination: ``inputs`` input columns
    followed by the output columns (the layout of
    :meth:`repro.circuits.adders.AdderCell.truth_table`).  The program, run
    by :func:`run_packed` on one word array per input, returns one word
    array per output column and reproduces the table lane by lane.
    """
    table = np.asarray(table, dtype=np.int64)
    rows = 1 << inputs
    index = table[:, :inputs] @ (1 << np.arange(inputs))
    if table.shape[0] != rows or sorted(index.tolist()) != list(range(rows)):
        raise ShapeError(f"truth table must list all {rows} input rows once")
    builder = _ProgramBuilder(inputs)
    outputs = []
    for column in table[:, inputs:].T:
        mask = sum(1 << int(row) for row, bit in zip(index, column) if bit)
        register = builder.node(mask, inputs)
        if register in (builder.ZERO, builder.ONE):
            register = builder.constant(register)
        outputs.append(register)
    return tuple(builder.steps), tuple(outputs)


def run_packed(program: PackedProgram, words: Sequence[np.ndarray]) -> Tuple[np.ndarray, ...]:
    """Evaluate a :func:`compile_truth_table` program on packed input words."""
    steps, outputs = program
    registers = list(words)
    for function, operands in steps:
        registers.append(function(*(registers[i] for i in operands)))
    return tuple(registers[i] for i in outputs)
