"""Bit-sliced circuit evaluation against the per-lane oracle.

The circuits evaluate every gate on packed 64-lane words; the references in
``tests/oracle.py`` run the same cells one 0/1 lane array at a time.  The two
must agree byte for byte for every cell, compressor, operand count and
shape.
"""

import numpy as np
import pytest

from oracle import (
    array_multiplier_reference,
    compressor_tree_reference,
    ripple_add_bits_reference,
)
from repro.circuits.adders import ADDER_CELLS, ExactFullAdder
from repro.circuits.array_multiplier import (
    ArrayMultiplierCircuit,
    CompressorTreeMultiplierCircuit,
)
from repro.circuits.bitops import (
    compile_truth_table,
    from_bits,
    from_planes,
    pack_lanes,
    run_packed,
    to_bits,
    to_planes,
    unpack_lanes,
)
from repro.circuits.compressors import COMPRESSORS
from repro.circuits.ripple import RippleCarryAdder
from repro.errors import ShapeError
from repro.multipliers.base import CircuitMultiplier
from repro.multipliers.library import get_multiplier, list_multipliers

#: every library multiplier backed by a gate-level circuit
LIBRARY_CIRCUITS = [
    name
    for name in list_multipliers()
    if isinstance(get_multiplier(name), CircuitMultiplier)
]


def _reference(circuit, a, b):
    if isinstance(circuit, ArrayMultiplierCircuit):
        return array_multiplier_reference(circuit, a, b)
    return compressor_tree_reference(circuit, a, b)


def _grid(width):
    return np.meshgrid(np.arange(1 << width), np.arange(1 << width), indexing="ij")


def _assert_same(fast, reference):
    fast = np.asarray(fast)
    assert fast.dtype == np.int64
    assert fast.shape == np.shape(reference)
    assert fast.tobytes() == np.asarray(reference, dtype=np.int64).tobytes()


class TestPacking:
    @pytest.mark.parametrize("count", [0, 1, 63, 64, 65, 1000])
    def test_lanes_roundtrip(self, count):
        bits = np.random.default_rng(count).integers(0, 2, size=(3, count))
        words = pack_lanes(bits)
        assert words.shape == (3, -(-count // 64))
        assert np.array_equal(unpack_lanes(words, count), bits)

    def test_lane_order(self):
        bits = np.zeros(130, dtype=np.int64)
        bits[[0, 5, 64, 129]] = 1
        words = pack_lanes(bits)
        assert words.tolist() == [1 | (1 << 5), 1, 1 << 1]

    def test_planes_roundtrip(self):
        values = np.random.default_rng(1).integers(0, 1 << 12, size=777)
        planes = to_planes(values, 12)
        assert planes.shape == (12, 13)
        assert np.array_equal(from_planes(planes, values.size), values)


class TestCompiledTruthTables:
    """Each compiled program reproduces its cell's truth table lane by lane."""

    @staticmethod
    def _check(table, inputs):
        program = compile_truth_table(table, inputs)
        words = pack_lanes(table[:, :inputs].T)
        outputs = run_packed(program, list(words))
        produced = unpack_lanes(np.stack(outputs), table.shape[0]).T
        assert np.array_equal(produced, table[:, inputs:])

    @pytest.mark.parametrize("name", sorted(ADDER_CELLS))
    def test_adder_cell(self, name):
        self._check(ADDER_CELLS[name].truth_table(), 3)

    @pytest.mark.parametrize("name", sorted(COMPRESSORS))
    def test_compressor(self, name):
        self._check(COMPRESSORS[name].truth_table(), 5)

    def test_every_three_input_function(self):
        rows = np.array([[(r >> i) & 1 for i in range(3)] for r in range(8)])
        for mask in range(256):
            outputs = np.array([[(mask >> r) & 1] for r in range(8)])
            self._check(np.hstack([rows, outputs]), 3)

    def test_rejects_incomplete_table(self):
        with pytest.raises(ShapeError):
            compile_truth_table(ExactFullAdder().truth_table()[:7], 3)

    def test_program_cached_on_the_cell(self):
        cell = ExactFullAdder()
        words = list(pack_lanes(np.eye(3, dtype=np.int64)))
        cell.add_packed(*words)
        program = cell._packed
        cell.add_packed(*words)
        assert cell._packed is program


class TestRippleCarryAdder:
    @pytest.mark.parametrize("name", sorted(ADDER_CELLS))
    def test_add_bits_matches_oracle(self, name):
        adder = RippleCarryAdder.with_approximate_lower_bits(6, ADDER_CELLS[name], 3)
        rng = np.random.default_rng(2)
        a_bits = rng.integers(0, 2, size=(5, 13, 6))
        b_bits = rng.integers(0, 2, size=(5, 13, 6))
        cin = rng.integers(0, 2, size=(5, 13))
        for carry_in in (None, cin):
            fast = adder.add_bits(a_bits, b_bits, carry_in)
            reference = ripple_add_bits_reference(adder, a_bits, b_bits, carry_in)
            for got, want in zip(fast, reference):
                _assert_same(got, want)

    @pytest.mark.parametrize("name", sorted(ADDER_CELLS))
    def test_add_exhaustive_4bit(self, name):
        adder = RippleCarryAdder.with_approximate_lower_bits(4, ADDER_CELLS[name], 2)
        a, b = _grid(4)
        sum_bits, cout = ripple_add_bits_reference(adder, to_bits(a, 4), to_bits(b, 4))
        _assert_same(adder.add(a, b), from_bits(sum_bits) + (cout << 4))


class TestExhaustive4Bit:
    @pytest.mark.parametrize("columns", range(9))
    @pytest.mark.parametrize("name", sorted(ADDER_CELLS))
    def test_array_multiplier(self, name, columns):
        circuit = ArrayMultiplierCircuit(4, ADDER_CELLS[name], columns)
        a, b = _grid(4)
        _assert_same(circuit.multiply(a, b), array_multiplier_reference(circuit, a, b))

    @pytest.mark.parametrize("columns", range(9))
    @pytest.mark.parametrize("name", sorted(COMPRESSORS))
    def test_compressor_tree(self, name, columns):
        circuit = CompressorTreeMultiplierCircuit(4, COMPRESSORS[name], columns)
        a, b = _grid(4)
        _assert_same(circuit.multiply(a, b), compressor_tree_reference(circuit, a, b))


@pytest.mark.parametrize("name", LIBRARY_CIRCUITS)
class TestLibraryCircuits:
    def test_full_lut_matches_oracle(self, name):
        circuit = get_multiplier(name).circuit
        a, b = _grid(8)
        _assert_same(circuit.multiply(a, b), _reference(circuit, a, b))

    @pytest.mark.parametrize("count", [1, 63, 65, 1000])
    def test_operand_counts(self, name, count):
        circuit = get_multiplier(name).circuit
        rng = np.random.default_rng(count)
        a = rng.integers(0, 256, size=count)
        b = rng.integers(0, 256, size=count)
        _assert_same(circuit.multiply(a, b), _reference(circuit, a, b))

    def test_scalars(self, name):
        circuit = get_multiplier(name).circuit
        for a, b in [(0, 0), (255, 255), (7, 200)]:
            _assert_same(circuit.multiply(a, b), _reference(circuit, a, b))

    def test_broadcast_operands(self, name):
        circuit = get_multiplier(name).circuit
        a = np.arange(0, 256, 37).reshape(-1, 1)
        b = np.arange(3, 256, 51).reshape(1, -1)
        _assert_same(circuit.multiply(a, b), _reference(circuit, a, b))

    def test_rejects_out_of_range(self, name):
        circuit = get_multiplier(name).circuit
        for a, b in [(256, 1), (1, -1)]:
            with pytest.raises(ShapeError):
                circuit.multiply(np.array([a]), np.array([b]))

    def test_cache_key_ignores_compiled_programs(self, name):
        multiplier = get_multiplier(name)
        key = multiplier._lut_cache_key()
        multiplier.circuit.multiply(np.array([3]), np.array([5]))
        assert multiplier._lut_cache_key() == key
