"""Tests for the Multiplier base classes and LUT machinery."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.multipliers.base import CircuitMultiplier, LUTMultiplier, Multiplier
from repro.multipliers.behavioral import ExactMultiplier, OperandTruncationMultiplier


class TestExactMultiplier:
    def test_multiply_matches_numpy(self):
        m = ExactMultiplier()
        rng = np.random.default_rng(0)
        a = rng.integers(0, 256, size=100)
        b = rng.integers(0, 256, size=100)
        assert np.array_equal(m.multiply(a, b), a * b)

    def test_is_exact(self):
        assert ExactMultiplier().is_exact()

    def test_lut_shape_and_dtype(self):
        lut = ExactMultiplier().lut()
        assert lut.shape == (256, 256)
        assert lut.dtype == np.int32

    def test_lut_matches_exact_lut(self):
        m = ExactMultiplier()
        assert np.array_equal(m.lut(), m.exact_lut())

    def test_error_lut_all_zero(self):
        assert not np.any(ExactMultiplier().error_lut())

    def test_callable(self):
        m = ExactMultiplier()
        assert m(np.array([3]), np.array([4]))[0] == 12

    def test_operand_and_product_max(self):
        m = ExactMultiplier()
        assert m.operand_max == 255
        assert m.product_max == 255 * 255

    def test_smaller_bit_width(self):
        m = ExactMultiplier("exact4", bit_width=4)
        assert m.lut().shape == (16, 16)

    def test_lut_cache_reused(self):
        m = ExactMultiplier()
        assert m.lut() is m.lut()

    def test_clear_cache_reattaches_shared_lut(self):
        # clear_cache drops the instance reference only; the process-wide
        # cache keeps the table, so the next lut() call re-attaches it.
        m = ExactMultiplier()
        first = m.lut()
        m.clear_cache()
        assert m.lut() is first

    def test_global_clear_forces_rebuild(self):
        from repro.multipliers.base import clear_global_lut_cache

        m = ExactMultiplier()
        first = m.lut()
        m.clear_cache()
        clear_global_lut_cache()
        rebuilt = m.lut()
        assert rebuilt is not first
        assert np.array_equal(rebuilt, first)


class TestPackedLut:
    def test_narrow_lut_packs_to_int16_once_per_process(self):
        from repro.multipliers.base import clear_global_lut_cache

        first, second = ExactMultiplier("e7", bit_width=7), ExactMultiplier("e7", bit_width=7)
        packed = first.packed_lut()
        assert packed.dtype == np.int16 and packed.flags.c_contiguous
        assert not packed.flags.writeable
        assert np.array_equal(packed, first.lut())
        assert second.packed_lut() is packed  # one copy per multiplier
        first.clear_cache()
        assert first.packed_lut() is packed
        first.clear_cache()
        clear_global_lut_cache()
        assert first.packed_lut() is not packed

    def test_wide_lut_is_read_as_it_is(self):
        m = ExactMultiplier()
        assert m.packed_lut() is m.lut()

    def test_unkeyed_multiplier_keeps_its_own_copy(self):
        table = np.arange(16 * 16).reshape(16, 16)
        m = LUTMultiplier("tiny", table)
        assert m.packed_lut().dtype == np.int16
        assert m.packed_lut() is m.packed_lut()
        assert LUTMultiplier("tiny", table).packed_lut() is not m.packed_lut()


class TestValidation:
    def test_rejects_negative_operands(self):
        with pytest.raises(ConfigurationError):
            ExactMultiplier().multiply(np.array([-1]), np.array([2]))

    def test_rejects_out_of_range_operands(self):
        with pytest.raises(ConfigurationError):
            ExactMultiplier().multiply(np.array([256]), np.array([2]))

    def test_rejects_huge_bit_width(self):
        with pytest.raises(ConfigurationError):
            ExactMultiplier("too-big", bit_width=13)


class TestLUTMultiplier:
    def test_from_exact_table(self):
        table = ExactMultiplier().lut()
        m = LUTMultiplier("from-table", table)
        assert m.bit_width == 8
        assert m.is_exact()

    def test_lookup_values(self):
        table = np.arange(16).reshape(4, 4)
        m = LUTMultiplier("tiny", table)
        assert m.multiply(np.array([2]), np.array([3]))[0] == 11

    def test_rejects_non_square(self):
        with pytest.raises(ConfigurationError):
            LUTMultiplier("bad", np.zeros((4, 8)))

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ConfigurationError):
            LUTMultiplier("bad", np.zeros((6, 6)))


class TestCircuitMultiplier:
    def test_wraps_circuit(self):
        from repro.circuits.array_multiplier import ArrayMultiplierCircuit

        m = CircuitMultiplier("wrapped", ArrayMultiplierCircuit(width=8))
        assert m.is_exact()

    def test_rejects_width_mismatch(self):
        from repro.circuits.array_multiplier import ArrayMultiplierCircuit

        with pytest.raises(ConfigurationError):
            CircuitMultiplier("bad", ArrayMultiplierCircuit(width=4), bit_width=8)


class TestApproximateInvariants:
    def test_truncation_never_overestimates(self):
        m = OperandTruncationMultiplier("t", 2, 2)
        assert np.all(m.error_lut() <= 0)

    def test_abstract_base_cannot_instantiate(self):
        with pytest.raises(TypeError):
            Multiplier("abstract")  # type: ignore[abstract]
