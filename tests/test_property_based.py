"""Property-based tests (hypothesis) for core data structures and invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.attacks.distances import (
    l2_distance,
    linf_distance,
    normalize_l2,
    project_l2_ball,
    project_linf_ball,
)
from repro.circuits.bitops import from_bits, to_bits
from repro.multipliers.behavioral import (
    DrumMultiplier,
    MitchellLogMultiplier,
    OperandTruncationMultiplier,
    PartialProductTruncationMultiplier,
)
from repro.nn.functional import col2im, im2col, one_hot, softmax
from repro.quantization.schemes import calibrate_affine, calibrate_symmetric

# shared strategies ---------------------------------------------------------

uint8_arrays = hnp.arrays(
    dtype=np.int64,
    shape=st.tuples(st.integers(1, 8)),
    elements=st.integers(0, 255),
)

float_images = hnp.arrays(
    dtype=np.float64,
    shape=st.tuples(st.integers(1, 3), st.integers(2, 6), st.integers(2, 6), st.integers(1, 2)),
    elements=st.floats(0.0, 1.0, allow_nan=False),
)

float_vectors = hnp.arrays(
    dtype=np.float64,
    shape=st.tuples(st.integers(1, 40)),
    elements=st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False),
)


class TestBitsProperties:
    @given(values=uint8_arrays)
    @settings(max_examples=60, deadline=None)
    def test_to_from_bits_roundtrip(self, values):
        assert np.array_equal(from_bits(to_bits(values, 8)), values)

    @given(values=uint8_arrays, width=st.integers(8, 12))
    @settings(max_examples=40, deadline=None)
    def test_wider_decomposition_preserves_value(self, values, width):
        assert np.array_equal(from_bits(to_bits(values, width)), values)


class TestMultiplierProperties:
    @given(
        a=st.integers(0, 255),
        b=st.integers(0, 255),
        cut=st.integers(0, 16),
    )
    @settings(max_examples=120, deadline=None)
    def test_partial_product_truncation_underestimates(self, a, b, cut):
        m = PartialProductTruncationMultiplier("p", cut)
        result = int(m.multiply(np.array([a]), np.array([b]))[0])
        assert 0 <= result <= a * b

    @given(
        a=st.integers(0, 255),
        b=st.integers(0, 255),
        ta=st.integers(0, 7),
        tb=st.integers(0, 7),
    )
    @settings(max_examples=120, deadline=None)
    def test_operand_truncation_bounds(self, a, b, ta, tb):
        m = OperandTruncationMultiplier("t", ta, tb)
        result = int(m.multiply(np.array([a]), np.array([b]))[0])
        assert 0 <= result <= a * b
        # truncation error is bounded by the dropped operand parts
        bound = ((1 << ta) - 1) * b + ((1 << tb) - 1) * a
        assert a * b - result <= bound

    @given(a=st.integers(0, 255), b=st.integers(0, 255))
    @settings(max_examples=100, deadline=None)
    def test_mitchell_relative_error(self, a, b):
        m = MitchellLogMultiplier()
        result = int(m.multiply(np.array([a]), np.array([b]))[0])
        exact = a * b
        assert result <= exact
        if exact > 0:
            assert (exact - result) / exact <= 0.13

    @given(a=st.integers(0, 255), b=st.integers(0, 255), k=st.integers(3, 8))
    @settings(max_examples=100, deadline=None)
    def test_drum_symmetry(self, a, b, k):
        m = DrumMultiplier("d", k=k)
        ab = int(m.multiply(np.array([a]), np.array([b]))[0])
        ba = int(m.multiply(np.array([b]), np.array([a]))[0])
        assert ab == ba


class TestQuantizationProperties:
    @given(values=float_vectors)
    @settings(max_examples=80, deadline=None)
    def test_affine_roundtrip_within_one_step(self, values):
        scheme = calibrate_affine(values, bits=8)
        recovered = scheme.round_trip(values)
        assert np.all(np.abs(recovered - values) <= scheme.scale * 0.5 + 1e-9)

    @given(values=float_vectors)
    @settings(max_examples=80, deadline=None)
    def test_symmetric_roundtrip_within_one_step(self, values):
        scheme = calibrate_symmetric(values, bits=8)
        recovered = scheme.round_trip(values)
        assert np.all(np.abs(recovered - values) <= scheme.scale * 0.5 + 1e-9)

    @given(values=float_vectors, bits=st.integers(2, 8))
    @settings(max_examples=60, deadline=None)
    def test_affine_codes_within_range(self, values, bits):
        scheme = calibrate_affine(values, bits=bits)
        codes = scheme.quantize(values)
        assert codes.min() >= 0
        assert codes.max() <= scheme.qmax

    @given(values=float_vectors, bits=st.integers(2, 12))
    @settings(max_examples=60, deadline=None)
    def test_packed_codes_equal_the_reference_formula(self, values, bits):
        # the in-place quantizer computes the same float ops in the same
        # order as the plain expression, so the integers are identical
        scheme = calibrate_affine(values, bits=bits)
        reference = np.clip(
            np.round(values / scheme.scale) + scheme.zero_point, 0, scheme.qmax
        ).astype(np.int64)
        packed = scheme.quantize_packed(values)
        assert packed.dtype == (np.uint8 if bits <= 8 else np.int64)
        assert np.array_equal(packed, reference)
        assert scheme.quantize(values).dtype == np.int64
        assert np.array_equal(scheme.quantize(values), reference)


class TestFunctionalProperties:
    @given(x=float_images)
    @settings(max_examples=40, deadline=None)
    def test_im2col_col2im_adjoint(self, x):
        kernel = 2
        cols = im2col(x, kernel, kernel, 1, 0)
        y = np.ones_like(cols)
        lhs = float(np.sum(cols * y))
        rhs = float(np.sum(x * col2im(y, x.shape, kernel, kernel, 1, 0)))
        assert abs(lhs - rhs) < 1e-8

    @given(
        logits=hnp.arrays(
            dtype=np.float64,
            shape=st.tuples(st.integers(1, 6), st.integers(2, 10)),
            elements=st.floats(-50, 50, allow_nan=False),
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_softmax_is_distribution(self, logits):
        probs = softmax(logits)
        assert np.all(probs >= 0)
        assert np.allclose(probs.sum(axis=-1), 1.0)

    @given(
        labels=hnp.arrays(
            dtype=np.int64, shape=st.tuples(st.integers(1, 20)), elements=st.integers(0, 9)
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_one_hot_rows_sum_to_one(self, labels):
        encoded = one_hot(labels, 10)
        assert np.allclose(encoded.sum(axis=1), 1.0)
        assert np.array_equal(np.argmax(encoded, axis=1), labels)


class TestAttackGeometryProperties:
    @given(x=float_images, radius=st.floats(0.01, 3.0))
    @settings(max_examples=40, deadline=None)
    def test_l2_projection_within_ball(self, x, radius):
        projected = project_l2_ball(x - 0.5, radius)
        flat = projected.reshape(projected.shape[0], -1)
        assert np.all(np.linalg.norm(flat, axis=1) <= radius + 1e-9)

    @given(x=float_images, radius=st.floats(0.01, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_linf_projection_within_ball(self, x, radius):
        projected = project_linf_ball(x - 0.5, radius)
        assert np.all(np.abs(projected) <= radius + 1e-12)

    @given(x=float_images)
    @settings(max_examples=40, deadline=None)
    def test_normalize_l2_unit_or_zero(self, x):
        normed = normalize_l2(x)
        norms = np.linalg.norm(normed.reshape(x.shape[0], -1), axis=1)
        original_norms = np.linalg.norm(x.reshape(x.shape[0], -1), axis=1)
        for sample_norm, original_norm in zip(norms, original_norms):
            if original_norm == 0.0:
                assert sample_norm == 0.0
            elif original_norm > 1e-9:
                assert abs(sample_norm - 1.0) < 1e-6
            else:
                # degenerate, denormal-scale samples are guarded by the
                # epsilon in the denominator and must never blow up
                assert sample_norm <= 1.0 + 1e-6

    @given(x=float_images)
    @settings(max_examples=30, deadline=None)
    def test_distances_nonnegative_and_zero_on_identity(self, x):
        assert np.all(l2_distance(x, x) == 0.0)
        assert np.all(linf_distance(x, x) == 0.0)
        perturbed = np.clip(x + 0.01, 0.0, 1.0)
        assert np.all(l2_distance(x, perturbed) >= 0.0)
