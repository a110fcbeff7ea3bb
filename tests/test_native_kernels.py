"""Tests for the compiled kernel tier (repro.axnn.native).

The native backend must be a drop-in for the pure-NumPy reference: the LUT
matmul and the col2im scatter-add must be *bit-identical* across dtypes,
shapes, strides and empty batches, ``kernel="auto"`` must degrade cleanly
when neither Numba nor a C compiler is available, and backend resolution
must be thread-safe and resettable.
"""

import os
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.axnn import native
from repro.axnn.kernels import (
    NativeLUTKernel,
    _native_table_fits,
    clear_profile_cache,
    make_kernel,
    normalize_strategy,
    select_strategy,
)
from repro.axnn.native import (
    BACKEND_ENV_VAR,
    backend_name,
    get_backend,
    native_fingerprint,
    requested_backend,
    reset_backend,
)
from repro.errors import ConfigurationError, ShapeError
from repro.multipliers import LUTMultiplier, get_multiplier
from repro.nn.functional import col2im, im2col
from repro.quantization.schemes import AffineQuantization

from oracle import col2im_reference

pytestmark = pytest.mark.skipif(
    get_backend() is None,
    reason="no native backend available on this host (no Numba, no C compiler)",
)

RNG = np.random.default_rng(11)


@pytest.fixture
def clean_backend_state(monkeypatch):
    """Restore the resolved backend after tests that poke env/module state."""
    yield monkeypatch
    reset_backend()


def reference_matmul(codes, sign, mag, lut):
    lut64 = np.asarray(lut, dtype=np.int64)
    out = np.zeros((codes.shape[0], sign.shape[1]), dtype=np.int64)
    for m in range(codes.shape[0]):
        out[m] = (sign * lut64[codes[m][:, None], mag]).sum(axis=0)
    return out


def lut_problem(rng, m, k, n, lut_range):
    codes = rng.integers(0, 256, (m, k), dtype=np.int64)
    sign = rng.integers(-1, 2, (k, n), dtype=np.int64)
    mag = rng.integers(0, 256, (k, n), dtype=np.int64)
    table = rng.integers(-lut_range, lut_range + 1, (256, 256), dtype=np.int64)
    return codes, sign, mag, table


class TestNativeLUTMatmul:
    @given(
        m=st.integers(0, 17),
        k=st.integers(0, 40),
        n=st.integers(0, 300),
        seed=st.integers(0, 2**31),
        wide=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_lut_loop_bit_identity_across_shapes_and_lut_dtypes(
        self, m, k, n, seed, wide
    ):
        # `wide` flips between int16-packable and int32-only LUT magnitudes,
        # covering both LUT-loop entry points; m/k/n of 0 cover empty
        # batches, empty reductions and empty outputs
        rng = np.random.default_rng(seed)
        lut_range = 2_000_000 if wide else 30_000
        codes, sign, mag, table = lut_problem(rng, m, k, n, lut_range)
        out = np.zeros((m, n), dtype=np.int64)
        get_backend().lut_matmul(
            codes.astype(np.uint8),
            sign.astype(np.int8),
            mag.astype(np.uint8),
            table.astype(np.int32 if wide else np.int16),
            out,
        )
        assert np.array_equal(out, reference_matmul(codes, sign, mag, table))

    @given(
        m=st.integers(0, 17),
        k=st.integers(0, 40),
        n=st.integers(0, 300),
        seed=st.integers(0, 2**31),
        wide=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_kernel_bit_identity_across_shapes(self, m, k, n, seed, wide):
        # the kernel takes the signed table while it is exact in int32 and
        # fits the byte budget, and the packed LUT loop otherwise
        rng = np.random.default_rng(seed)
        lut_range = 2_000_000 if wide else 30_000
        codes, sign, mag, table = lut_problem(rng, m, k, n, lut_range)
        multiplier = LUTMultiplier(f"native-prop-{seed}-{wide}", table)
        kernel = make_kernel(multiplier, sign, mag, "native")
        peak = int(np.abs(table).max())
        if _native_table_fits(peak, 256, k, n):
            assert "int32 table" in kernel.describe()
        else:
            assert f"int{32 if wide else 16} lut" in kernel.describe()
        result = kernel.matmul(codes)
        assert result.dtype == np.int64
        assert np.array_equal(result, reference_matmul(codes, sign, mag, table))

    def test_bit_identity_on_strided_codes(self):
        # the kernel must cope with non-contiguous activation views (every
        # other row/column of a larger batch)
        codes, sign, mag, table = lut_problem(RNG, 24, 32, 48, 60_000)
        multiplier = LUTMultiplier("native-strided", table)
        kernel = make_kernel(multiplier, sign, mag, "native")
        strided = codes[::2]
        assert not strided.flags["C_CONTIGUOUS"] or strided.base is not None
        assert np.array_equal(
            kernel.matmul(strided), reference_matmul(strided, sign, mag, table)
        )

    def test_matches_gather_for_registry_multipliers(self):
        codes = RNG.integers(0, 256, (13, 29))
        sign = RNG.integers(-1, 2, (29, 21))
        mag = RNG.integers(0, 256, (29, 21))
        for label in ("M6", "M9", "A4", "mul8s_L1G"):
            multiplier = get_multiplier(label)
            nat = make_kernel(multiplier, sign, mag, "native")
            ref = make_kernel(multiplier, sign, mag, "gather")
            assert np.array_equal(nat.matmul(codes), ref.matmul(codes)), label

    def test_concurrent_matmul_is_deterministic(self):
        codes, sign, mag, table = lut_problem(RNG, 16, 24, 40, 50_000)
        multiplier = LUTMultiplier("native-threads", table)
        kernel = make_kernel(multiplier, sign, mag, "native")
        expected = reference_matmul(codes, sign, mag, table)
        results = [None] * 8
        threads = [
            threading.Thread(
                target=lambda i=i: results.__setitem__(i, kernel.matmul(codes))
            )
            for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for result in results:
            assert np.array_equal(result, expected)

    def test_rejects_out_of_range_codes(self):
        codes, sign, mag, table = lut_problem(RNG, 4, 8, 6, 100)
        kernel = make_kernel(LUTMultiplier("native-range", table), sign, mag, "native")
        bad = codes.copy()
        bad[0, 0] = 300
        with pytest.raises(ConfigurationError):
            kernel.matmul(bad)

    def test_strategy_aliases(self):
        assert normalize_strategy("native") == "native"
        assert normalize_strategy("compiled") == "native"


class TestNativeTablePath:
    """The weight-stationary signed table: bit-identical to ``gather``."""

    @given(
        m=st.integers(0, 12),
        k=st.integers(1, 30),
        n=st.sampled_from([1, 6, 8, 9, 16, 17]),
        seed=st.integers(0, 2**31),
        packed=st.booleans(),
        label=st.sampled_from(["M2", "M6", "M8"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_bit_identity_against_gather(self, m, k, n, seed, packed, label):
        rng = np.random.default_rng(seed)
        codes = rng.integers(0, 256, (m, k))
        sign = rng.integers(-1, 2, (k, n))
        mag = rng.integers(0, 256, (k, n))
        multiplier = get_multiplier(label)
        kernel = make_kernel(multiplier, sign, mag, "native")
        assert "int32 table" in kernel.describe()
        if packed:
            codes = codes.astype(np.uint8)
        reference = make_kernel(multiplier, sign, mag, "gather").matmul(codes)
        assert np.array_equal(kernel.matmul(codes), reference)

    def test_table_and_lut_entry_points_agree(self):
        codes, sign, mag, table = lut_problem(RNG, 37, 23, 17, 1_000_000)
        multiplier = LUTMultiplier("native-entry-points", table)
        signed = make_kernel(multiplier, sign, mag, "native")._table
        assert signed.shape == (23, 256, 24)
        assert not signed[:, :, 17:].any()
        codes8 = codes.astype(np.uint8)
        via_table = np.zeros((37, 17), dtype=np.int64)
        via_lut = np.zeros((37, 17), dtype=np.int64)
        backend = get_backend()
        backend.table_matmul(codes8, signed, via_table)
        backend.lut_matmul(codes8, sign.astype(np.int8), mag.astype(np.uint8),
                           table.astype(np.int32), via_lut)
        assert np.array_equal(via_table, via_lut)
        assert np.array_equal(via_table, reference_matmul(codes, sign, mag, table))

    @pytest.mark.parametrize("bad", [300, -1])
    def test_out_of_range_codes_raise(self, bad):
        codes, sign, mag, table = lut_problem(RNG, 4, 8, 6, 100)
        kernel = make_kernel(LUTMultiplier("native-range-table", table), sign, mag,
                             "native")
        assert "int32 table" in kernel.describe()
        codes[1, 2] = bad
        with pytest.raises(ConfigurationError):
            kernel.matmul(codes)

    def test_narrow_multiplier_checks_uint8_codes(self):
        # a 4-bit LUT has 16 codes: uint8 codes are range-checked too
        table = np.arange(256, dtype=np.int64).reshape(16, 16)
        sign = np.ones((3, 2), dtype=np.int64)
        mag = np.full((3, 2), 15, dtype=np.int64)
        kernel = make_kernel(LUTMultiplier("native-4bit", table), sign, mag, "native")
        codes = np.full((2, 3), 16, dtype=np.uint8)
        with pytest.raises(ConfigurationError):
            kernel.matmul(codes)
        codes[:] = 15
        assert np.array_equal(
            kernel.matmul(codes), reference_matmul(codes.astype(np.int64), sign, mag, table)
        )

    def test_int32_overflow_bound_falls_back_to_the_lut_loop(self):
        # K * max|LUT| >= 2**31: int32 table sums could overflow, so the
        # kernel keeps the int64-accumulating LUT loop
        rng = np.random.default_rng(3)
        codes, sign, mag, table = lut_problem(rng, 9, 12, 6, 1000)
        table[255, 255] = 2**28
        codes[0, :] = 255
        mag[:, 0] = 255
        sign[:, 0] = 1
        kernel = make_kernel(LUTMultiplier("native-overflow", table), sign, mag,
                             "native")
        assert kernel.describe().endswith("int32 lut]")
        result = kernel.matmul(codes)
        assert result[0, 0] == 12 * 2**28 >= 2**31
        assert np.array_equal(result, reference_matmul(codes, sign, mag, table))

    def test_over_budget_layer_keeps_the_lut_loop(self):
        # LeNet conv3 (K=256, N=120) would need a 30 MiB table
        sign = np.ones((256, 120), dtype=np.int64)
        kernel = make_kernel(get_multiplier("M6"), sign, sign, "native")
        assert "lut" in kernel.describe()


class TestNativeCol2Im:
    @given(
        batch=st.integers(0, 4),
        size=st.integers(4, 12),
        channels=st.integers(1, 4),
        kernel=st.integers(1, 5),
        stride=st.integers(1, 3),
        padding=st.integers(0, 3),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=40, deadline=None)
    def test_bit_identity_across_geometries(
        self, batch, size, channels, kernel, stride, padding, seed
    ):
        if size + 2 * padding < kernel:
            return
        rng = np.random.default_rng(seed)
        out_size = (size + 2 * padding - kernel) // stride + 1
        cols = rng.standard_normal(
            (batch, out_size, out_size, kernel * kernel * channels)
        )
        shape = (batch, size, size, channels)
        with_native = col2im(cols, shape, kernel, kernel, stride, padding)
        reference = col2im_reference(cols, shape, kernel, kernel, stride, padding)
        assert np.array_equal(with_native, reference)

    def test_roundtrip_with_im2col(self):
        x = RNG.standard_normal((3, 10, 10, 2))
        cols = im2col(x, 3, 3, 1, 1)
        ones = np.ones_like(cols)
        counts = col2im(ones, x.shape, 3, 3, 1, 1)
        # interior pixels are covered by all 9 kernel offsets
        assert np.all(counts[:, 2:-2, 2:-2, :] == 9.0)

    def test_out_hook_uses_native_and_matches(self):
        # the arena path hands in a preallocated padded buffer; the native
        # scatter must fill it and return the same unpadded view contract
        cols = RNG.standard_normal((2, 5, 5, 3 * 3 * 4))
        shape = (2, 9, 9, 4)
        out = np.full((2, 11, 11, 4), 7.0)  # dirty buffer: col2im must zero it
        result = col2im(cols, shape, 3, 3, 2, 1, out=out)
        assert result.base is out or result is out
        assert np.array_equal(
            result, col2im_reference(cols, shape, 3, 3, 2, 1)
        )

    def test_non_contiguous_cols_fall_back_and_match(self):
        cols_wide = RNG.standard_normal((2, 4, 4, 2 * 2 * 3 * 2))
        cols = cols_wide[..., : 2 * 2 * 3]  # non-contiguous trailing slice
        assert not cols.flags["C_CONTIGUOUS"]
        shape = (2, 8, 8, 3)
        assert np.array_equal(
            col2im(cols, shape, 2, 2, 2, 0),
            col2im_reference(cols, shape, 2, 2, 2, 0),
        )


class TestNativeIm2Col:
    @pytest.mark.skipif(backend_name() != "cext", reason="C wrapper check")
    def test_c_wrapper_rejects_mismatched_cols(self):
        # the C loop copies through raw pointers: a patch matrix that does
        # not fit the image must be refused before the call
        x = RNG.standard_normal((2, 6, 6, 3))
        backend = get_backend()
        with pytest.raises(ShapeError):
            backend.im2col(x, np.empty((2, 3, 3, 3 * 3 * 3)), 3, 3, 2)
        with pytest.raises(ShapeError):
            backend.im2col(x, np.empty((2, 4, 4, 2 * 3 * 3)), 3, 3, 1)
        cols = np.empty((2, 4, 4, 3 * 3 * 3))
        backend.im2col(x, cols, 3, 3, 1)
        assert np.array_equal(cols, im2col(x, 3, 3, 1, 0))


class TestBackendResolution:
    def test_requested_backend_normalisation(self, clean_backend_state):
        monkeypatch = clean_backend_state
        for raw, expected in (
            ("auto", "auto"),
            ("", "auto"),
            ("NUMBA", "numba"),
            ("jit", "numba"),
            ("ctypes", "cext"),
            ("c", "cext"),
            ("off", "numpy"),
            ("reference", "numpy"),
        ):
            monkeypatch.setenv(BACKEND_ENV_VAR, raw)
            assert requested_backend() == expected

    def test_invalid_backend_fails_loudly(self, clean_backend_state):
        monkeypatch = clean_backend_state
        monkeypatch.setenv(BACKEND_ENV_VAR, "warp-drive")
        reset_backend()
        with pytest.raises(ConfigurationError):
            get_backend()

    def test_numpy_backend_disables_native(self, clean_backend_state):
        monkeypatch = clean_backend_state
        monkeypatch.setenv(BACKEND_ENV_VAR, "numpy")
        reset_backend()
        assert get_backend() is None
        assert backend_name() == "numpy"
        assert select_strategy(get_multiplier("M6")) in ("sparse", "gather")
        with pytest.raises(ConfigurationError):
            make_kernel(
                get_multiplier("M6"),
                RNG.integers(-1, 2, (8, 4)),
                RNG.integers(0, 256, (8, 4)),
                "native",
            )

    def test_numba_absent_degrades_with_warning(self, clean_backend_state):
        # simulate `import numba` failing even on hosts that have it
        monkeypatch = clean_backend_state
        monkeypatch.setitem(sys.modules, "numba", None)
        monkeypatch.delitem(sys.modules, "repro.axnn.native.numba_backend", raising=False)
        monkeypatch.setenv(BACKEND_ENV_VAR, "numba")
        reset_backend()
        with pytest.warns(RuntimeWarning, match="falling back"):
            backend = get_backend()
        assert backend is None

    def test_auto_degrades_to_numpy_when_everything_is_absent(
        self, clean_backend_state
    ):
        # Numba import fails and the C extension refuses to build: "auto"
        # must resolve to the reference path and kernels must still work
        monkeypatch = clean_backend_state
        from repro.axnn.native import cext

        monkeypatch.setitem(sys.modules, "numba", None)
        monkeypatch.delitem(sys.modules, "repro.axnn.native.numba_backend", raising=False)

        def refuse(path=None):
            raise cext.NativeBuildError("simulated: no compiler")

        monkeypatch.setattr(cext, "load_library", refuse)
        monkeypatch.setenv(BACKEND_ENV_VAR, "auto")
        reset_backend()
        assert get_backend() is None
        assert select_strategy(get_multiplier("M6")) in ("sparse", "gather")
        sign = RNG.integers(-1, 2, (12, 6))
        mag = RNG.integers(0, 256, (12, 6))
        codes = RNG.integers(0, 256, (5, 12))
        auto_kernel = make_kernel(get_multiplier("M6"), sign, mag, "auto")
        gather = make_kernel(get_multiplier("M6"), sign, mag, "gather")
        assert np.array_equal(auto_kernel.matmul(codes), gather.matmul(codes))

    def test_first_touch_resolution_is_thread_safe(self, clean_backend_state):
        monkeypatch = clean_backend_state
        calls = []
        original = native._resolve

        def counting_resolve():
            calls.append(threading.get_ident())
            return original()

        monkeypatch.setattr(native, "_resolve", counting_resolve)
        reset_backend()
        barrier = threading.Barrier(8)
        results = [None] * 8

        def resolve(index):
            barrier.wait()
            results[index] = get_backend()

        threads = [
            threading.Thread(target=resolve, args=(i,)) for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(calls) == 1
        assert all(result is results[0] for result in results)

    def test_clear_profile_cache_resets_native_state(self, clean_backend_state):
        monkeypatch = clean_backend_state
        assert get_backend() is not None
        monkeypatch.setenv(BACKEND_ENV_VAR, "numpy")
        # still cached: env change alone must not flip the resolved backend
        assert get_backend() is not None
        clear_profile_cache()
        assert get_backend() is None

    def test_native_fingerprint_keys(self):
        fingerprint = native_fingerprint()
        assert fingerprint["kernel_backend"] in ("numba", "cext", "numpy")
        assert "kernel_backend_env" in fingerprint
        assert "numba" in fingerprint

    def test_env_fingerprint_includes_backend(self):
        from repro.benchmarking.report import env_fingerprint

        fingerprint = env_fingerprint()
        assert fingerprint["kernel_backend"] == backend_name()
        assert "numba" in fingerprint


class TestNativeEndToEnd:
    def test_axdnn_predictions_match_reference_backend(
        self, tiny_cnn, calibration_batch, mnist_small, clean_backend_state
    ):
        from repro.axnn import build_axdnn

        monkeypatch = clean_backend_state
        x = mnist_small.test.images[:32]
        native_model = build_axdnn(tiny_cnn, "M6", calibration_batch, kernel="native")
        native_logits = native_model.predict(x)
        monkeypatch.setenv(BACKEND_ENV_VAR, "numpy")
        clear_profile_cache()
        reference_model = build_axdnn(tiny_cnn, "M6", calibration_batch, kernel="auto")
        assert np.array_equal(reference_model.predict(x), native_logits)

    def test_quantize_matches_scheme(self):
        # the packed uint8 codes the native kernel consumes are exactly the
        # scheme's int64 codes (the kernel validates the range first)
        scheme = AffineQuantization(scale=0.037, zero_point=3, bits=8)
        x = RNG.standard_normal((6, 9))
        codes = scheme.quantize(x)
        assert codes.min() >= 0 and codes.max() <= 255
