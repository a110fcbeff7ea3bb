"""Tests for the pluggable BLAS-backed LUT kernel engine (repro.axnn.kernels).

Every kernel strategy must produce bit-identical integer accumulators to the
legacy chunked gather loop, for every multiplier family — that equivalence is
what lets the engine swap kernels freely for throughput.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.axnn import build_axdnn
from repro.axnn.approx_ops import (
    approx_dot_general,
    approx_matmul,
    zero_point_correction_vector,
)
from repro.axnn.kernels import (
    KERNEL_STRATEGIES,
    ErrorCorrectionKernel,
    ExactBLASKernel,
    GatherKernel,
    PerCodeBLASKernel,
    SparseOneHotKernel,
    integer_low_rank_factors,
    make_kernel,
    multiplier_kernel_profile,
    normalize_strategy,
    select_strategy,
)
from repro.errors import ConfigurationError, ShapeError
from repro.multipliers import get_multiplier, list_multipliers
from repro.multipliers.base import clear_global_lut_cache, global_lut_cache_size
from repro.multipliers.behavioral import (
    DrumMultiplier,
    ExactMultiplier,
    MitchellLogMultiplier,
    NoisyLSBMultiplier,
    OperandTruncationMultiplier,
    PartialProductTruncationMultiplier,
)

RNG = np.random.default_rng(42)

#: one representative per behavioural family (exact, truncation x2, Mitchell,
#: DRUM, noisy LSB) — the set named by the kernel-equivalence requirement
FAMILY_MULTIPLIERS = [
    ExactMultiplier("kernel-exact"),
    OperandTruncationMultiplier("kernel-optrunc", truncate_a=2, truncate_b=2),
    PartialProductTruncationMultiplier("kernel-pptrunc", cut_columns=3),
    MitchellLogMultiplier("kernel-mitchell"),
    DrumMultiplier("kernel-drum", k=4),
    NoisyLSBMultiplier("kernel-noisy", max_error=31),
]

ALL_STRATEGIES = ["gather", "percode", "errorcorrection", "sparse"]


def random_problem(rng, m=9, k=17, n=7):
    codes = rng.integers(0, 256, size=(m, k))
    weights = rng.integers(-255, 256, size=(k, n))
    return codes, np.sign(weights), np.abs(weights)


class TestKernelEquivalence:
    @pytest.mark.parametrize(
        "multiplier", FAMILY_MULTIPLIERS, ids=lambda m: m.name
    )
    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_bit_identical_to_gather_reference(self, multiplier, strategy):
        codes, sign, mag = random_problem(np.random.default_rng(7))
        reference = approx_matmul(codes, sign, mag, multiplier.lut())
        kernel = make_kernel(multiplier, sign, mag, strategy)
        assert kernel.matmul(codes).dtype == np.int64
        assert np.array_equal(kernel.matmul(codes), reference)

    @pytest.mark.parametrize(
        "label", ["M1", "M2", "M3", "M4", "M5", "M6", "M7", "M8", "M9",
                  "A2", "A3", "A4", "A5", "A6", "A7", "A8"]
    )
    def test_registry_multipliers_all_strategies(self, label):
        multiplier = get_multiplier(label)
        codes, sign, mag = random_problem(np.random.default_rng(11), m=6, k=12, n=5)
        reference = approx_matmul(codes, sign, mag, multiplier.lut())
        strategies = list(ALL_STRATEGIES) + ["auto"]
        if multiplier.is_exact():
            strategies.append("exact")
        for strategy in strategies:
            kernel = make_kernel(multiplier, sign, mag, strategy)
            assert np.array_equal(kernel.matmul(codes), reference), (
                f"{label}: {strategy} ({kernel.describe()}) diverged from gather"
            )

    def test_exact_kernel_requires_exact_multiplier(self):
        _, sign, mag = random_problem(np.random.default_rng(3))
        with pytest.raises(ConfigurationError):
            make_kernel(FAMILY_MULTIPLIERS[1], sign, mag, "exact")

    def test_kernel_rejects_shape_mismatch(self):
        multiplier = FAMILY_MULTIPLIERS[1]
        codes, sign, mag = random_problem(np.random.default_rng(5))
        kernel = make_kernel(multiplier, sign, mag, "percode")
        with pytest.raises(ShapeError):
            kernel.matmul(codes[:, :-1])

    def test_prebuilt_kernel_passthrough(self):
        codes, sign, mag = random_problem(np.random.default_rng(5))
        kernel = make_kernel(FAMILY_MULTIPLIERS[1], sign, mag, "gather")
        assert make_kernel(FAMILY_MULTIPLIERS[1], sign, mag, kernel) is kernel


@settings(max_examples=25, deadline=None)
@given(
    data=st.data(),
    m=st.integers(1, 6),
    k=st.integers(1, 12),
    n=st.integers(1, 5),
    mult_index=st.integers(0, len(FAMILY_MULTIPLIERS) - 1),
    strategy=st.sampled_from(ALL_STRATEGIES),
)
def test_kernel_equivalence_property(data, m, k, n, mult_index, strategy):
    """Property: every strategy equals the gather reference on any operands."""
    codes = np.array(
        data.draw(st.lists(st.integers(0, 255), min_size=m * k, max_size=m * k))
    ).reshape(m, k)
    weights = np.array(
        data.draw(st.lists(st.integers(-255, 255), min_size=k * n, max_size=k * n))
    ).reshape(k, n)
    sign, mag = np.sign(weights), np.abs(weights)
    multiplier = FAMILY_MULTIPLIERS[mult_index]
    reference = approx_matmul(codes, sign, mag, multiplier.lut())
    kernel = make_kernel(multiplier, sign, mag, strategy)
    assert np.array_equal(kernel.matmul(codes), reference)


#: registry labels spanning both figure sets, including every full-rank
#: family (M6/M9/A4/A8 compressor trees) the sparse kernel exists for
REGISTRY_LABELS = [f"M{i}" for i in range(1, 10)] + [f"A{i}" for i in range(2, 9)]


class TestSparseOneHotKernel:
    def test_stacked_path_description(self):
        _, sign, mag = random_problem(np.random.default_rng(2))
        kernel = make_kernel(get_multiplier("M6"), sign, mag, "sparse")
        assert isinstance(kernel, SparseOneHotKernel)
        assert "stacked" in kernel.describe()

    def test_grouped_path_bit_identical(self, monkeypatch):
        """Over-budget shapes chunk over present codes, still bit-identical.

        The batch is larger than ``2 * 2**bits`` rows so the call takes the
        real grouped-rebuild path rather than the small-batch gather
        fallback.
        """
        import repro.axnn.kernels as kernels_module

        codes, sign, mag = random_problem(np.random.default_rng(23), m=530, k=9, n=4)
        multiplier = get_multiplier("M9")
        reference = approx_matmul(codes, sign, mag, multiplier.lut())
        monkeypatch.setattr(
            kernels_module, "_SPARSE_STACK_BUDGET_BYTES", 9 * 4 * 4 * 10
        )
        kernel = make_kernel(multiplier, sign, mag, "sparse")
        assert "grouped" in kernel.describe()
        assert codes.shape[0] >= 2 * kernel.codes_total
        assert np.array_equal(kernel.matmul(codes), reference)

    def test_small_batch_fallback_bit_identical(self, monkeypatch):
        """Below the amortisation point, over-budget shapes stay bit-identical."""
        import repro.axnn.kernels as kernels_module

        codes, sign, mag = random_problem(np.random.default_rng(29), m=7, k=9, n=4)
        multiplier = get_multiplier("M9")
        reference = approx_matmul(codes, sign, mag, multiplier.lut())
        monkeypatch.setattr(
            kernels_module, "_SPARSE_STACK_BUDGET_BYTES", 9 * 4 * 4 * 10
        )
        kernel = make_kernel(multiplier, sign, mag, "sparse")
        assert np.array_equal(kernel.matmul(codes), reference)

    def test_result_dtype_is_int64(self):
        codes, sign, mag = random_problem(np.random.default_rng(3))
        kernel = make_kernel(get_multiplier("A4"), sign, mag, "sparse")
        assert kernel.matmul(codes).dtype == np.int64

    def test_rejects_out_of_range_codes(self):
        codes, sign, mag = random_problem(np.random.default_rng(5))
        kernel = make_kernel(get_multiplier("M6"), sign, mag, "sparse")
        with pytest.raises(ConfigurationError):
            kernel.matmul(codes + 256)
        with pytest.raises(ConfigurationError):
            kernel.matmul(codes - 300)

    def test_uint8_codes_do_not_wrap(self):
        # the one-hot column index codes * K + k exceeds 255 for K = 17
        codes, sign, mag = random_problem(np.random.default_rng(7), m=40, k=17)
        codes[0, :] = 255
        multiplier = get_multiplier("M6")
        reference = approx_matmul(codes, sign, mag, multiplier.lut())
        kernel = make_kernel(multiplier, sign, mag, "sparse")
        assert np.array_equal(kernel.matmul(codes.astype(np.uint8)), reference)

    def test_single_row_single_column(self):
        """The degenerate 1x1 weight shape stays bit-identical."""
        multiplier = get_multiplier("M6")
        codes = np.array([[255]])
        sign = np.array([[-1]])
        mag = np.array([[255]])
        kernel = make_kernel(multiplier, sign, mag, "sparse")
        expected = approx_matmul(codes, sign, mag, multiplier.lut())
        assert np.array_equal(kernel.matmul(codes), expected)


@settings(max_examples=30, deadline=None)
@given(
    data=st.data(),
    m=st.integers(1, 7),
    k=st.integers(1, 13),
    n=st.integers(1, 5),
    label=st.sampled_from(REGISTRY_LABELS),
)
def test_sparse_bit_identity_property_registry(data, m, k, n, label):
    """Property: sparse == gather for every registry multiplier, odd shapes."""
    codes = np.array(
        data.draw(st.lists(st.integers(0, 255), min_size=m * k, max_size=m * k))
    ).reshape(m, k)
    weights = np.array(
        data.draw(st.lists(st.integers(-255, 255), min_size=k * n, max_size=k * n))
    ).reshape(k, n)
    sign, mag = np.sign(weights), np.abs(weights)
    multiplier = get_multiplier(label)
    reference = approx_matmul(codes, sign, mag, multiplier.lut())
    kernel = make_kernel(multiplier, sign, mag, "sparse")
    assert np.array_equal(kernel.matmul(codes), reference)


class TestIntegerLowRankFactors:
    def test_zero_table_has_rank_zero(self):
        factors = integer_low_rank_factors(np.zeros((8, 8), dtype=np.int64))
        assert factors is not None
        assert len(factors[0]) == 0

    def test_exact_product_table_is_rank_one(self):
        table = np.outer(np.arange(16), np.arange(16))
        factors = integer_low_rank_factors(table)
        assert factors is not None and len(factors[0]) == 1

    def test_reconstruction_is_exact(self):
        multiplier = DrumMultiplier("drum-recon", k=4)
        factors = integer_low_rank_factors(multiplier.lut())
        assert factors is not None
        fs, gs = factors
        reconstructed = sum(np.outer(f, g) for f, g in zip(fs, gs))
        assert np.array_equal(reconstructed, multiplier.lut().astype(np.int64))

    def test_full_rank_noise_returns_none(self):
        rng = np.random.default_rng(0)
        table = rng.integers(-50, 50, size=(32, 32))
        factors = integer_low_rank_factors(table, max_rank=8)
        if factors is not None:  # extremely unlikely; keep the assert honest
            fs, gs = factors
            assert np.array_equal(
                sum(np.outer(f, g) for f, g in zip(fs, gs)), table
            )

    def test_truncation_families_have_expected_ranks(self):
        assert multiplier_kernel_profile(get_multiplier("M4")).lut_rank == 1
        assert multiplier_kernel_profile(get_multiplier("M7")).lut_rank == 1
        profile_m2 = multiplier_kernel_profile(get_multiplier("M2"))
        assert profile_m2.lut_rank == 3
        sign, magnitude = random_problem(np.random.default_rng(2))[1:]
        kernel = make_kernel(get_multiplier("M2"), sign, magnitude, "errorcorrection")
        assert "low-rank r=2" in kernel.describe()


class TestStrategySelection:
    def test_exact_multiplier_selects_exact(self):
        assert select_strategy(get_multiplier("M1")) == "exact"

    def test_low_rank_lut_selects_percode(self):
        # rank 1 stays on the fused BLAS product from N = 16 up (and
        # everywhere without a shape); narrower layers go native
        assert select_strategy(get_multiplier("M4")) == "percode"
        kernel = make_kernel(
            get_multiplier("M4"),
            *random_problem(np.random.default_rng(1), n=16)[1:],
            "auto",
        )
        assert isinstance(kernel, PerCodeBLASKernel)
        assert "low-rank" in kernel.describe()

    def test_unstructured_lut_selects_native_or_sparse(self):
        # compressor-tree circuits and the noisy-LSB family are full rank:
        # no factorisation exists, so a non-gather full-rank strategy takes
        # over — the native compiled kernel when a backend resolved, the
        # sparse one-hot kernel otherwise
        from repro.axnn.native import get_backend

        expected = "native" if get_backend() is not None else "sparse"
        assert select_strategy(get_multiplier("M6")) == expected
        assert select_strategy(get_multiplier("mul8s_L1G")) == expected

    def test_unstructured_lut_selects_sparse_without_native(self, monkeypatch):
        # with the native tier disabled the pre-existing selection holds
        import repro.axnn.kernels as kernels_module

        monkeypatch.setattr(
            kernels_module, "_native_strategy_available", lambda multiplier: False
        )
        assert select_strategy(get_multiplier("M6")) == "sparse"
        assert select_strategy(get_multiplier("mul8s_L1G")) == "sparse"

    def test_every_registry_multiplier_leaves_the_gather_path(self):
        # the acceptance criterion for the sparse kernel: under "auto", no
        # registry multiplier is left on the reference gather loop
        for name in list_multipliers():
            strategy = select_strategy(get_multiplier(name))
            assert strategy != "gather", name
            assert strategy in KERNEL_STRATEGIES, name

    @pytest.mark.parametrize(
        "alias",
        ["per-code-BLAS", "error-correction", "sparse-one-hot", "one_hot",
         "reference", "blas", "errcorr", "AUTO", "definitely-not-a-kernel"],
    )
    def test_strategy_aliases_refused(self, alias):
        with pytest.raises(ConfigurationError, match="known:"):
            normalize_strategy(alias)

    def test_canonical_names_accepted(self):
        for name in ("auto", *KERNEL_STRATEGIES):
            assert normalize_strategy(name) == name

    def test_strategy_names_exported(self):
        assert set(ALL_STRATEGIES) <= set(KERNEL_STRATEGIES)

    def test_auto_lenet_build_never_reads_the_error_lut(
        self, calibration_batch, monkeypatch
    ):
        # only the by-name errorcorrection kernel reads the error table;
        # profiling for "auto" must not pay for it
        from repro.axnn import build_victims
        from repro.axnn.kernels import clear_profile_cache
        from repro.models import build_lenet5
        from repro.multipliers.base import Multiplier

        def refuse(self):
            raise AssertionError(f"error_lut() called for {self.name}")

        clear_profile_cache()
        monkeypatch.setattr(Multiplier, "error_lut", refuse)
        labels = [f"M{index}" for index in range(1, 10)]
        victims = build_victims(
            build_lenet5(seed=0), labels, calibration_batch, kernel="auto"
        )
        assert list(victims) == labels


#: LeNet-5 compute layers as bound (K, N) weight shapes (28x28 input)
LENET_SHAPES = {
    "conv1": (25, 6),
    "conv2": (150, 16),
    "conv3": (256, 120),
    "fc1": (120, 84),
    "fc2": (84, 10),
}

#: the "auto" routing of the Fig. 4 victims on LeNet-5 with a native backend
#: (rank: M1 exact, M4/M7 1, M2 3, M3 4, M5/M8 8, M6/M9 full).  Signed
#: tables fit for conv1, conv2 and fc2; conv3 (30 MiB) and fc1 (10 MiB) are
#: over the budget, so low-rank LUTs stay on percode there
_TABLE_NATIVE = {
    "conv1": "native", "conv2": "native", "conv3": "percode",
    "fc1": "percode", "fc2": "native",
}
#: rank 1 needs N < 16: conv2 (N = 16) stays on the fused product
_RANK1_NATIVE = dict(_TABLE_NATIVE, conv2="percode")
LENET_ROUTING = {
    "M1": dict.fromkeys(LENET_SHAPES, "exact"),
    "M2": _TABLE_NATIVE,
    "M3": _TABLE_NATIVE,
    "M4": _RANK1_NATIVE,
    "M5": _TABLE_NATIVE,
    "M6": dict.fromkeys(LENET_SHAPES, "native"),
    "M7": _RANK1_NATIVE,
    "M8": _TABLE_NATIVE,
    "M9": dict.fromkeys(LENET_SHAPES, "native"),
}


def _native_backend_resolved() -> bool:
    from repro.axnn.native import get_backend

    return get_backend() is not None


class TestShapeAwareRouting:
    @pytest.mark.parametrize("layer", sorted(LENET_SHAPES))
    @pytest.mark.parametrize("label", sorted(LENET_ROUTING))
    def test_lenet_routing_table(self, label, layer):
        expected = LENET_ROUTING[label][layer]
        inner, outputs = LENET_SHAPES[layer]
        multiplier = get_multiplier(label)
        if expected == "native" and not _native_backend_resolved():
            # without a compiled backend the BLAS/sparse fallbacks take over
            low_rank = multiplier_kernel_profile(multiplier).lut_rank is not None
            expected = "percode" if low_rank else "sparse"
        sign = np.ones((inner, outputs), dtype=np.int64)
        kernel = make_kernel(multiplier, sign, np.zeros_like(sign), "auto")
        assert kernel.strategy == expected
        assert select_strategy(multiplier, outputs, inner) == expected

    def test_full_rank_table_only_where_it_fits(self):
        if not _native_backend_resolved():
            pytest.skip("no native backend resolved")
        for layer, (inner, outputs) in LENET_SHAPES.items():
            sign = np.ones((inner, outputs), dtype=np.int64)
            kernel = make_kernel(get_multiplier("M6"), sign, sign, "auto")
            uses_table = "table" in kernel.describe()
            assert uses_table == (_TABLE_NATIVE[layer] == "native"), layer

    def test_crossover_scales_with_rank(self):
        if not _native_backend_resolved():
            pytest.skip("no native backend resolved")
        from repro.axnn.kernels import _NATIVE_WIDTH_PER_RANK

        for label in ("M4", "M2", "M5"):
            multiplier = get_multiplier(label)
            crossover = _NATIVE_WIDTH_PER_RANK * multiplier_kernel_profile(
                multiplier
            ).lut_rank
            assert select_strategy(multiplier, crossover - 1, 16) == "native"
            assert select_strategy(multiplier, crossover, 16) == "percode"

    def test_over_budget_table_keeps_percode(self):
        if not _native_backend_resolved():
            pytest.skip("no native backend resolved")
        from repro.axnn.kernels import _NATIVE_TABLE_BUDGET_BYTES

        multiplier = get_multiplier("M8")
        # (K, 256 codes, 8 lanes) int32 rows: the deepest K that still fits
        deepest = _NATIVE_TABLE_BUDGET_BYTES // (256 * 8 * 4)
        assert select_strategy(multiplier, 8, deepest) == "native"
        assert select_strategy(multiplier, 8, deepest + 1) == "percode"

    def test_routing_without_native_backend(self, monkeypatch):
        import repro.axnn.kernels as kernels_module

        monkeypatch.setattr(
            kernels_module, "_native_strategy_available", lambda multiplier: False
        )
        for label in ("M2", "M4", "M5", "M8"):
            for inner, outputs in LENET_SHAPES.values():
                assert (
                    select_strategy(get_multiplier(label), outputs, inner) == "percode"
                )
        assert select_strategy(get_multiplier("M6"), 6, 25) == "sparse"

    def test_select_strategy_without_shape_is_the_wide_layer_choice(self):
        # one-argument calls keep working and never take the narrow route;
        # without K the table cannot be sized, so N alone stays on percode
        for label in ("M2", "M4", "M5", "M8"):
            assert select_strategy(get_multiplier(label)) == "percode"
            assert select_strategy(get_multiplier(label), 6) == "percode"

    @pytest.mark.parametrize("label", ["M2", "M5", "M8"])
    def test_lenet_auto_bit_identical_across_the_boundary(
        self, label, trained_lenet, calibration_batch, mnist_small
    ):
        x = mnist_small.test.images[:12]
        auto = build_axdnn(trained_lenet, label, calibration_batch, kernel="auto")
        gather = build_axdnn(trained_lenet, label, calibration_batch, kernel="gather")
        strategies = {layer.kernel.strategy for layer in auto.compute_layers()}
        if _native_backend_resolved():
            assert strategies == {"native", "percode"}
        else:
            assert strategies == {"percode"}
        assert np.array_equal(auto.predict(x), gather.predict(x))


class TestDotGeneralIntegration:
    def test_kernel_param_matches_legacy_path(self):
        multiplier = FAMILY_MULTIPLIERS[1]
        codes, sign, mag = random_problem(np.random.default_rng(13))
        legacy = approx_dot_general(codes, sign, mag, multiplier, zero_point=7)
        for strategy in ALL_STRATEGIES + ["auto"]:
            routed = approx_dot_general(
                codes, sign, mag, multiplier, zero_point=7, kernel=strategy
            )
            assert np.array_equal(routed, legacy)

    def test_precomputed_zero_point_correction(self):
        multiplier = FAMILY_MULTIPLIERS[4]
        codes, sign, mag = random_problem(np.random.default_rng(17))
        correction = zero_point_correction_vector(sign, mag)
        assert np.array_equal(correction, (sign * mag).sum(axis=0))
        assert np.array_equal(
            approx_dot_general(codes, sign, mag, multiplier, zero_point=5),
            approx_dot_general(
                codes, sign, mag, multiplier, zero_point=5,
                zero_point_correction=correction,
            ),
        )


class TestEngineKernelSelection:
    def test_build_axdnn_kernels_bit_identical(self, tiny_cnn, calibration_batch, mnist_small):
        x = mnist_small.test.images[:8]
        reference = build_axdnn(
            tiny_cnn, "M4", calibration_batch, kernel="gather"
        ).predict(x)
        for strategy in ["percode", "errorcorrection", "sparse", "auto"]:
            ax = build_axdnn(tiny_cnn, "M4", calibration_batch, kernel=strategy)
            assert np.array_equal(ax.predict(x), reference), strategy

    def test_kernel_report_names_every_compute_layer(self, tiny_cnn, calibration_batch):
        ax = build_axdnn(tiny_cnn, "M4", calibration_batch, kernel="auto")
        report = ax.kernel_report()
        assert set(report) == {layer.name for layer in ax.compute_layers()}
        for layer in ax.compute_layers():
            inner, outputs = layer.weight_sign.shape
            expected = select_strategy(layer.multiplier, outputs, inner)
            entry = report[layer.name]
            assert entry.startswith(expected), (layer.name, entry)
            assert ("low-rank" in entry) == (expected == "percode")
        assert ax.kernel == "auto"

    def test_build_axdnn_rejects_unknown_kernel(self, tiny_cnn, calibration_batch):
        with pytest.raises(ConfigurationError):
            build_axdnn(tiny_cnn, "M4", calibration_batch, kernel="warp-drive")

    def test_layer_kernels_use_strategy_classes(self, tiny_cnn, calibration_batch):
        gather_model = build_axdnn(tiny_cnn, "M6", calibration_batch, kernel="gather")
        assert all(
            isinstance(layer.kernel, GatherKernel)
            for layer in gather_model.compute_layers()
        )
        ec_model = build_axdnn(
            tiny_cnn, "M2", calibration_batch, kernel="errorcorrection"
        )
        assert all(
            isinstance(layer.kernel, ErrorCorrectionKernel)
            for layer in ec_model.compute_layers()
        )
        exact_model = build_axdnn(tiny_cnn, "M1", calibration_batch, kernel="auto")
        assert all(
            isinstance(layer.kernel, ExactBLASKernel)
            for layer in exact_model.compute_layers()
        )
        from repro.axnn.kernels import NativeLUTKernel
        from repro.axnn.native import get_backend

        full_rank_class = (
            NativeLUTKernel if get_backend() is not None else SparseOneHotKernel
        )
        auto_model = build_axdnn(tiny_cnn, "M6", calibration_batch, kernel="auto")
        assert all(
            isinstance(layer.kernel, full_rank_class)
            for layer in auto_model.compute_layers()
        )
        sparse_model = build_axdnn(tiny_cnn, "M6", calibration_batch, kernel="sparse")
        assert all(
            isinstance(layer.kernel, SparseOneHotKernel)
            for layer in sparse_model.compute_layers()
        )


class TestProcessWideLUTCache:
    def test_same_object_across_instances(self):
        first = OperandTruncationMultiplier("cache-shared", 2, 2)
        second = OperandTruncationMultiplier("cache-shared", 2, 2)
        assert first.lut() is second.lut()

    def test_survives_instance_clear_cache(self):
        multiplier = OperandTruncationMultiplier("cache-survivor", 1, 1)
        table = multiplier.lut()
        multiplier.clear_cache()
        assert multiplier.lut() is table

    def test_different_parameters_do_not_collide(self):
        mild = OperandTruncationMultiplier("cache-params", 1, 1)
        harsh = OperandTruncationMultiplier("cache-params", 4, 4)
        assert not np.array_equal(mild.lut(), harsh.lut())

    def test_shared_tables_are_read_only(self):
        multiplier = OperandTruncationMultiplier("cache-frozen", 2, 2)
        with pytest.raises(ValueError):
            multiplier.lut()[0, 0] = 1

    def test_global_clear_forces_rebuild(self):
        multiplier = OperandTruncationMultiplier("cache-rebuild", 3, 3)
        table = multiplier.lut()
        assert global_lut_cache_size() > 0
        multiplier.clear_cache()
        clear_global_lut_cache()
        rebuilt = multiplier.lut()
        assert rebuilt is not table
        assert np.array_equal(rebuilt, table)

    def test_same_named_circuit_multipliers_do_not_collide(self):
        from repro.circuits.adders import (
            ApproximateMirrorAdder1,
            ApproximateMirrorAdder2,
        )
        from repro.circuits.array_multiplier import ArrayMultiplierCircuit
        from repro.multipliers.base import CircuitMultiplier

        first = CircuitMultiplier(
            "cache-circuit",
            ArrayMultiplierCircuit(
                width=8, approx_cell=ApproximateMirrorAdder1(), approx_columns=8
            ),
        )
        second = CircuitMultiplier(
            "cache-circuit",
            ArrayMultiplierCircuit(
                width=8, approx_cell=ApproximateMirrorAdder2(), approx_columns=6
            ),
        )
        assert first._lut_cache_key() != second._lut_cache_key()
        assert not np.array_equal(first.lut(), second.lut())

    def test_library_clear_cache_drops_kernel_profiles(self):
        from repro.multipliers import clear_cache, get_multiplier

        profile = multiplier_kernel_profile(get_multiplier("M4"))
        assert multiplier_kernel_profile(get_multiplier("M4")) is profile
        clear_cache()
        assert multiplier_kernel_profile(get_multiplier("M4")) is not profile


class TestInferenceCacheRelease:
    def test_predict_releases_conv_cols_cache(self, tiny_cnn, mnist_small):
        from repro.nn.layers.conv import Conv2D

        x = mnist_small.test.images[:4]
        tiny_cnn.predict(x)
        conv_layers = [l for l in tiny_cnn.layers if isinstance(l, Conv2D)]
        assert conv_layers
        assert all(l._cols_cache is None for l in conv_layers)

    def test_predict_releases_activation_and_pool_caches(self, mnist_small):
        from repro.nn import AvgPool2D, Sequential
        from repro.nn.layers.activations import ReLU

        model = Sequential(
            [ReLU(), AvgPool2D(pool_size=2)], input_shape=(28, 28, 1), seed=0
        )
        x = mnist_small.test.images[:4]
        model.predict(x)
        relu, pool = model.layers
        assert relu._mask is None
        assert pool._input_shape is None
        # a plain forward (attack-gradient path) keeps the caches
        model.forward(x, training=False)
        assert relu._mask is not None
        assert pool._input_shape is not None

    def test_input_gradient_still_works_after_predict(self, tiny_cnn, mnist_small):
        x = mnist_small.test.images[:4]
        y = mnist_small.test.labels[:4]
        tiny_cnn.predict(x)
        grad = tiny_cnn.input_gradient(x, y)
        assert grad.shape == x.shape
        assert np.any(grad != 0)
