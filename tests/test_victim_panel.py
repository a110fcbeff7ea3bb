"""Tests for the fused multi-victim panel (repro.axnn.panel).

The panel's contract is absolute: fusing victims must never change a
single logit — grids produced through the fused path must be bit-identical
to per-victim evaluation, for every worker count and batch size.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import ax_model_reference
from repro.attacks import FGMLinf
from repro.axnn import build_axdnn, kernels
from repro.axnn import native
from repro.axnn.layers import AxConv2D, AxDense, NativeLayerCall
from repro.axnn.panel import LUT_LOOP_MAX_ROWS, VictimPanel
from repro.errors import ConfigurationError
from repro.models import build_alexnet, build_lenet5
from repro.quantization.schemes import AffineQuantization
from repro.robustness import build_victims, grid_from_suite
from repro.robustness.evaluator import AdversarialSuite

VICTIM_LABELS = ["M4", "M6", "M8", "mul8u_1JFF"]
LENET_LABELS = [f"M{index}" for index in range(1, 10)]
ALEXNET_LABELS = [f"A{index}" for index in range(1, 9)]

#: every call the perfbench tracer hooks by name on the Ax layers
SPIED_LAYER_CALLS = (
    (AxConv2D, "quantize_cols"),
    (AxConv2D, "extract_cols"),
    (AxConv2D, "forward_from_codes"),
    (AxDense, "quantize_input"),
    (AxDense, "forward_from_codes"),
)
KERNEL_CLASSES = (
    kernels.ExactBLASKernel,
    kernels.PerCodeBLASKernel,
    kernels.ErrorCorrectionKernel,
    kernels.NativeLUTKernel,
    kernels.SparseOneHotKernel,
    kernels.GatherKernel,
)


@pytest.fixture(scope="module")
def victims(tiny_cnn, calibration_batch):
    return build_victims(
        tiny_cnn, VICTIM_LABELS, calibration_batch, convolution_only=True
    )


@pytest.fixture(scope="module")
def panel(victims):
    return VictimPanel(victims)


class TestPanelForward:
    def test_bit_identical_to_per_victim(self, panel, victims, mnist_small):
        x = mnist_small.test.images[:48]
        fused = panel.predict(x, batch_size=16)
        for label, victim in victims.items():
            assert np.array_equal(fused[label], victim.predict(x, batch_size=16))

    def test_empty_batch(self, panel, mnist_small):
        empty = panel.predict(mnist_small.test.images[:0])
        for value in empty.values():
            assert value.shape == (0, 10)

    def test_predict_classes_matches(self, panel, victims, mnist_small):
        x = mnist_small.test.images[:32]
        fused = panel.predict_classes(x)
        for label, victim in victims.items():
            assert np.array_equal(fused[label], victim.predict_classes(x))

    def test_first_conv_is_fully_fused(self, panel):
        # all victims share the input batch, so the first Ax conv must do
        # exactly one patch extraction and one quantization for the panel
        first_compute = next(
            line for line in panel.fusion_report() if "conv[" in line
        )
        assert f"conv[{len(VICTIM_LABELS)} victims" in first_compute
        assert "1 extract, 1 quantize" in first_compute

    def test_requires_lockstep_compatibility(self, victims, tiny_cnn):
        class Stub:
            layers = [None]
            output_shape = (10,)

        broken = dict(victims)
        broken["stub"] = Stub()
        assert not VictimPanel.compatible(list(broken.values()))
        with pytest.raises(ConfigurationError):
            VictimPanel(broken)

    def test_empty_panel_rejected(self):
        with pytest.raises(ConfigurationError):
            VictimPanel({})


class TestFusedGrids:
    @pytest.fixture(scope="class")
    def suite(self, tiny_cnn, mnist_small):
        return AdversarialSuite.generate(
            tiny_cnn,
            FGMLinf(),
            mnist_small.test.images[:40],
            mnist_small.test.labels[:40],
            epsilons=[0.0, 0.1, 0.2],
            workers=1,
        )

    def test_grid_identical_fused_vs_per_victim(self, suite, victims):
        fused = grid_from_suite(suite, victims, fused=True)
        separate = grid_from_suite(suite, victims, fused=False)
        assert fused.victim_labels == separate.victim_labels
        assert fused.epsilons == separate.epsilons
        assert np.array_equal(fused.values, separate.values)

    def test_auto_fusion_default_matches(self, suite, victims):
        auto = grid_from_suite(suite, victims)
        separate = grid_from_suite(suite, victims, fused=False)
        assert np.array_equal(auto.values, separate.values)

    def test_single_victim_skips_fusion(self, suite, victims):
        only = {"M6": victims["M6"]}
        grid = grid_from_suite(suite, only)
        reference = grid_from_suite(suite, only, fused=False)
        assert np.array_equal(grid.values, reference.values)

    def test_fused_true_rejects_incompatible_victims(self, suite, victims, tiny_cnn):
        mixed = dict(victims)
        mixed["float"] = tiny_cnn  # a Sequential, not an AxModel
        with pytest.raises(ConfigurationError):
            grid_from_suite(suite, mixed, fused=True)
        # but auto mode degrades to per-victim evaluation (floats expose
        # predict_classes too) instead of failing
        grid = grid_from_suite(suite, mixed)
        assert grid.victim_labels == list(mixed)

    def test_evaluate_panel_matches_evaluate(self, suite, victims, panel):
        panel_results = suite.evaluate_panel(panel)
        for label, victim in victims.items():
            solo = suite.evaluate(victim, label)
            assert [r.robustness_percent for r in panel_results[label]] == [
                r.robustness_percent for r in solo
            ]
            assert [r.epsilon for r in panel_results[label]] == [
                r.epsilon for r in solo
            ]


# ------------------------------------------------------- the stacked panel
def _centred(images):
    """Inputs in [-0.5, 0.5]: the first conv's scheme then has a zero point
    near 128, so padding and the zero-point correction both matter."""
    return np.asarray(images, dtype=np.float64) - 0.5


@pytest.fixture(scope="module")
def lenet_victims(mnist_small):
    # untrained weights suffice: bit-identity does not depend on accuracy;
    # approximate dense layers exercise the stacked dense step too
    return build_victims(
        build_lenet5(seed=5),
        LENET_LABELS,
        _centred(mnist_small.train.images[:64]),
        convolution_only=False,
    )


@pytest.fixture(scope="module")
def lenet_panel(lenet_victims):
    return VictimPanel(lenet_victims)


@pytest.fixture(scope="module")
def alexnet_victims(cifar_small):
    return build_victims(
        build_alexnet(seed=5),
        ALEXNET_LABELS,
        _centred(cifar_small.train.images[:32]),
        convolution_only=True,
    )


def _assert_panel_matches(panel, victims, x, oracle_labels=()):
    fused = panel.forward(x)
    assert list(fused) == list(victims)
    for label, victim in victims.items():
        expected = victim.forward(x)
        assert np.array_equal(fused[label], expected), label
        if label in oracle_labels:
            assert np.array_equal(expected, ax_model_reference(victim, x)), label


def _draw(images, batch, seed):
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, len(images), size=batch)
    noise = rng.uniform(-0.1, 0.1, size=(batch,) + images.shape[1:])
    return _centred(images[rows]) + noise


class TestStackedPanel:
    """Bit-identity of the one-pass stacked panel with per-victim
    ``AxModel.forward`` and with the seed-order oracle."""

    def test_plan_keeps_one_stacked_group(self, lenet_panel):
        report = lenet_panel.fusion_report()
        # M2-M9 route conv1 to the native kernel when a backend resolved
        fused = " (8 native in 1 call)" if native.get_backend() is not None else ""
        assert report[0] == (
            "ax_conv2d_0: conv[9 victims shared, 1 extract, 1 quantize, "
            f"9 products{fused}]"
        )
        assert report[1] == "relu_1: stacked[9 victims]"
        assert "conv[9 victims stacked, 1 extract, 1 quantize" in report[3]
        assert report[-1] == "panel: 9 victims, 12 layers, 1 group"

    @given(batch=st.sampled_from([1, 2, 7]), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=8, deadline=None)
    def test_lenet_small_batches(
        self, lenet_panel, lenet_victims, mnist_small, batch, seed
    ):
        x = _draw(mnist_small.test.images, batch, seed)
        _assert_panel_matches(lenet_panel, lenet_victims, x, oracle_labels=LENET_LABELS)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=1, deadline=None)
    def test_lenet_batch_60(self, lenet_panel, lenet_victims, mnist_small, seed):
        x = _draw(mnist_small.test.images, 60, seed)
        _assert_panel_matches(lenet_panel, lenet_victims, x, oracle_labels=LENET_LABELS)

    def test_batch_0(self, lenet_panel, lenet_victims, mnist_small):
        x = mnist_small.test.images[:0]
        fused = lenet_panel.predict(x)
        for label, victim in lenet_victims.items():
            assert fused[label].shape == (0, 10)
            assert np.array_equal(fused[label], victim.predict(x))

    @given(batch=st.sampled_from([1, 2]), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=2, deadline=None)
    def test_alexnet_same_padding(self, alexnet_victims, cifar_small, batch, seed):
        # the first conv pads with its zero point (near 128 here), not 0
        first = alexnet_victims["A1"].layers[0]
        assert first.pad_amount > 0
        assert first.activation_scheme.zero_point > 0
        assert first.activation_scheme.quantize(np.zeros(1))[0] == (
            first.activation_scheme.zero_point
        )
        x = _draw(cifar_small.test.images, batch, seed)
        _assert_panel_matches(
            VictimPanel(alexnet_victims), alexnet_victims, x,
            oracle_labels=("A1", "A3", "A8"),
        )

    def test_differing_schemes_split_and_match(self, mnist_small):
        model = build_lenet5(seed=6)
        calibration = _centred(mnist_small.train.images[:64])
        victims = build_victims(model, ["M1", "M4", "M6"], calibration)
        # M6's second conv quantizes differently: the stacked group of
        # three splits there into {M1, M4} and {M6}
        victims["M6"].layers[3].activation_scheme = AffineQuantization(
            scale=0.05, zero_point=7
        )
        # two victims calibrated on other data differ from the first conv
        others = build_victims(model, ["M4", "M8"], calibration[:16] * 1.5)
        victims.update({f"{label}'": victim for label, victim in others.items()})
        panel = VictimPanel(victims)
        report = panel.fusion_report()
        assert report[0].count("conv[") == 2
        assert report[3].count("conv[") == 3
        assert report[-1].endswith("3 groups")
        x = _draw(mnist_small.test.images, 5, seed=11)
        _assert_panel_matches(panel, victims, x, oracle_labels=list(victims))
        batched = panel.predict(x, batch_size=2)
        for label, victim in victims.items():
            assert np.array_equal(batched[label], victim.predict(x, batch_size=2))

    def test_every_traced_call_runs(self, lenet_panel, lenet_victims, monkeypatch):
        calls = {}

        def spy(owner, attribute):
            original = vars(owner)[attribute]  # the perfbench tracer's lookup

            def wrapper(*args, **kwargs):
                key = (owner.__name__, attribute)
                calls.setdefault(key, []).append(args)
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, attribute, wrapper)

        for owner, attribute in SPIED_LAYER_CALLS:
            spy(owner, attribute)
        for kernel_class in KERNEL_CLASSES:
            spy(kernel_class, "matmul")
        spy(NativeLayerCall, "__call__")
        batch = 2
        lenet_panel.forward(np.zeros((batch, 28, 28, 1)))
        assert len(calls[("AxConv2D", "quantize_cols")]) == 3
        assert len(calls[("AxConv2D", "extract_cols")]) == 3
        assert len(calls[("AxDense", "quantize_input")]) == 2
        # native members run inside one fused call per layer, and so do the
        # percode members of a layer with few rows; every other member runs
        # its own forward_from_codes and kernel product
        rows_per_layer = [batch * 24 * 24, batch * 8 * 8, batch, batch, batch]
        per_victim = {"AxConv2D": 0, "AxDense": 0}
        expected_rows, native_layers = [], set()
        for victim in lenet_victims.values():
            ax_layers = [layer for layer in victim.layers if hasattr(layer, "kernel")]
            for depth, layer in enumerate(ax_layers):
                if isinstance(layer.kernel, kernels.NativeLUTKernel) or (
                    _switches(layer) and rows_per_layer[depth] <= LUT_LOOP_MAX_ROWS
                ):
                    native_layers.add(depth)
                    continue
                per_victim[type(layer).__name__] += 1
                expected_rows.append(rows_per_layer[depth])
        assert len(calls.get(("AxConv2D", "forward_from_codes"), [])) == (
            per_victim["AxConv2D"]
        )
        assert len(calls.get(("AxDense", "forward_from_codes"), [])) == (
            per_victim["AxDense"]
        )
        assert len(calls.get(("NativeLayerCall", "__call__"), [])) == len(native_layers)
        products = [
            args for (owner, attribute), recorded in calls.items()
            if attribute == "matmul" for args in recorded
        ]
        # each product sees one victim's rows: summed MACs equal per-victim
        assert sorted(args[1].shape[0] for args in products) == sorted(expected_rows)
        assert all(args[1].ndim == 2 for args in products)


def _switches(layer):
    """Whether the panel runs this layer's product in its fused native call
    at small row counts."""
    return native.get_backend() is not None and layer.kernel.strategy == "percode"


def _percode_victims(victims, depth):
    return [
        label for label, victim in victims.items()
        if [layer for layer in victim.layers if hasattr(layer, "kernel")][depth]
        .kernel.strategy == "percode"
    ]


class TestSmallBatchRouting:
    """At most ``LUT_LOOP_MAX_ROWS`` code rows per victim, a group's
    ``percode`` members run the native LUT loop inside the fused call."""

    @pytest.mark.parametrize(
        "batch", [1, 2, LUT_LOOP_MAX_ROWS, LUT_LOOP_MAX_ROWS + 1, 60]
    )
    def test_logits_byte_identical_to_per_victim(
        self, lenet_panel, lenet_victims, mnist_small, batch
    ):
        x = _draw(mnist_small.test.images, batch, seed=batch)
        fused = lenet_panel.forward(x)
        for label, victim in lenet_victims.items():
            expected = victim.forward(x)
            got = np.ascontiguousarray(fused[label])
            assert got.dtype == expected.dtype and got.shape == expected.shape
            assert got.tobytes() == expected.tobytes(), (batch, label)

    @pytest.mark.parametrize("batch", [1, LUT_LOOP_MAX_ROWS + 1])
    def test_percode_products_run_only_above_the_crossover(
        self, lenet_panel, lenet_victims, monkeypatch, batch
    ):
        calls = []
        matmul = kernels.PerCodeBLASKernel.matmul

        def spy(kernel, codes):
            calls.append(codes.shape[0])
            return matmul(kernel, codes)

        monkeypatch.setattr(kernels.PerCodeBLASKernel, "matmul", spy)
        lenet_panel.forward(np.zeros((batch, 28, 28, 1)))
        rows_per_layer = [batch * 24 * 24, batch * 8 * 8, batch, batch, batch]
        expected = [
            rows
            for depth, rows in enumerate(rows_per_layer)
            for _ in _percode_victims(lenet_victims, depth)
            if rows > LUT_LOOP_MAX_ROWS or native.get_backend() is None
        ]
        assert sorted(calls) == sorted(expected)
        if native.get_backend() is not None and batch == 1:
            # only LeNet conv2 (64 patch rows a sample) keeps percode
            assert calls == [64] * len(_percode_victims(lenet_victims, 1))

    @pytest.mark.skipif(native.get_backend() is None, reason="no native backend")
    def test_fusion_report_names_the_switching_members(self, lenet_panel, lenet_victims):
        report = lenet_panel.fusion_report()
        for line_index, depth in ((3, 1), (6, 2), (9, 3)):
            names = ", ".join(_percode_victims(lenet_victims, depth))
            assert report[line_index].endswith(
                f"<= {LUT_LOOP_MAX_ROWS} rows: 8 in 1 call, LUT loop for {names})]"
            ), report[line_index]
        assert report[6].endswith("LUT loop for M2, M3, M4, M5, M7, M8)]")
        # no percode member at conv1 or fc2: nothing switches there
        assert "LUT loop" not in report[0] and "LUT loop" not in report[-2]

    @pytest.mark.skipif(native.get_backend() is None, reason="no native backend")
    def test_every_lut_loop_member_reads_the_shared_packed_lut(
        self, lenet_panel, lenet_victims
    ):
        shared = {id(victim.layers[0].kernel.multiplier.packed_lut())
                  for victim in lenet_victims.values()}
        calls = {id(call): call
                 for products in lenet_panel._products.values()
                 for call, _ in products if call is not None}
        luts = [member.lut for call in calls.values()
                for member in call._run.operands[1] if member.lut is not None]
        assert all(id(lut) in shared for lut in luts)
        # conv3 and fc1: M6 and M9 in the wide call, they and the six percode
        # victims in the narrow one; conv2: M4 and M7 in the narrow call
        assert len(luts) == 2 * (2 + 8) + 2

    def test_numpy_backend_keeps_forward_from_codes(self, mnist_small, monkeypatch):
        monkeypatch.setenv(native.BACKEND_ENV_VAR, "numpy")
        kernels.clear_profile_cache()
        try:
            victims = build_victims(
                build_lenet5(seed=5),
                ["M2", "M4", "M8"],
                _centred(mnist_small.train.images[:64]),
                convolution_only=False,
            )
            panel = VictimPanel(victims)
            assert not any("LUT loop" in line for line in panel.fusion_report())
            calls = []
            for owner in (AxConv2D, AxDense):
                original = vars(owner)["forward_from_codes"]

                def spy(*args, _original=original, **kwargs):
                    calls.append(args[0].name)
                    return _original(*args, **kwargs)

                monkeypatch.setattr(owner, "forward_from_codes", spy)
            x = _draw(mnist_small.test.images, 1, seed=3)
            fused = panel.forward(x)
            assert len(calls) == 5 * len(victims)
            for label, victim in victims.items():
                assert np.array_equal(fused[label], victim.forward(x)), label
        finally:
            monkeypatch.undo()
            kernels.clear_profile_cache()
