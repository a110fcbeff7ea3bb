"""Tests for the fused multi-victim panel (repro.axnn.panel).

The panel's contract is absolute: fusing victims must never change a
single logit — grids produced through the fused path must be bit-identical
to per-victim evaluation, for every worker count and batch size.
"""

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import ax_model_reference
from repro.attacks import FGMLinf
from repro.axnn import build_axdnn, kernels
from repro.axnn import native
from repro.axnn.layers import AxConv2D, AxDense, NativeLayerCall
from repro.axnn.panel import VictimPanel
from repro.errors import ConfigurationError
from repro.models import build_alexnet, build_lenet5
from repro.nn import (
    AvgPool2D,
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    Layer,
    ReLU,
    Sequential,
)
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
        # exactly one quantization and one patch gather for the panel
        report = panel.fusion_report()
        if not panel.compiled:
            assert report == [
                f"panel: {len(VICTIM_LABELS)} victims, 8 layers, per-victim forward"
            ]
            return
        first_compute = next(line for line in report if "conv[" in line)
        assert f"conv[{len(VICTIM_LABELS)} victims shared" in first_compute
        assert "1 quantize, 1 gather" in first_compute

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
        assert lenet_panel._groups() == [tuple(range(9))]
        if native.get_backend() is None:
            assert report == ["panel: 9 victims, 12 layers, per-victim forward"]
            return
        # one line per program op: flatten has none
        assert report[0] == (
            "ax_conv2d_0: conv[9 victims shared, 1 quantize, 1 gather, 9 products "
            "(exact: M1; table: M2, M3, M4, M5, M6, M7, M8, M9)]"
        )
        assert report[1] == "relu_1: relu[9 victims stacked]"
        assert report[2] == "avgpool2d_2: avgpool[9 victims stacked]"
        assert report[3].startswith(
            "ax_conv2d_3: conv[9 victims stacked, 1 quantize, 1 gather, 9 products"
        )
        assert report[6] == (
            "ax_conv2d_6: conv[9 victims stacked, 1 quantize, 1 gather, 9 products "
            "(exact: M1; low-rank r=3: M2; low-rank r=4: M3; low-rank r=1: M4, M7; "
            "LUT loop: M5, M6, M8, M9)]"
        )
        assert len(report) == 11 + 1
        assert report[-1] == "panel: 9 victims, 12 layers, 1 group, 1 compiled call"

    @given(batch=st.sampled_from([1, 2, 7]), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=8, deadline=None)
    def test_lenet_small_batches(
        self, lenet_panel, lenet_victims, mnist_small, batch, seed
    ):
        x = _draw(mnist_small.test.images, batch, seed)
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
        # the groups: {M1, M4}, {M6} and {M4', M8'}
        assert panel._groups() == [(0, 1), (2,), (3, 4)]
        report = panel.fusion_report()
        if panel.compiled:
            # one program per group, each from the shared input
            assert report[-1] == "panel: 5 victims, 12 layers, 3 groups, 3 compiled calls"
            assert [line for line in report if "ax_conv2d_0:" in line] == [
                "[M1, M4] ax_conv2d_0: conv[2 victims shared, 1 quantize, "
                "1 gather, 2 products (exact: M1; table: M4)]",
                "[M6] ax_conv2d_0: conv[1 victims shared, 1 quantize, "
                "1 gather, 1 products (table: M6)]",
                "[M4', M8'] ax_conv2d_0: conv[2 victims shared, 1 quantize, "
                "1 gather, 2 products (table: M4', M8')]",
            ]
        else:
            assert report == ["panel: 5 victims, 12 layers, per-victim forward"]
        for batch in (1, 5):
            x = _draw(mnist_small.test.images, batch, seed=11)
            _assert_panel_matches(panel, victims, x, oracle_labels=list(victims))
        batched = panel.predict(x, batch_size=2)
        for label, victim in victims.items():
            assert np.array_equal(batched[label], victim.predict(x, batch_size=2))


    def test_compiled_pass_runs_no_traced_call(self, lenet_panel, monkeypatch):
        """On the compiled pass none of the per-stage methods the perfbench
        tracer hooks runs: quantize, gather, every member's product and the
        float layers are one call per final group."""
        calls = _spy_traced_calls(monkeypatch)
        lenet_panel.forward(np.zeros((2, 28, 28, 1)))
        if lenet_panel.compiled:
            assert calls == {}
        else:
            assert len(calls[("AxConv2D", "forward_from_codes")]) == 3 * 9

    def test_fallback_runs_each_victims_traced_calls(self, mnist_small, monkeypatch):
        """Without a native backend a pass is each victim's own forward:
        every traced stage runs once per victim and Ax layer, and each
        product sees one victim's rows."""
        with _numpy_backend(monkeypatch):
            victims = build_victims(
                build_lenet5(seed=5), ["M1", "M4", "M8"],
                _centred(mnist_small.train.images[:64]), convolution_only=False,
            )
            panel = VictimPanel(victims)
            assert not panel.compiled
            batch = 2
            x = _draw(mnist_small.test.images, batch, seed=4)
            calls = _assert_runs_each_forward(panel, victims, x, monkeypatch)
        products = [
            args for (owner, attribute), recorded in calls.items()
            if attribute == "matmul" for args in recorded
        ]
        rows_per_layer = [batch * 24 * 24, batch * 8 * 8, batch, batch, batch]
        assert sorted(args[1].shape[0] for args in products) == sorted(
            rows_per_layer * len(victims)
        )


def _spy_traced_calls(monkeypatch):
    """Record every call of the traced layer methods, kernel products and
    the fused layer call, keyed ``(owner, attribute)``."""
    calls = {}

    def spy(owner, attribute):
        original = vars(owner)[attribute]  # the perfbench tracer's lookup

        def wrapper(*args, **kwargs):
            calls.setdefault((owner.__name__, attribute), []).append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, attribute, wrapper)

    for owner, attribute in SPIED_LAYER_CALLS:
        spy(owner, attribute)
    for kernel_class in KERNEL_CLASSES:
        spy(kernel_class, "matmul")
    spy(NativeLayerCall, "__call__")
    return calls


def _assert_runs_each_forward(panel, victims, x, monkeypatch):
    """A pass of ``panel`` on ``x`` runs each victim's own forward: every
    traced stage runs once on each victim's Ax layer, and the logits are
    the bytes of ``victim.forward(x)``.  Returns the recorded calls; the
    spies are removed on return."""
    calls = _spy_traced_calls(monkeypatch)
    fused = panel.forward(x)
    monkeypatch.undo()
    for owner, attribute in SPIED_LAYER_CALLS:
        ran = sorted(id(args[0]) for args in calls.get((owner.__name__, attribute), []))
        assert ran == sorted(
            id(layer) for victim in victims.values() for layer in victim.layers
            if type(layer) is owner
        ), (owner.__name__, attribute)
    assert list(fused) == list(victims)
    for label, victim in victims.items():
        assert _exact_bytes(fused[label], victim.forward(x)), label
    return calls


@contextlib.contextmanager
def _numpy_backend(monkeypatch):
    """Within the block ``REPRO_KERNEL_BACKEND=numpy`` (no native backend);
    the resolved backend is reset on entry and exit."""
    monkeypatch.setenv(native.BACKEND_ENV_VAR, "numpy")
    kernels.clear_profile_cache()
    try:
        yield
    finally:
        monkeypatch.undo()
        kernels.clear_profile_cache()


def _exact_bytes(got, expected):
    got = np.ascontiguousarray(got)
    return (
        got.dtype == expected.dtype
        and got.shape == expected.shape
        and got.tobytes() == expected.tobytes()
    )


@pytest.fixture(scope="module")
def alexnet_panel(alexnet_victims):
    return VictimPanel(alexnet_victims)


#: victims checked against the oracle at batch 60 (it takes ~3.5 s per
#: AlexNet victim there); every victim is checked at the smaller batches
ORACLE_AT_60 = {"lenet": LENET_LABELS, "alexnet": ["A3"]}


class _HalveLayer(Layer):
    """A float layer the compiled panel program has no op for."""

    def forward(self, x, training=False):
        return x * 0.5

    def backward(self, grad_output):
        return grad_output * 0.5


class _ReLUSubclass(ReLU):
    """The program matches float layers by exact type, so a subclass (which
    may override ``forward``) runs each victim's own forward."""


class TestCompiledPass:
    """The one oracle entry of the compiled panel pass: its logits are the
    bytes of each victim's own ``AxModel.predict`` and of the seed-order
    oracle, on both architectures at every batch size the service and the
    figures run."""

    @pytest.mark.parametrize("batch", [0, 1, 2, 5, 60])
    @pytest.mark.parametrize("net", ["lenet", "alexnet"])
    def test_logits_match_predict_and_oracle(
        self, request, mnist_small, cifar_small, net, batch
    ):
        panel = request.getfixturevalue(f"{net}_panel")
        victims = request.getfixturevalue(f"{net}_victims")
        images = (mnist_small if net == "lenet" else cifar_small).test.images
        assert panel.compiled == (native.get_backend() is not None)
        x = _draw(images, batch, seed=batch)
        fused = panel.predict(x, batch_size=64)
        oracle = ORACLE_AT_60[net] if batch == 60 else list(victims)
        for label, victim in victims.items():
            expected = victim.predict(x, batch_size=64)
            assert _exact_bytes(fused[label], expected), (net, batch, label)
            if batch and label in oracle:
                assert _exact_bytes(expected, ax_model_reference(victim, x)), label

    @given(
        seed=st.integers(0, 2**32 - 1),
        ties=st.floats(0.0, 0.5),
        zeros=st.floats(0.0, 0.5),
        outside=st.floats(0.0, 0.5),
    )
    @settings(max_examples=6, deadline=None)
    def test_rounding_ties_signed_zeros_and_out_of_range(
        self, lenet_panel, lenet_victims, seed, ties, zeros, outside
    ):
        """Inputs the quantizer must round as NumPy does: exact ``.5`` ties
        (half to even), ``+0.0`` and ``-0.0``, and values far outside the
        calibration range (clipped to 0 and 255)."""
        rng = np.random.default_rng(seed)
        scheme = next(iter(lenet_victims.values())).layers[0].activation_scheme
        shape = (2, 28, 28, 1)
        x = rng.uniform(-0.6, 0.6, size=shape)
        kind = rng.uniform(size=shape)
        half = rng.integers(-300, 300, size=shape) + 0.5
        x = np.where(kind < ties, half * scheme.scale, x)
        signed_zero = np.where(rng.uniform(size=shape) < 0.5, -0.0, 0.0)
        x = np.where((kind >= ties) & (kind < ties + zeros), signed_zero, x)
        far = rng.choice([-1.0, 1.0], size=shape) * 10.0 ** rng.uniform(0, 300, size=shape)
        x = np.where(kind >= 1.0 - outside, far, x)
        exact_ties = (x / scheme.scale) % 1.0 == 0.5
        assert exact_ties.any() or ties < 0.05
        fused = lenet_panel.forward(x)
        for label, victim in lenet_victims.items():
            expected = victim.forward(x)
            assert _exact_bytes(fused[label], expected), label
            assert _exact_bytes(expected, ax_model_reference(victim, x)), label

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_is_rejected(self, lenet_panel, mnist_small, value, monkeypatch):
        x = _draw(mnist_small.test.images, 2, seed=1)
        x[1, 3, 4, 0] = value
        with pytest.raises(ConfigurationError, match="NaN or infinite"):
            lenet_panel.forward(x)
        with _numpy_backend(monkeypatch):
            fallback = VictimPanel(dict(list(lenet_panel.victims.items())[:2]))
            assert not fallback.compiled
            with pytest.raises(ConfigurationError, match="NaN or infinite"):
                fallback.predict(x)

    def test_numpy_backend_runs_each_victims_forward(self, mnist_small, monkeypatch):
        with _numpy_backend(monkeypatch):
            victims = build_victims(
                build_lenet5(seed=5), ["M1", "M2", "M4", "M8"],
                _centred(mnist_small.train.images[:64]), convolution_only=False,
            )
            panel = VictimPanel(victims)
            assert not panel.compiled
            assert panel.fusion_report() == [
                "panel: 4 victims, 12 layers, per-victim forward"
            ]
            for batch in (1, 5):
                x = _draw(mnist_small.test.images, batch, seed=batch)
                _assert_panel_matches(panel, victims, x, oracle_labels=list(victims))

    @pytest.mark.parametrize(
        "layer", [_HalveLayer, _ReLUSubclass], ids=["custom-layer", "relu-subclass"]
    )
    def test_plans_the_program_cannot_express_run_each_forward(
        self, mnist_small, layer, monkeypatch
    ):
        model = Sequential(
            [
                Conv2D(4, kernel_size=3, padding="valid"),
                ReLU(),
                layer(),
                Flatten(),
                Dropout(0.3, seed=1),
                Dense(10),
            ],
            input_shape=(28, 28, 1),
            seed=2,
        )
        victims = build_victims(
            model, ["M1", "M4", "M6"], _centred(mnist_small.train.images[:32]),
            convolution_only=False,
        )
        panel = VictimPanel(victims)
        assert not panel.compiled
        x = _draw(mnist_small.test.images, 3, seed=2)
        _assert_runs_each_forward(panel, victims, x, monkeypatch)
        for label, victim in victims.items():
            assert _exact_bytes(victim.forward(x), ax_model_reference(victim, x)), label

    def test_other_input_shapes_run_each_forward(self, mnist_small, monkeypatch):
        """The program is bound to the source model's sample shape; a fully
        convolutional panel still answers other shapes, by each victim's
        own forward."""
        model = Sequential(
            [Conv2D(4, kernel_size=3, padding="same"), ReLU(), AvgPool2D(pool_size=2)],
            input_shape=(28, 28, 1),
            seed=2,
        )
        victims = build_victims(
            model, ["M1", "M4", "M6"], _centred(mnist_small.train.images[:32]),
            convolution_only=False,
        )
        panel = VictimPanel(victims)
        assert panel.compiled == (native.get_backend() is not None)
        x = _draw(mnist_small.test.images, 2, seed=3)
        calls = _spy_traced_calls(monkeypatch)
        panel.forward(x)
        monkeypatch.undo()
        assert (calls == {}) == panel.compiled
        _assert_panel_matches(panel, victims, x, oracle_labels=list(victims))
        wide = _centred(mnist_small.test.images[:2, 2:22])
        assert wide.shape == (2, 20, 28, 1)
        _assert_runs_each_forward(panel, victims, wide, monkeypatch)
        for label, victim in victims.items():
            assert _exact_bytes(victim.forward(wide), ax_model_reference(victim, wide)), label

    def test_pool_size_1_and_dropout_compile(self, mnist_small):
        model = Sequential(
            [
                Conv2D(4, kernel_size=3, padding="same"),
                ReLU(),
                AvgPool2D(pool_size=1),
                AvgPool2D(pool_size=2, stride=3),
                Flatten(),
                Dropout(0.3, seed=1),
                Dense(10),
            ],
            input_shape=(28, 28, 1),
            seed=2,
        )
        victims = build_victims(
            model, ["M1", "M4", "M6"], _centred(mnist_small.train.images[:32]),
            convolution_only=False,
        )
        panel = VictimPanel(victims)
        assert panel.compiled == (native.get_backend() is not None)
        x = _draw(mnist_small.test.images, 3, seed=2)
        fused = panel.forward(x)
        for label, victim in victims.items():
            assert _exact_bytes(fused[label], victim.forward(x)), label
            assert _exact_bytes(fused[label], ax_model_reference(victim, x)), label

    @pytest.mark.skipif(native.get_backend() is None, reason="no native backend")
    def test_program_copies_no_member_operand(self, lenet_panel, lenet_victims):
        """Every member reads the arrays its kernel already holds: the
        signed table, the low-rank factors, or the multiplier's shared
        packed LUT (the LUT loop's sign and magnitude bytes are the only
        per-member packing, for members without a table or low-rank
        factors)."""
        (program,) = lenet_panel._programs
        compute = [op for op in program.ops if op.members]
        victims = list(lenet_victims.values())
        lut_loop = 0
        for depth, op in enumerate(compute):
            for member in op.members:
                layer = [
                    layer for layer in victims[member.slot].layers
                    if hasattr(layer, "kernel")
                ][depth]
                kernel = layer.kernel
                if member.table is not None:
                    assert member.table is kernel._table
                elif member.weight_factors is not None:
                    factors = kernel.factor_operands()
                    assert member.weight_factors is factors["weight_factors"]
                    assert member.code_factors is factors["code_factors"]
                else:
                    assert member.lut is kernel.multiplier.packed_lut()
                    lut_loop += 1
        # conv3 and fc1: M6 and M9 (full rank) and M5, M8 (rank 8)
        assert lut_loop == 2 * 4

