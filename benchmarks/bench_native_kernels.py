"""Micro-benchmarks of the native (compiled) kernel tier.

Not a paper figure — these measure what the PR 8 native tier buys over the
pure-NumPy reference paths it shadows, on the exact shapes the sweeps run:

* **native vs sparse LUT product** — the compiled LUT matmul against the
  sparse one-hot kernel (the previous best for full-rank LUTs such as M6)
  at the LeNet dense shape and an AlexNet conv shape, plus the int16-packed
  LUT variant.  Bit-identity is asserted on every comparison; only the
  clock moves.
* **signed table vs LUT loop** — the native kernel's two backend entry
  points on the same operands at LeNet conv1/conv2 shapes
  (``native.table_vs_lut.*``): one table row add per (m, k) against N
  LUT gathers.
* **native vs reference col2im** — the single-pass compiled scatter-add
  against the ``kh * kw`` strided read-modify-write sweeps, at a LeNet
  conv-backward shape, and the same comparison end-to-end through a full
  training epoch (the conv backward pass hands ``col2im`` C-contiguous
  float64 patches, so the native path engages with no call-site changes).
* **native vs NumPy im2col** — the compiled patch gather against the
  sliding-window copy at LeNet conv1's shape.
* **fused panel vs per-victim** — a :class:`repro.axnn.VictimPanel` over
  four multipliers against four separate ``predict`` calls on the same
  batch (shared quantization + code-patch gather, identical logits), and
  at the ``/v1/query`` shape (``panel_lenet.b1`` / ``.b2``: M1-M9 on one
  or two samples, the stacked panel against a per-victim ``forward``
  loop, floor 1.3x).
* **compiled panel pass by batch size** — the same nine victims through
  ``VictimPanel.predict_classes`` (one compiled call per pass) against the
  per-victim ``predict`` loop, at batch 1-60 (``panel_pass.b<batch>``).
* **factor product vs BLAS kernels** — a compiled panel member's product
  on the float64 factors an ``exact`` or low-rank ``percode`` kernel
  holds (gather in C, SciPy's ``dgemm``, the shared epilogue) against that
  kernel's own ``matmul`` and NumPy epilogue, at batch 60 on LeNet
  conv2/conv3 and AlexNet's third conv (``factor_product.*``): the figure
  side of moving those members into the program.
* **factor rank cut-off** — the LeNet M1-M9 panel pass with
  ``repro.axnn.kernels.FACTOR_PRODUCT_MAX_RANK`` against a cut-off of 1
  and of 8 at batch 1 and 60 (``panel_factor_rank.b<batch>.r<rank>``,
  alternative / chosen): the constant is read off these rows.
* **auto vs best (the routing calibration sweep)** — for every LeNet-5
  compute layer plus one AlexNet conv layer, × M2/M4/M5/M6/M8, × batch 1
  and 60, the kernel ``kernel="auto"`` builds against the other candidate
  (``percode`` vs ``native``).  ``auto_vs_best.<layer>.b<batch>.<label>``
  records alternative/auto, so a value below 1 means auto picked the
  slower kernel; the crossover constant in :mod:`repro.axnn.kernels` is
  read off these rows.

Every comparison is measured as paired per-round ratios with alternating
call order (:meth:`repro.benchmarking.Suite.paired`) so machine drift
cancels, and recorded into ``benchmarks/results/BENCH_native_kernels.json``
for the regression gate.  All native kernels here are single-threaded, so
the ratios carry no ``min_cores`` gate — they travel to any host.  The
whole module skips when no compiled backend resolves (`REPRO_KERNEL_BACKEND
=numpy`, or no C compiler present): there is nothing to compare against.
"""

import os

import numpy as np
import pytest

from repro.axnn import (
    VictimPanel,
    build_axdnn,
    clear_profile_cache,
    make_kernel,
    multiplier_kernel_profile,
)
from repro.axnn import kernels as kernels_module
from repro.axnn.layers import NativeLayerCall, _dequantize_into
from repro.axnn.native import BACKEND_ENV_VAR, backend_name, get_backend, reset_backend
from repro.datasets import load_synthetic_mnist
from repro.models.architectures import build_alexnet, build_lenet5
from repro.multipliers import LUTMultiplier, get_multiplier
from repro.nn import Adam, Trainer
from repro.nn.functional import col2im, im2col, im2col_windows

pytestmark = pytest.mark.skipif(
    get_backend() is None,
    reason="no native backend resolved (no C compiler, "
    "or REPRO_KERNEL_BACKEND=numpy)",
)


def _kernel_problem(m, k, n, seed=0):
    """Random operands for a kernel benchmark (uniform codes, dense weights)."""
    rng = np.random.default_rng(seed)
    codes = rng.integers(0, 256, size=(m, k))
    weights = rng.integers(-255, 256, size=(k, n))
    return codes, np.sign(weights), np.abs(weights)


@pytest.fixture()
def backend_env():
    """Restore ``REPRO_KERNEL_BACKEND`` (and the resolved state) after a test
    that toggles backends inside its measurement closures."""
    saved = os.environ.get(BACKEND_ENV_VAR)
    yield
    if saved is None:
        os.environ.pop(BACKEND_ENV_VAR, None)
    else:
        os.environ[BACKEND_ENV_VAR] = saved
    clear_profile_cache()  # also resets the native backend state


def _paired_native_vs_sparse(suite, name, multiplier, m, k, n, seed):
    codes, sign, magnitude = _kernel_problem(m, k, n, seed=seed)
    sparse = make_kernel(multiplier, sign, magnitude, "sparse")
    native = make_kernel(multiplier, sign, magnitude, "native")
    stats = suite.paired(
        name, lambda: sparse.matmul(codes), lambda: native.matmul(codes), rounds=10
    )
    assert np.array_equal(native.matmul(codes), sparse.matmul(codes))
    return native, codes, stats


@pytest.mark.benchmark(group="native-kernels")
def test_native_lut_product_lenet(benchmark, suite):
    """Acceptance check: native LUT matmul beats sparse one-hot on the
    full-rank LeNet dense shape (128 x 256 @ 256 x 64, M6).

    M6's compressor-tree LUT has no low-rank structure, so before the
    native tier this shape was bound by the sparse kernel's 256 one-hot
    dgemms; the compiled loop replaces them with one cache-blocked pass.
    """
    native, codes, stats = _paired_native_vs_sparse(
        suite, "lut_lenet", get_multiplier("M6"), 128, 256, 64, seed=2
    )
    benchmark.extra_info.update(stats)
    benchmark.extra_info["kernel"] = native.describe()
    benchmark(lambda: native.matmul(codes))
    assert stats["ratio_median"] >= 1.05, (
        f"native kernel ({native.describe()}) only {stats['ratio_median']:.2f}x "
        f"the sparse kernel on the LeNet shape"
    )


@pytest.mark.benchmark(group="native-kernels")
def test_native_lut_product_alexnet(benchmark, suite):
    """Native vs sparse at an AlexNet conv shape (64 x 1152 @ 1152 x 256, M6).

    The deeper contraction amortises the LUT-pack setup completely — this
    is where the compiled tier pays off hardest (order-of-magnitude on the
    recording host).
    """
    native, codes, stats = _paired_native_vs_sparse(
        suite, "lut_alexnet", get_multiplier("M6"), 64, 1152, 256, seed=3
    )
    benchmark.extra_info.update(stats)
    benchmark.extra_info["kernel"] = native.describe()
    benchmark(lambda: native.matmul(codes))
    assert stats["ratio_median"] >= 1.5, (
        f"native kernel ({native.describe()}) only {stats['ratio_median']:.2f}x "
        f"the sparse kernel on the AlexNet shape"
    )


@pytest.mark.benchmark(group="native-kernels")
def test_native_lut_product_int16_pack(benchmark, suite):
    """The int16-packed LUT path (tables whose peak product fits 15 bits)
    halves the cache footprint of the hot table — recorded for that regime
    at the AlexNet shape, where the deep contraction keeps the ratio far
    from the noise floor; identity asserted, the ratio is informational."""
    rng = np.random.default_rng(4)
    table = rng.integers(0, 2**15, size=(256, 256), dtype=np.int64)
    native, codes, stats = _paired_native_vs_sparse(
        suite, "lut_int16", LUTMultiplier("bench-int16", table), 64, 1152, 256, seed=4
    )
    assert "int16 lut" in native.describe()
    benchmark.extra_info.update(stats)
    benchmark.extra_info["kernel"] = native.describe()
    benchmark(lambda: native.matmul(codes))


#: LeNet-5 conv shapes at 60 images: (rows, K, N) of conv1 and conv2
TABLE_SHAPES = {
    "lenet_conv1": (576 * 60, 25, 6),
    "lenet_conv2": (64 * 60, 150, 16),
}


@pytest.mark.benchmark(group="native-kernels")
@pytest.mark.parametrize("layer", sorted(TABLE_SHAPES))
def test_native_table_vs_lut(benchmark, suite, layer):
    """The native kernel's signed-table loop against its LUT loop (M8).

    Both backend entry points run on the same operands — the uint8 codes,
    the packed sign/magnitude/LUT of the LUT loop and the kernel's own
    signed table — so the ratio isolates one row add per (m, k) against N
    gathers.  Bit-identity is asserted; the table must at least break even.
    """
    m, k, n = TABLE_SHAPES[layer]
    codes, sign, magnitude = _kernel_problem(m, k, n, seed=7)
    multiplier = get_multiplier("M8")
    kernel = make_kernel(multiplier, sign, magnitude, "native")
    assert "table" in kernel.describe()
    backend = get_backend()
    codes8 = codes.astype(np.uint8)
    sign8 = sign.astype(np.int8)
    mag8 = magnitude.astype(np.uint8)
    lut = np.ascontiguousarray(multiplier.lut(), dtype=np.int32)
    via_lut = np.zeros((m, n), dtype=np.int64)
    via_table = np.zeros((m, n), dtype=np.int64)

    def run_lut():
        backend.lut_matmul(codes8, sign8, mag8, lut, via_lut)

    def run_table():
        backend.table_matmul(codes8, kernel._table, via_table)

    stats = suite.paired(f"native.table_vs_lut.{layer}", run_lut, run_table, rounds=10)
    assert np.array_equal(via_table, via_lut)
    benchmark.extra_info.update(stats)
    benchmark(run_table)
    assert stats["ratio_median"] >= 1.0, (
        f"{layer}: the signed table is only {stats['ratio_median']:.2f}x the LUT loop"
    )


@pytest.mark.benchmark(group="native-kernels")
def test_native_col2im(benchmark, suite, backend_env):
    """Acceptance check: the compiled col2im scatter-add beats the strided
    reference at a LeNet conv-backward shape (32 x 14 x 14 x 32, 5x5/s1/p2).

    Each closure pins the backend through the public env knob and re-resolves,
    so the paired rounds genuinely alternate implementations of the same
    ``col2im`` call.
    """
    shape = (32, 14, 14, 32)
    kernel, stride, padding = 5, 1, 2
    rng = np.random.default_rng(5)
    cols = im2col(rng.standard_normal(shape), kernel, kernel, stride, padding)

    def run(backend):
        os.environ[BACKEND_ENV_VAR] = backend
        reset_backend()
        return col2im(cols, shape, kernel, kernel, stride, padding)

    stats = suite.paired(
        "col2im", lambda: run("numpy"), lambda: run("auto"), rounds=10
    )
    assert np.array_equal(run("auto"), run("numpy"))
    benchmark.extra_info.update(stats)
    benchmark(lambda: run("auto"))
    assert stats["ratio_median"] >= 1.2, (
        f"native col2im only {stats['ratio_median']:.2f}x the strided reference"
    )


@pytest.mark.benchmark(group="native-kernels")
def test_native_im2col(benchmark, suite):
    """Acceptance check: the compiled im2col gather beats the NumPy
    sliding-window copy at LeNet conv1's shape (60 x 28 x 28 x 1, 5x5/s1).

    One contiguous run of ``kw * C`` values per patch row against NumPy's
    six-axis strided copy, each filling its own preallocated patch matrix
    (a backend switch per call would cost more than the gather); a pure
    copy, so the patches are bit-identical.
    """
    x = np.random.default_rng(8).standard_normal((60, 28, 28, 1))
    backend = get_backend()
    via_numpy = np.empty((60, 24, 24, 25))
    via_native = np.empty_like(via_numpy)

    def run_numpy():
        im2col_windows(x, via_numpy, 5, 5, 1)

    def run_native():
        backend.im2col(x, via_native, 5, 5, 1)

    stats = suite.paired("im2col", run_numpy, run_native, rounds=10)
    assert np.array_equal(via_native, via_numpy)
    benchmark.extra_info.update(stats)
    benchmark(run_native)
    assert stats["ratio_median"] >= 1.5, (
        f"native im2col only {stats['ratio_median']:.2f}x the NumPy copy"
    )


@pytest.mark.benchmark(group="native-kernels")
def test_native_training_epoch(benchmark, suite, backend_env):
    """Full training epoch (LeNet-5, 512 images) with and without the
    native col2im underneath — the end-to-end view of the same swap.

    The conv backward pass hands ``col2im`` C-contiguous float64 patches,
    so the native path engages with no call-site changes.  Weights must come out
    bit-identical; col2im is one slice of the epoch, so only parity-or-better
    is asserted and the measured ratio is what lands in the report.
    """
    dataset = load_synthetic_mnist(n_train=512, n_test=64, seed=0)
    images, labels = dataset.train.images, dataset.train.labels
    trainers = {
        backend: Trainer(build_lenet5(seed=0), optimizer=Adam(2e-3), seed=0)
        for backend in ("numpy", "auto")
    }

    def run(backend):
        os.environ[BACKEND_ENV_VAR] = backend
        reset_backend()
        trainers[backend].fit(images, labels, epochs=1, batch_size=64)

    stats = suite.paired(
        "training_epoch", lambda: run("numpy"), lambda: run("auto"), rounds=6
    )
    # both trainers have seen the same number of epochs at this point
    reference_state = trainers["numpy"].model.state_dict()
    native_state = trainers["auto"].model.state_dict()
    assert all(
        np.array_equal(reference_state[key], native_state[key])
        for key in reference_state
    )
    benchmark.extra_info.update(stats)
    benchmark.pedantic(lambda: run("auto"), rounds=1, iterations=1)
    assert stats["ratio_median"] >= 0.95, (
        f"native col2im made the training epoch slower "
        f"({stats['ratio_median']:.3f}x)"
    )


@pytest.mark.benchmark(group="native-panel")
def test_fused_panel_vs_per_victim(benchmark, suite):
    """Fused multi-victim panel vs four separate predicts on the same batch.

    The panel shares one quantization and one code-patch gather per Ax
    layer per batch, and one pass of each float layer, across all victims;
    the LUT products (the dominant cost at this batch) stay per-victim, so
    the fusion margin is the share of the shared stages.  Logits are
    bit-identical by contract.
    """
    dataset = load_synthetic_mnist(n_train=256, n_test=96, seed=1)
    model = build_lenet5(seed=1)
    victims = {
        label: build_axdnn(model, get_multiplier(label), dataset.train.images[:128])
        for label in ("M4", "M6", "M8", "M9")
    }
    panel = VictimPanel(victims)
    x = dataset.test.images[:64]

    def per_victim():
        return {
            label: victim.predict(x, batch_size=32)
            for label, victim in victims.items()
        }

    def fused():
        return panel.predict(x, batch_size=32)

    stats = suite.paired("panel_lenet", per_victim, fused, rounds=8)
    separate, shared = per_victim(), fused()
    for label in victims:
        assert np.array_equal(separate[label], shared[label])
    benchmark.extra_info.update(stats)
    benchmark.extra_info["fusion"] = "; ".join(panel.fusion_report())
    benchmark(fused)
    assert stats["ratio_median"] >= 0.95, (
        f"fused panel slower than per-victim ({stats['ratio_median']:.3f}x)"
    )


#: the stacked panel must beat the per-victim loop by this much at batch 1-2
SMALL_BATCH_PANEL_FLOOR = 1.3


@pytest.mark.benchmark(group="native-panel")
@pytest.mark.parametrize("batch", [1, 2])
def test_stacked_panel_small_batch(benchmark, suite, batch):
    """The ``/v1/query`` shape: nine LeNet-5 victims (M1-M9) on one or two
    samples, a per-victim ``forward`` loop against the stacked panel.

    At this size the kernels are cheap and the per-victim passes around
    them (quantize, patch gather, ReLU/AvgPool/Flatten) are what the panel
    shares, so the floor is set on this row.
    """
    dataset, victims = _lenet_panel_victims()
    panel = VictimPanel(victims)
    x = dataset.test.images[:batch]

    def per_victim():
        return {label: victim.forward(x) for label, victim in victims.items()}

    stats = suite.paired(f"panel_lenet.b{batch}", per_victim, lambda: panel.forward(x),
                         rounds=40)
    separate, stacked = per_victim(), panel.forward(x)
    for label in victims:
        assert np.array_equal(separate[label], stacked[label])
    benchmark.extra_info.update(stats)
    benchmark(panel.forward, x)
    assert stats["ratio_median"] >= SMALL_BATCH_PANEL_FLOOR, (
        f"stacked panel at batch {batch} only {stats['ratio_median']:.2f}x the "
        f"per-victim loop (floor {SMALL_BATCH_PANEL_FLOOR}x)"
    )


def _lenet_panel_victims():
    """LeNet-5 M1-M9, as the small-batch panel cells build them."""
    dataset = load_synthetic_mnist(n_train=256, n_test=96, seed=1)
    model = build_lenet5(seed=1)
    victims = {
        label: build_axdnn(model, get_multiplier(label), dataset.train.images[:128])
        for label in (f"M{index}" for index in range(1, 10))
    }
    return dataset, victims


#: batches of the panel-pass cells: the ``/v1/query`` sizes up to Fig. 4a's 60
PANEL_PASS_BATCHES = (1, 2, 4, 8, 60)


@pytest.mark.benchmark(group="native-panel")
@pytest.mark.parametrize("batch", PANEL_PASS_BATCHES)
def test_compiled_panel_pass(suite, batch):
    """LeNet-5 M1-M9 through ``VictimPanel.predict_classes`` — one compiled
    call per pass — against the per-victim ``predict`` loop that
    ``panel_lenet`` times, paired and interleaved in one process; logits
    byte-identical."""
    dataset, victims = _lenet_panel_victims()
    panel = VictimPanel(victims)
    assert panel.compiled
    x = dataset.test.images[:batch]

    def per_victim():
        return {label: victim.predict_classes(x) for label, victim in victims.items()}

    stats = suite.paired(
        f"panel_pass.b{batch}", per_victim, lambda: panel.predict_classes(x),
        rounds=40 if batch <= 8 else 10,
    )
    fused = panel.predict(x)
    for label, victim in victims.items():
        expected = victim.predict(x)
        assert np.ascontiguousarray(fused[label]).tobytes() == expected.tobytes(), label
    assert stats["ratio_median"] >= 0.95, (
        f"the compiled panel pass at batch {batch} is slower than the "
        f"per-victim loop ({stats['ratio_median']:.3f}x)"
    )


#: (victim set, Ax-layer index, victims) of the factor-product cells at
#: batch 60: every member the program moves off NumPy's BLAS there
FACTOR_CELLS = {
    "lenet_conv2": ("lenet", 1, ("M1", "M4")),
    "lenet_conv3": ("lenet", 2, ("M1", "M4", "M2", "M3")),
    "alexnet_conv2d_6": ("alexnet", 2, ("A1", "A6")),
}


@pytest.fixture(scope="module")
def factor_victims():
    """LeNet-5 M1-M4 and AlexNet A1/A6 victims (untrained weights: the
    products' cost does not depend on accuracy)."""
    mnist = load_synthetic_mnist(n_train=128, n_test=64, seed=1)
    lenet = build_lenet5(seed=1)
    alexnet = build_alexnet(seed=1)
    cifar = np.random.default_rng(1).uniform(0.0, 1.0, size=(64, 32, 32, 3))
    return {
        "lenet": {
            label: build_axdnn(lenet, get_multiplier(label), mnist.train.images[:128])
            for label in ("M1", "M2", "M3", "M4")
        },
        "alexnet": {
            label: build_axdnn(alexnet, get_multiplier(label), cifar)
            for label in ("A1", "A6")
        },
    }


@pytest.mark.benchmark(group="native-panel")
@pytest.mark.parametrize("cell", sorted(FACTOR_CELLS))
def test_factor_product_vs_blas_kernels(suite, factor_victims, cell):
    """The compiled factor product of an ``exact`` or low-rank ``percode``
    member against its kernel's own BLAS ``matmul`` plus the NumPy
    epilogue, at batch 60 on random codes; both write the same bytes.

    The fused side is the layer's ``NativeLayerCall``: the loop and
    epilogue a compiled panel pass runs for that member.
    """
    net, depth, labels = FACTOR_CELLS[cell]
    rows_per_image = {("lenet", 1): 64, ("lenet", 2): 1, ("alexnet", 2): 64}[net, depth]
    rng = np.random.default_rng(depth)
    for label in labels:
        layer = [
            layer for layer in factor_victims[net][label].layers
            if hasattr(layer, "kernel")
        ][depth]
        assert layer.kernel.strategy in ("exact", "percode"), (cell, label)
        codes = rng.integers(0, 256, size=(60 * rows_per_image, layer.kernel.inner))
        codes = codes.astype(np.uint8)
        fused = NativeLayerCall(layer)
        via_blas = np.empty((codes.shape[0], layer.kernel.outputs))
        via_fused = np.empty_like(via_blas)

        suite.paired(
            f"factor_product.{cell}.b60.{label}",
            lambda: _forward_from_codes(layer, codes, via_blas),
            lambda: fused(codes, via_fused), rounds=10,
        )
        assert via_fused.tobytes() == via_blas.tobytes(), (cell, label)


def _forward_from_codes(layer, codes, out):
    """A conv or dense layer's own product and NumPy epilogue on a 2-D code
    matrix, written into the preallocated ``out``: the kernel's BLAS
    ``matmul``, then the layer's dequantize epilogue (what
    ``forward_from_codes`` runs for these kernels, minus the allocation)."""
    return _dequantize_into(layer, layer.kernel.matmul(codes), out)


@pytest.mark.benchmark(group="native-panel")
@pytest.mark.parametrize("batch", [1, 60])
def test_factor_rank_cutoff(suite, monkeypatch, batch):
    """Where ``FACTOR_PRODUCT_MAX_RANK`` comes from: the LeNet M1-M9 panel
    pass with the chosen cut-off against a cut-off of 1 (only rank-1
    members on the factor product, ranks 3-8 in the LUT loop) and of 8
    (every low-rank member on it), paired in one process.  A speedup above
    1 means the chosen constant beat the alternative at that batch."""
    chosen = kernels_module.FACTOR_PRODUCT_MAX_RANK
    dataset, victims = _lenet_panel_victims()
    panels = {}
    for rank in (1, chosen, 8):
        monkeypatch.setattr(kernels_module, "FACTOR_PRODUCT_MAX_RANK", rank)
        panels[rank] = VictimPanel(victims)
    monkeypatch.setattr(kernels_module, "FACTOR_PRODUCT_MAX_RANK", chosen)
    x = dataset.test.images[:batch]
    expected = panels[chosen].forward(x)
    for rank in (1, 8):
        suite.paired(
            f"panel_factor_rank.b{batch}.r{rank}",
            lambda: panels[rank].forward(x), lambda: panels[chosen].forward(x),
            rounds=40 if batch == 1 else 10,
        )
        other = panels[rank].forward(x)
        for label in victims:
            assert np.ascontiguousarray(other[label]).tobytes() == (
                np.ascontiguousarray(expected[label]).tobytes()
            ), (rank, label)


#: calibration shapes of the "auto" crossover: (rows per image, K, N) of
#: every LeNet-5 compute layer (28x28 input) and AlexNet's second conv layer
ROUTING_SHAPES = {
    "lenet_conv1": (576, 25, 6),
    "lenet_conv2": (64, 150, 16),
    "lenet_conv3": (1, 256, 120),
    "lenet_fc1": (1, 120, 84),
    "lenet_fc2": (1, 84, 10),
    "alexnet_conv2": (256, 144, 32),
}

#: LUT ranks 3 (M2), 1 (M4), 8 (M5, M8) and full (M6)
ROUTING_MULTIPLIERS = ("M2", "M4", "M5", "M6", "M8")

#: auto may be this much slower than the alternative (relative noise) ...
AUTO_NOISE_BUDGET = 0.25

#: ... plus this much per call: at batch 1 both kernels sit near their fixed
#: per-call costs (the compiled call's argument marshalling, the fused
#: product's M-independent pass over its (K*r, N) weight factors), which no
#: M-independent routing rule can trade off exactly
AUTO_CALL_SLACK_S = 1e-4


@pytest.mark.benchmark(group="native-routing")
@pytest.mark.parametrize("batch", [1, 60])
@pytest.mark.parametrize("layer", sorted(ROUTING_SHAPES))
def test_auto_vs_best_routing_sweep(suite, layer, batch):
    """Acceptance check: on every recorded shape the kernel ``auto`` builds
    is within the noise budget of the alternative (``percode`` vs
    ``native``), and both are bit-identical.

    Full-rank M6 has no fused product: its ``percode`` alternative is the
    per-code loop, 20-50x slower, so one round settles it.
    """
    rows_per_image, inner, outputs = ROUTING_SHAPES[layer]
    codes, sign, magnitude = _kernel_problem(
        rows_per_image * batch, inner, outputs, seed=6
    )
    for label in ROUTING_MULTIPLIERS:
        multiplier = get_multiplier(label)
        auto = make_kernel(multiplier, sign, magnitude, "auto")
        other = "percode" if auto.strategy == "native" else "native"
        alternative = make_kernel(multiplier, sign, magnitude, other)
        full_rank = multiplier_kernel_profile(multiplier).lut_rank is None
        stats = suite.paired(
            f"auto_vs_best.{layer}.b{batch}.{label}",
            lambda: alternative.matmul(codes),
            lambda: auto.matmul(codes),
            rounds=1 if full_rank else 5,
        )
        assert np.array_equal(auto.matmul(codes), alternative.matmul(codes))
        limit = (1 + AUTO_NOISE_BUDGET) * stats["a_best_s"] + AUTO_CALL_SLACK_S
        assert stats["b_best_s"] <= limit, (
            f"{layer} b{batch} {label}: auto ({auto.describe()}) took "
            f"{stats['b_best_s'] * 1e3:.3f} ms, {other} "
            f"{stats['a_best_s'] * 1e3:.3f} ms"
        )
