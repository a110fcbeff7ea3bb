"""Micro-benchmarks of the computational kernels.

Not a paper figure — these measure the throughput of the substrate the
reproduction runs on (LUT-multiplied matrix products, quantized convolutions,
attack-gradient computation), which is what bounds every sweep above.

Each measurement is also recorded into the ``micro_ops`` suite report
(``benchmarks/results/BENCH_micro_ops.json``) so the regression gate can
replay it: the speedup ratios travel across hosts, the absolute timings
gate only on a comparable machine.
"""

import numpy as np
import pytest

from repro.attacks import get_attack
from repro.axnn.approx_ops import approx_matmul, exact_matmul
from repro.axnn.kernels import make_kernel
from repro.benchmarking import best_of
from repro.circuits.bitops import from_bits, to_bits
from repro.multipliers import get_multiplier
from repro.multipliers.base import clear_global_lut_cache
from repro.nn.layers import AvgPool2D

RNG = np.random.default_rng(0)


def _kernel_problem(m, k, n, seed=0):
    """Random operands for a kernel benchmark (uniform codes, dense weights)."""
    rng = np.random.default_rng(seed)
    codes = rng.integers(0, 256, size=(m, k))
    weights = rng.integers(-255, 256, size=(k, n))
    return codes, np.sign(weights), np.abs(weights)


#: kernel strategies tracked by the per-kernel throughput benchmarks
KERNEL_STRATEGIES = ["gather", "percode", "errorcorrection", "sparse", "auto"]


@pytest.mark.benchmark(group="micro")
def test_micro_lut_matmul(benchmark, suite):
    """Throughput of the LUT-gather integer matmul (128 x 256 @ 256 x 64)."""
    lut = get_multiplier("M4").lut()
    a = RNG.integers(0, 256, size=(128, 256))
    w = RNG.integers(-255, 256, size=(256, 64))
    sign, magnitude = np.sign(w), np.abs(w)
    suite.measure("lut_matmul_s", lambda: approx_matmul(a, sign, magnitude, lut))
    result = benchmark(lambda: approx_matmul(a, sign, magnitude, lut))
    assert result.shape == (128, 64)


@pytest.mark.benchmark(group="micro")
def test_micro_exact_int_matmul(benchmark, suite):
    """Throughput of the exact integer fast path on the same operands."""
    a = RNG.integers(0, 256, size=(128, 256))
    w = RNG.integers(-255, 256, size=(256, 64))
    sign, magnitude = np.sign(w), np.abs(w)
    suite.measure("exact_int_matmul_s", lambda: exact_matmul(a, sign, magnitude))
    result = benchmark(lambda: exact_matmul(a, sign, magnitude))
    assert result.shape == (128, 64)


@pytest.mark.benchmark(group="micro")
def test_micro_lut_construction(benchmark, suite):
    """Cost of building a circuit-backed 256x256 multiplier LUT from scratch.

    Acceptance check: the bit-sliced build of M8 (``mul8u_L40``, an array
    multiplier with AMA2 cells in its 8 low columns) is >= 10x the per-lane
    spelling with bit-identical tables.  The baseline evaluates each cell's
    ``add`` on one 0/1 ``int64`` array per bit and ripples every partial-
    product row through the adder, as the circuit did before it packed 64
    lanes per word.  The shipped build starts from a cleared LUT cache each
    round.
    """
    def build():
        multiplier = get_multiplier("mul8u_L40")
        multiplier.clear_cache()
        clear_global_lut_cache()  # force a true rebuild, not a cache re-attach
        return multiplier.lut()

    suite.timed("lut_construction_s", build)
    circuit = get_multiplier("mul8u_L40").circuit
    a, b = np.meshgrid(np.arange(256), np.arange(256), indexing="ij")

    def per_lane():
        a_bits, b_bits = to_bits(a, 8), to_bits(b, 8)
        accumulator = np.zeros(a.shape + (16,), dtype=np.int64)
        for row in range(8):
            row_bits = np.zeros_like(accumulator)
            row_bits[..., row : row + 8] = a_bits * b_bits[..., row : row + 1]
            carry = np.zeros(a.shape, dtype=np.int64)
            sum_bits = np.zeros_like(accumulator)
            for position, cell in enumerate(circuit._row_adder.cells):
                sum_bits[..., position], carry = cell.add(
                    accumulator[..., position], row_bits[..., position], carry
                )
            accumulator = sum_bits
        return from_bits(accumulator).astype(np.int32)

    stats = suite.paired("lut_construction", per_lane, build)
    assert np.array_equal(build(), per_lane())
    benchmark.extra_info.update(stats)
    lut = benchmark(build)
    assert lut.shape == (256, 256)
    assert stats["ratio_median"] >= 10.0, (
        f"bit-sliced LUT build only {stats['ratio_median']:.1f}x the per-lane one"
    )


@pytest.mark.benchmark(group="micro-kernels")
@pytest.mark.parametrize("strategy", KERNEL_STRATEGIES)
def test_micro_kernel_lenet_shape(benchmark, suite, strategy):
    """Per-kernel throughput at the LeNet dense shape (128x256 @ 256x64, M4).

    This is the acceptance workload for the kernel engine: M4 (operand
    truncation) has a rank-1 LUT, so the auto-selected per-code BLAS kernel
    collapses to a single dgemm.
    """
    codes, sign, magnitude = _kernel_problem(128, 256, 64)
    kernel = make_kernel(get_multiplier("M4"), sign, magnitude, strategy)
    suite.measure(f"kernel_lenet.{strategy}_s", lambda: kernel.matmul(codes))
    result = benchmark(lambda: kernel.matmul(codes))
    benchmark.extra_info["kernel"] = kernel.describe()
    assert result.shape == (128, 64)
    assert np.array_equal(
        result, approx_matmul(codes, sign, magnitude, get_multiplier("M4").lut())
    )


@pytest.mark.benchmark(group="micro-kernels")
@pytest.mark.parametrize("strategy", KERNEL_STRATEGIES)
def test_micro_kernel_alexnet_shape(benchmark, suite, strategy):
    """Per-kernel throughput at an AlexNet conv shape (64x1152 @ 1152x256, A3).

    A3 is a mild partial-product-truncation multiplier (rank-6 LUT), the
    regime the AlexNet sweeps spend their time in.
    """
    codes, sign, magnitude = _kernel_problem(64, 1152, 256, seed=1)
    kernel = make_kernel(get_multiplier("A3"), sign, magnitude, strategy)
    suite.measure(f"kernel_alexnet.{strategy}_s", lambda: kernel.matmul(codes))
    result = benchmark(lambda: kernel.matmul(codes))
    benchmark.extra_info["kernel"] = kernel.describe()
    assert result.shape == (64, 256)


@pytest.mark.benchmark(group="micro-kernels")
def test_micro_kernel_auto_speedup_vs_gather(benchmark, suite):
    """Acceptance check: auto kernel >= 5x faster than gather on the M4 shape.

    Measured inline (best-of-N on both kernels) so the ratio lands in the
    suite report; the margin on a single core is ~50-100x.
    """
    codes, sign, magnitude = _kernel_problem(128, 256, 64)
    multiplier = get_multiplier("M4")
    gather = make_kernel(multiplier, sign, magnitude, "gather")
    auto = make_kernel(multiplier, sign, magnitude, "auto")

    gather_s = best_of(lambda: gather.matmul(codes), repeats=7)
    auto_s = best_of(lambda: auto.matmul(codes), repeats=7)
    speedup = gather_s / auto_s
    suite.record("auto_vs_gather.gather_s", gather_s)
    suite.record("auto_vs_gather.auto_s", auto_s)
    suite.record(
        "auto_vs_gather.speedup", speedup, unit="ratio", higher_is_better=True
    )
    benchmark.extra_info["gather_ms"] = gather_s * 1e3
    benchmark.extra_info["auto_ms"] = auto_s * 1e3
    benchmark.extra_info["auto_kernel"] = auto.describe()
    benchmark.extra_info["speedup"] = speedup
    result = benchmark(lambda: auto.matmul(codes))
    assert np.array_equal(result, gather.matmul(codes))
    assert speedup >= 5.0, (
        f"auto kernel ({auto.describe()}) only {speedup:.1f}x faster than gather"
    )


@pytest.mark.benchmark(group="micro-kernels")
def test_micro_kernel_sparse_beats_gather_full_rank(benchmark, suite):
    """Acceptance check: sparse one-hot >= 2x faster than gather on M6.

    M6 (compressor-tree circuit) has a full-rank LUT — no low-rank
    factorisation exists, so before the sparse kernel this shape was stuck
    on the reference gather loop.  ``auto`` picks ``sparse`` only when no
    compiled backend resolved, so the ratio is asserted here but not
    recorded as a gated metric; the two timings are.
    """
    codes, sign, magnitude = _kernel_problem(128, 256, 64, seed=2)
    multiplier = get_multiplier("M6")
    gather = make_kernel(multiplier, sign, magnitude, "gather")
    sparse = make_kernel(multiplier, sign, magnitude, "sparse")

    gather_s = best_of(lambda: gather.matmul(codes), repeats=7)
    sparse_s = best_of(lambda: sparse.matmul(codes), repeats=7)
    speedup = gather_s / sparse_s
    suite.record("sparse_vs_gather.gather_s", gather_s)
    suite.record("sparse_vs_gather.sparse_s", sparse_s)
    benchmark.extra_info["gather_ms"] = gather_s * 1e3
    benchmark.extra_info["sparse_ms"] = sparse_s * 1e3
    benchmark.extra_info["sparse_kernel"] = sparse.describe()
    benchmark.extra_info["speedup"] = speedup
    result = benchmark(lambda: sparse.matmul(codes))
    assert np.array_equal(result, gather.matmul(codes))
    assert speedup >= 2.0, (
        f"sparse kernel ({sparse.describe()}) only {speedup:.1f}x faster than gather"
    )


@pytest.mark.benchmark(group="micro")
def test_micro_avgpool_offsets_vs_windows(benchmark, suite):
    """Acceptance check: AvgPool2D's offset loop (forward + backward) is
    >= 2x the stacked-window spelling at LeNet's first pool shape
    (32 x 24 x 24 x 6, 2x2/s2), with bit-identical outputs.

    The baseline stacks the windows and reduces them with ``mean``, and
    accumulates the backward into a zero-filled gradient, as the layer did
    before it summed strided slices.
    """
    x = np.random.default_rng(9).standard_normal((32, 24, 24, 6))
    layer = AvgPool2D(2)

    def windows():
        out_h, out_w, channels = layer.output_shape(x.shape[1:])
        stacked = np.empty((x.shape[0], out_h, out_w, channels, 4))
        for index, view in layer._offsets(x, out_h, out_w):
            stacked[..., index] = view
        out = stacked.mean(axis=-1)
        grad_input = np.zeros_like(x)
        for _, view in layer._offsets(grad_input, out.shape[1], out.shape[2]):
            view += out / 4
        return out, grad_input

    def offsets():
        out = layer.forward(x)
        return out, layer.backward(out)

    stats = suite.paired("avgpool_offsets_vs_windows", windows, offsets, rounds=20)
    for fast, reference in zip(offsets(), windows()):
        assert np.array_equal(fast.view(np.int64), reference.view(np.int64))
    benchmark.extra_info.update(stats)
    benchmark(offsets)
    assert stats["ratio_median"] >= 2.0, (
        f"offset-loop AvgPool2D only {stats['ratio_median']:.2f}x the windows"
    )


@pytest.mark.benchmark(group="micro")
def test_micro_axdnn_inference(benchmark, suite, lenet_bundle):
    """Per-batch latency of approximate LeNet-5 inference (16 images)."""
    victim = lenet_bundle["victims"]["M4"]
    x = lenet_bundle["x"][:16]
    suite.measure("axdnn_infer16_s", lambda: victim.predict(x))
    logits = benchmark(lambda: victim.predict(x))
    assert logits.shape == (16, 10)


@pytest.mark.benchmark(group="micro")
def test_micro_attack_gradient(benchmark, suite, lenet_bundle):
    """Per-batch latency of one FGM gradient computation on the float model."""
    attack = get_attack("FGM_linf")
    model = lenet_bundle["model"]
    x = lenet_bundle["x"][:16]
    y = lenet_bundle["y"][:16]
    suite.measure("fgm_gradient16_s", lambda: attack.generate(model, x, y, 0.1))
    adv = benchmark(lambda: attack.generate(model, x, y, 0.1))
    assert adv.shape == x.shape
