"""Approximate inference engine (the TFApprox substitute).

Converts trained float models into 8-bit quantized models whose every
activation x weight product is evaluated through an approximate-multiplier
look-up table.  The LUT matmul itself runs through a pluggable kernel engine
(:mod:`repro.axnn.kernels`) with bit-identical gather / per-code BLAS /
error-correction / sparse one-hot / native compiled strategies (the latter
backed by :mod:`repro.axnn.native` — a tiny C extension, enabled or disabled
via ``REPRO_KERNEL_BACKEND``).  :class:`repro.axnn.panel.VictimPanel`
evaluates many victims of one source model in a single stacked pass,
sharing quantization, the patch gather and the float layers; with a native
backend the whole pass is one compiled call per victim group.
"""

from repro.axnn.approx_ops import (
    approx_dot_general,
    approx_matmul,
    exact_matmul,
    quantize_weights_sign_magnitude,
    zero_point_correction_vector,
)
from repro.axnn.engine import (
    AxModel,
    build_axdnn,
    build_quantized_accurate,
    build_victims,
)
from repro.axnn.kernels import (
    KERNEL_STRATEGIES,
    ErrorCorrectionKernel,
    ExactBLASKernel,
    GatherKernel,
    MatmulKernel,
    NativeLUTKernel,
    PerCodeBLASKernel,
    SparseOneHotKernel,
    clear_profile_cache,
    integer_low_rank_factors,
    make_kernel,
    multiplier_kernel_profile,
    select_strategy,
)
from repro.axnn.layers import AxConv2D, AxDense, AxLayer, PassthroughLayer
from repro.axnn.native import (
    BACKEND_ENV_VAR,
    backend_name,
    get_backend,
    native_fingerprint,
    reset_backend,
)
from repro.axnn.panel import VictimPanel

__all__ = [
    "approx_matmul",
    "exact_matmul",
    "approx_dot_general",
    "quantize_weights_sign_magnitude",
    "zero_point_correction_vector",
    "KERNEL_STRATEGIES",
    "MatmulKernel",
    "GatherKernel",
    "ExactBLASKernel",
    "PerCodeBLASKernel",
    "ErrorCorrectionKernel",
    "SparseOneHotKernel",
    "NativeLUTKernel",
    "clear_profile_cache",
    "integer_low_rank_factors",
    "make_kernel",
    "multiplier_kernel_profile",
    "select_strategy",
    "BACKEND_ENV_VAR",
    "backend_name",
    "get_backend",
    "native_fingerprint",
    "reset_backend",
    "VictimPanel",
    "AxLayer",
    "AxConv2D",
    "AxDense",
    "PassthroughLayer",
    "AxModel",
    "build_axdnn",
    "build_quantized_accurate",
    "build_victims",
]
