"""Inference-only layers of the approximate DNN (AxDNN).

An AxDNN is built from a trained float model by
:func:`repro.axnn.engine.build_axdnn`: compute layers (convolutions and dense
layers) become :class:`AxConv2D` / :class:`AxDense`, which quantize their
inputs and weights to 8-bit fixed point and evaluate every product through
the configured approximate multiplier; all other layers (activations,
pooling, flatten, dropout, batch-norm) keep their float behaviour in
evaluation mode via :class:`PassthroughLayer`.

Every Ax layer runs the same three stages, each its own method:

1. quantize the input activation to codes (``quantize_input`` /
   ``quantize_cols``), once per input value;
2. for a convolution, gather the code patches (``extract_cols``), padding
   with the scheme's zero point — the code of ``0.0`` — so the patches are
   exactly the quantized float patches;
3. ``forward_from_codes``: the LUT product and the dequantize epilogue.
   A layer whose kernel is ``native`` runs both in one compiled call
   (:class:`NativeLayerCall` with this layer as its only member); every
   other kernel returns its int64 accumulator from ``kernel.matmul`` and
   the epilogue runs as NumPy ufuncs.

``forward`` composes the three, and ``perfbench/tracer.py`` hooks each by
name to time a victim's quantize, gather and per-layer work; that is why
they stay separate methods.  The fused multi-victim panel
(:mod:`repro.axnn.panel`) runs the same stages in one compiled program and
otherwise calls each victim's ``forward``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.axnn.approx_ops import (
    quantize_weights_sign_magnitude,
    zero_point_correction_vector,
)
from repro.axnn import native as _native
from repro.axnn.kernels import (
    KernelSpec,
    NativeLUTKernel,
    make_kernel,
    member_operands,
)
from repro.axnn.native import FusedMember
from repro.errors import ConfigurationError, ShapeError
from repro.multipliers.base import Multiplier
from repro.nn.functional import im2col
from repro.nn.layers.base import Layer
from repro.nn.layers.conv import Conv2D
from repro.nn.layers.dense import Dense
from repro.quantization.schemes import AffineQuantization


class AxLayer:
    """Base class for inference-only AxDNN layers."""

    def __init__(self, name: str) -> None:
        self.name = name

    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


class PassthroughLayer(AxLayer):
    """Wraps a float layer, evaluated in inference mode."""

    def __init__(self, layer: Layer) -> None:
        super().__init__(layer.name)
        self.layer = layer

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self.layer.forward(x, training=False)


class _ProductLayer(AxLayer):
    """An Ax layer with a bound kernel and a dequantize epilogue.

    A native kernel's fused call snapshots the epilogue constants, so
    assigning any attribute it reads rebinds it; the call is first bound
    when the kernel is assigned, last in construction.
    """

    _BOUND_ATTRIBUTES = frozenset(
        {"activation_scheme", "weight_scale", "bias", "_zero_point_correction", "kernel"}
    )
    _native_call: Optional["NativeLayerCall"] = None

    def __setattr__(self, name: str, value) -> None:
        super().__setattr__(name, value)
        if name in self._BOUND_ATTRIBUTES and "kernel" in self.__dict__:
            super().__setattr__("_native_call", NativeLayerCall.for_layer(self))


class AxDense(_ProductLayer):
    """Quantized dense layer evaluated through an approximate multiplier."""

    def __init__(
        self,
        source: Dense,
        multiplier: Multiplier,
        activation_scheme: AffineQuantization,
        weight_bits: int = 8,
        kernel: KernelSpec = "auto",
    ) -> None:
        super().__init__(f"ax_{source.name}")
        self.multiplier = multiplier
        self.activation_scheme = activation_scheme
        weight = source.params["weight"]
        self.weight_sign, self.weight_magnitude, self.weight_scale = (
            quantize_weights_sign_magnitude(weight, bits=weight_bits)
        )
        self.bias = source.params.get("bias")
        self.units = source.units
        # Bound kernel and zero-point correction are built once per layer:
        # the weights are constant during inference, so every per-weight
        # table (per-code factors, signed-weight BLAS operand, correction
        # vector, a native kernel's fused call) is paid for here instead of
        # on every forward call.
        self._zero_point_correction = zero_point_correction_vector(
            self.weight_sign, self.weight_magnitude
        )
        self.kernel = make_kernel(
            multiplier, self.weight_sign, self.weight_magnitude, kernel
        )

    def quantize_input(self, x: np.ndarray) -> np.ndarray:
        """Activation codes for ``x`` (uint8 for 8-bit schemes)."""
        if x.ndim != 2:
            raise ShapeError(f"{self.name}: expected 2-D input, got {x.shape}")
        return self.activation_scheme.quantize_packed(x)

    def forward_from_codes(self, codes: np.ndarray) -> np.ndarray:
        """Evaluate the layer from precomputed activation codes.

        ``forward`` is exactly ``forward_from_codes(quantize_input(x))``.
        """
        out = np.empty((codes.shape[0], self.units), dtype=np.float64)
        if self._native_call is not None:
            return self._native_call(codes, out)
        return _dequantize_into(self, self.kernel.matmul(codes), out)

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self.forward_from_codes(self.quantize_input(x))


class AxConv2D(_ProductLayer):
    """Quantized 2-D convolution evaluated through an approximate multiplier."""

    def __init__(
        self,
        source: Conv2D,
        multiplier: Multiplier,
        activation_scheme: AffineQuantization,
        weight_bits: int = 8,
        kernel: KernelSpec = "auto",
    ) -> None:
        super().__init__(f"ax_{source.name}")
        self.multiplier = multiplier
        self.activation_scheme = activation_scheme
        self.kernel_size = source.kernel_size
        self.stride = source.stride
        self.pad_amount = source.pad_amount
        self.filters = source.filters
        flattened = source.flattened_weight()  # (kh*kw*cin, filters)
        self.weight_sign, self.weight_magnitude, self.weight_scale = (
            quantize_weights_sign_magnitude(flattened, bits=weight_bits)
        )
        self.bias = source.params.get("bias")
        self._zero_point_correction = zero_point_correction_vector(
            self.weight_sign, self.weight_magnitude
        )
        self.kernel = make_kernel(
            multiplier, self.weight_sign, self.weight_magnitude, kernel
        )

    @property
    def geometry(self) -> tuple:
        """Patch-extraction geometry; victims with equal geometry can share
        one patch gather per batch (the data movement of this layer)."""
        return (self.kernel_size, self.stride, self.pad_amount)

    def quantize_cols(self, x: np.ndarray) -> np.ndarray:
        """Activation codes of the NHWC input ``x`` (uint8 for 8-bit
        schemes) — one code per input value, before patch extraction, so no
        value is quantized once per patch it falls in."""
        if x.ndim != 4:
            raise ShapeError(f"{self.name}: expected NHWC input, got {x.shape}")
        return self.activation_scheme.quantize_packed(x)

    def extract_cols(self, codes: np.ndarray) -> np.ndarray:
        """The im2col patch matrix of the code image ``codes`` — a pure
        function of the codes and :attr:`geometry`.  Padding takes the scheme's zero point, the code of
        ``0.0``, so the patches equal the quantized zero-padded float
        patches."""
        return im2col(
            codes,
            self.kernel_size,
            self.kernel_size,
            self.stride,
            self.pad_amount,
            pad_value=self.activation_scheme.zero_point,
        )

    def forward_from_codes(
        self, codes: np.ndarray, batch: int, out_h: int, out_w: int
    ) -> np.ndarray:
        """Evaluate the layer from a 2-D matrix of code patches.

        ``forward`` is exactly this applied to
        ``extract_cols(quantize_cols(x))`` flattened to one patch per row.
        """
        out = np.empty((batch, out_h, out_w, self.filters), dtype=np.float64)
        if self._native_call is not None:
            return self._native_call(codes, out)
        return _dequantize_into(self, self.kernel.matmul(codes), out)

    def forward(self, x: np.ndarray) -> np.ndarray:
        patches = self.extract_cols(self.quantize_cols(x))
        batch, out_h, out_w, patch = patches.shape
        return self.forward_from_codes(
            patches.reshape(-1, patch), batch, out_h, out_w
        )


class NativeLayerCall:
    """One compiled call for an Ax layer's product and dequantize epilogue.

    Construction binds the layer's product operands and epilogue constants
    (:func:`fused_member`; :meth:`repro.axnn.native.NativeBackend.bind_layer`
    runs every layout check); a call then writes the product and the
    epilogue, ``(acc - zero_point * correction) * (scale * weight_scale) +
    bias``, straight into ``out`` in one GIL-free pass — the float64
    operations of :func:`_dequantize_into`, in the same order, so the bits
    are those of the NumPy epilogue.  A :class:`NativeLUTKernel` brings its
    signed table or LUT-loop operands, any other kernel its low-rank
    factors or the LUT loop's.

    uint8 codes of an 8-bit multiplier go to the compiled call as they are;
    other codes take :meth:`MatmulKernel.packed_codes` first, so they are
    range-checked and packed (or rejected) exactly as
    ``NativeLUTKernel.matmul`` does.
    """

    def __init__(self, layer: "_ProductLayer") -> None:
        kernel = layer.kernel
        self._pack = kernel.packed_codes
        self._uint8_ready = kernel.codes_total == 256
        backend = getattr(kernel, "_backend", None) or _native.get_backend()
        if backend is None:
            raise ConfigurationError("a fused layer call needs a native backend")
        self._run = backend.bind_layer(
            [fused_member(layer, 0)], kernel.inner, kernel.outputs, 1, False
        )

    @classmethod
    def for_layer(cls, layer: "_ProductLayer") -> Optional["NativeLayerCall"]:
        """The call of a lone layer; ``None`` unless its kernel is native."""
        if not isinstance(layer.kernel, NativeLUTKernel):
            return None
        return cls(layer)

    def __call__(self, codes: np.ndarray, out: np.ndarray) -> np.ndarray:
        if (
            codes.dtype != np.uint8
            or not self._uint8_ready
            or not codes.flags.c_contiguous
        ):
            codes = self._pack(codes)
        self._run(codes, out)
        return out


def fused_member(layer: "_ProductLayer", slot: int) -> FusedMember:
    """``layer`` as member ``slot`` of a fused call: its product operands
    (:func:`repro.axnn.kernels.member_operands`) and epilogue constants.
    Raises :class:`ConfigurationError` when no compiled loop can run its
    kernel."""
    operands = member_operands(layer.kernel)
    if operands is None:
        raise ConfigurationError(
            f"{layer.kernel.describe()} on {layer.kernel.multiplier.name!r} "
            "cannot run in a compiled product loop"
        )
    return FusedMember(
        slot=slot,
        zero_point=int(layer.activation_scheme.zero_point),
        correction=np.ascontiguousarray(layer._zero_point_correction, dtype=np.int64),
        alpha=float(layer.activation_scheme.scale * layer.weight_scale),
        bias=(
            None if layer.bias is None
            else np.ascontiguousarray(layer.bias, dtype=np.float64)
        ),
        **operands,
    )


def _dequantize_into(layer, accumulator: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The dequantize epilogue of an Ax layer, in place.

    ``out = (accumulator - zero_point * correction) * (scale * weight_scale)
    + bias``: the zero-point correction is subtracted inside the kernel's
    fresh int64 accumulator, the product is written straight into ``out``
    (int64 to float64 is the same conversion as ``astype``), and the bias
    is added in place — the same float64 operations, in the same order, as
    the allocating expression.
    """
    zero_point = layer.activation_scheme.zero_point
    if zero_point:
        np.subtract(
            accumulator, zero_point * layer._zero_point_correction, out=accumulator
        )
    np.multiply(
        accumulator.reshape(out.shape),
        layer.activation_scheme.scale * layer.weight_scale,
        out=out,
    )
    if layer.bias is not None:
        np.add(out, layer.bias, out=out)
    return out
