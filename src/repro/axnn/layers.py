"""Inference-only layers of the approximate DNN (AxDNN).

An AxDNN is built from a trained float model by
:func:`repro.axnn.engine.build_axdnn`: compute layers (convolutions and dense
layers) become :class:`AxConv2D` / :class:`AxDense`, which quantize their
inputs and weights to 8-bit fixed point and evaluate every product through
the configured approximate multiplier; all other layers (activations,
pooling, flatten, dropout, batch-norm) keep their float behaviour in
evaluation mode via :class:`PassthroughLayer`.

Every Ax layer runs the same three stages, and each is its own method so
the fused multi-victim panel (:mod:`repro.axnn.panel`) can share the first
two across victims:

1. quantize the input activation to codes (``quantize_input`` /
   ``quantize_cols``), once per input value;
2. for a convolution, gather the code patches (``extract_cols``), padding
   with the scheme's zero point — the code of ``0.0`` — so the patches are
   exactly the quantized float patches;
3. ``forward_from_codes``: the LUT product (``kernel.matmul``) and the
   dequantize epilogue, written in place into the output buffer.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.axnn.approx_ops import (
    quantize_weights_sign_magnitude,
    zero_point_correction_vector,
)
from repro.axnn.kernels import KernelSpec, make_kernel
from repro.errors import ShapeError
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


class AxDense(AxLayer):
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
        # vector) is paid for here instead of on every forward call.
        self.kernel = make_kernel(
            multiplier, self.weight_sign, self.weight_magnitude, kernel
        )
        self._zero_point_correction = zero_point_correction_vector(
            self.weight_sign, self.weight_magnitude
        )

    def quantize_input(self, x: np.ndarray) -> np.ndarray:
        """Activation codes for ``x`` (uint8 for 8-bit schemes) — shareable
        across panel victims whose layers use the same quantization scheme."""
        if x.ndim != 2:
            raise ShapeError(f"{self.name}: expected 2-D input, got {x.shape}")
        return self.activation_scheme.quantize_packed(x)

    def forward_from_codes(
        self, codes: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Evaluate the layer from precomputed activation codes.

        ``forward`` is exactly ``forward_from_codes(quantize_input(x))``;
        the split lets :class:`repro.axnn.panel.VictimPanel` quantize once
        and feed every victim's LUT product from the shared codes.  The
        result is written into ``out`` (shape ``(rows, units)``) when
        given, else into a new array.
        """
        if out is None:
            out = np.empty((codes.shape[0], self.units), dtype=np.float64)
        return _dequantize_into(self, self.kernel.matmul(codes), out)

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self.forward_from_codes(self.quantize_input(x))


class AxConv2D(AxLayer):
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
        self.kernel = make_kernel(
            multiplier, self.weight_sign, self.weight_magnitude, kernel
        )
        self._zero_point_correction = zero_point_correction_vector(
            self.weight_sign, self.weight_magnitude
        )

    @property
    def geometry(self) -> tuple:
        """Patch-extraction geometry; victims with equal geometry can share
        one patch gather per batch (the data movement of this layer)."""
        return (self.kernel_size, self.stride, self.pad_amount)

    def quantize_cols(self, x: np.ndarray) -> np.ndarray:
        """Activation codes of the NHWC input ``x`` (uint8 for 8-bit
        schemes) — one code per input value, before patch extraction, so no
        value is quantized once per patch it falls in.  Shareable across
        victims whose layers use the same quantization scheme."""
        if x.ndim != 4:
            raise ShapeError(f"{self.name}: expected NHWC input, got {x.shape}")
        return self.activation_scheme.quantize_packed(x)

    def extract_cols(self, codes: np.ndarray) -> np.ndarray:
        """The im2col patch matrix of the code image ``codes`` — a pure
        function of the codes and :attr:`geometry`, hence shareable across
        panel victims.  Padding takes the scheme's zero point, the code of
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
        self,
        codes: np.ndarray,
        batch: int,
        out_h: int,
        out_w: int,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Evaluate the layer from a 2-D matrix of code patches.

        ``forward`` is exactly this applied to
        ``extract_cols(quantize_cols(x))`` flattened to one patch per row;
        the decomposition is what the fused multi-victim panel exploits.
        The result is written into ``out`` (shape ``(batch, out_h, out_w,
        filters)``) when given, else into a new array.
        """
        if out is None:
            out = np.empty((batch, out_h, out_w, self.filters), dtype=np.float64)
        return _dequantize_into(self, self.kernel.matmul(codes), out)

    def forward(self, x: np.ndarray) -> np.ndarray:
        patches = self.extract_cols(self.quantize_cols(x))
        batch, out_h, out_w, patch = patches.shape
        return self.forward_from_codes(
            patches.reshape(-1, patch), batch, out_h, out_w
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
