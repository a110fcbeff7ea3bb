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
3. ``forward_from_codes``: the LUT product and the dequantize epilogue,
   written in place into the output buffer.  A layer whose kernel is
   ``native`` runs both in one compiled call (:class:`NativeLayerCall`,
   the panel's fused entry with this layer as its only member); every
   other kernel returns its int64 accumulator from ``kernel.matmul`` and
   the epilogue runs as NumPy ufuncs.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.axnn.approx_ops import (
    quantize_weights_sign_magnitude,
    zero_point_correction_vector,
)
from repro.axnn import native as _native
from repro.axnn.kernels import (
    KernelSpec,
    NativeLUTKernel,
    lut_loop_operands,
    make_kernel,
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
        result is written into ``out`` (shape ``(rows, units)``; C-contiguous
        float64 for a native kernel) when given, else into a new array.
        """
        if out is None:
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
        filters)``; C-contiguous float64 for a native kernel) when given,
        else into a new array.
        """
        if out is None:
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
    """One compiled call for the native members of a group of Ax layers.

    ``layers`` are the same layer of several victims (same kind, width and
    activation scheme); ``slots`` their row blocks in the group's stacked
    output of ``n_slots`` blocks, which the group's other members fill
    through their own ``forward_from_codes``.  A :class:`NativeLUTKernel`
    member brings its signed table or LUT-loop operands; a member with any
    other kernel runs in the LUT loop
    (:func:`repro.axnn.kernels.lut_loop_operands`), as the panel's
    ``percode`` members do at small batches.  The code matrix is shared by
    every member, or stacked one block per slot when ``stacked``.  Construction binds every
    member's product operands and epilogue constants
    (:meth:`repro.axnn.native.NativeBackend.bind_layer`, where every layout
    check runs); a call then writes each member's product and dequantize
    epilogue, ``(acc - zero_point * correction) * (scale * weight_scale) +
    bias``, straight into ``out`` in one GIL-free pass — the float64
    operations of :func:`_dequantize_into`, in the same order, so the bits
    are those of the per-victim NumPy epilogue.

    uint8 codes of 8-bit multipliers go to the compiled call as they are;
    other codes take :meth:`MatmulKernel.packed_codes` first, so they
    are range-checked and packed (or rejected) exactly as
    ``NativeLUTKernel.matmul`` does.
    """

    def __init__(
        self,
        layers: Sequence["AxLayer"],
        slots: Sequence[int],
        n_slots: int,
        stacked: bool,
    ) -> None:
        first = layers[0]
        kernels = [layer.kernel for layer in layers]
        self._pack = min(kernels, key=lambda kernel: kernel.codes_total).packed_codes
        self._uint8_ready = all(kernel.codes_total == 256 for kernel in kernels)
        backend = next(
            (kernel._backend for kernel in kernels if isinstance(kernel, NativeLUTKernel)),
            None,
        ) or _native.get_backend()
        if backend is None:
            raise ConfigurationError("a fused layer call needs a native backend")
        members = [
            FusedMember(
                slot=slot,
                zero_point=int(layer.activation_scheme.zero_point),
                correction=np.ascontiguousarray(
                    layer._zero_point_correction, dtype=np.int64
                ),
                alpha=float(layer.activation_scheme.scale * layer.weight_scale),
                bias=(
                    None if layer.bias is None
                    else np.ascontiguousarray(layer.bias, dtype=np.float64)
                ),
                **_product_operands(layer.kernel),
            )
            for slot, layer in zip(slots, layers)
        ]
        self._run = backend.bind_layer(
            members, first.kernel.inner, first.kernel.outputs, n_slots, stacked
        )

    @classmethod
    def for_layer(cls, layer: "AxLayer") -> Optional["NativeLayerCall"]:
        """The one-member call of a lone layer; ``None`` unless its kernel
        is native."""
        if not isinstance(layer.kernel, NativeLUTKernel):
            return None
        return cls([layer], [0], 1, False)

    def __call__(self, codes: np.ndarray, out: np.ndarray) -> np.ndarray:
        if (
            codes.dtype != np.uint8
            or not self._uint8_ready
            or not codes.flags.c_contiguous
        ):
            codes = self._pack(codes)
        self._run(codes, out)
        return out


def _product_operands(kernel) -> dict:
    """A fused member's product operands: a native kernel's own, else the
    LUT loop's (:class:`ConfigurationError` when the loop cannot run it)."""
    if isinstance(kernel, NativeLUTKernel):
        return kernel.fused_operands()
    operands = lut_loop_operands(kernel)
    if operands is None:
        raise ConfigurationError(
            f"{kernel.describe()} on {kernel.multiplier.name!r} cannot run in "
            "the native LUT loop"
        )
    return operands


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
