"""Building and running approximate DNNs (AxDNNs).

:func:`build_axdnn` converts a trained float :class:`repro.nn.Sequential`
model into an :class:`AxModel`:

1. a calibration batch is pushed through the float model, recording the
   activation range at the input of every compute layer (once per victim
   set in :func:`build_victims`, which shares the schemes);
2. every ``Conv2D`` / ``Dense`` layer is replaced by its quantized,
   LUT-multiplied counterpart (:class:`repro.axnn.layers.AxConv2D` /
   :class:`AxDense`) bound to the requested approximate multiplier;
3. every other layer is wrapped as a pass-through evaluated in inference
   mode.

Passing the accurate multiplier (``mul8u_1JFF``) yields the paper's
"quantized accurate DNN"; passing any other named multiplier yields the
corresponding AxDNN.  Per-layer multiplier assignment is also supported so
that mixed configurations (e.g. approximate convolutions, exact classifier)
can be studied — the paper applies the approximate multipliers to the
convolutional layers only, which is the default here.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Union

import numpy as np

from repro.axnn.kernels import normalize_strategy
from repro.axnn.layers import AxConv2D, AxDense, AxLayer, PassthroughLayer
from repro.nn.runtime import run_batched, validate_batch_size
from repro.errors import ConfigurationError
from repro.multipliers.base import Multiplier
from repro.multipliers.library import get_multiplier
from repro.nn.layers.conv import Conv2D
from repro.nn.layers.base import no_grad_cache
from repro.nn.layers.dense import Dense
from repro.nn.metrics import accuracy
from repro.nn.model import Sequential
from repro.quantization.quantizer import ActivationObserver
from repro.quantization.schemes import AffineQuantization

MultiplierSpec = Union[str, Multiplier]


class AxModel:
    """An inference-only approximate DNN."""

    def __init__(
        self,
        layers: Sequence[AxLayer],
        name: str,
        multiplier: Multiplier,
        bits: int,
        source: Sequential,
        kernel: str = "auto",
    ) -> None:
        self.layers: List[AxLayer] = list(layers)
        self.name = name
        self.multiplier = multiplier
        self.bits = bits
        self.source = source
        #: requested kernel strategy (per-layer resolution in kernel_report)
        self.kernel = kernel

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = np.asarray(x, dtype=np.float64)
        for layer in self.layers:
            out = layer.forward(out)
        return out

    @property
    def output_shape(self):
        """Per-sample output shape (inherited from the built source model)."""
        return tuple(self.source.output_shape)

    def predict(self, x: np.ndarray, batch_size: int = 64) -> np.ndarray:
        """Batched inference returning logits.

        AxDNN inference is gradient-free, so the wrapped float layers run
        under ``no_grad_cache`` and keep no backward buffers.
        """
        validate_batch_size(batch_size)
        x = np.asarray(x, dtype=np.float64)
        if x.shape[0] == 0:
            return np.zeros((0,) + self.output_shape, dtype=np.float64)
        return run_batched(self.forward, x, batch_size)

    def predict_classes(self, x: np.ndarray, batch_size: int = 64) -> np.ndarray:
        """Predicted class labels."""
        return np.argmax(self.predict(x, batch_size=batch_size), axis=-1)

    def accuracy(self, x: np.ndarray, y: np.ndarray, batch_size: int = 64) -> float:
        """Classification accuracy in [0, 1]."""
        return accuracy(self.predict_classes(x, batch_size=batch_size), np.asarray(y))

    def accuracy_percent(
        self, x: np.ndarray, y: np.ndarray, batch_size: int = 64
    ) -> float:
        """Classification accuracy in percent (the unit used by the paper)."""
        return self.accuracy(x, y, batch_size=batch_size) * 100.0

    def compute_layers(self) -> List[AxLayer]:
        """The quantized compute layers (AxConv2D / AxDense)."""
        return [
            layer for layer in self.layers if isinstance(layer, (AxConv2D, AxDense))
        ]

    def kernel_report(self) -> Dict[str, str]:
        """Resolved kernel strategy per compute layer (for logs and tests)."""
        return {layer.name: layer.kernel.describe() for layer in self.compute_layers()}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"AxModel(name={self.name!r}, multiplier={self.multiplier.name!r}, "
            f"bits={self.bits}, layers={len(self.layers)})"
        )


def _calibrate_activations(
    model: Sequential, calibration_data: np.ndarray, bits: int
) -> Dict[str, AffineQuantization]:
    """Record the activation range at the input of every compute layer.

    A pure-inference pass: under ``no_grad_cache`` the source model's
    layers keep no backward buffers (the conv caches would otherwise stay
    pinned on the source model after the build).
    """
    observers: Dict[str, ActivationObserver] = {}
    out = np.asarray(calibration_data, dtype=np.float64)
    with no_grad_cache():
        for layer in model.layers:
            if isinstance(layer, (Conv2D, Dense)):
                observer = observers.setdefault(layer.name, ActivationObserver())
                observer.update(out)
            out = layer.forward(out, training=False)
    return {name: obs.affine_scheme(bits=bits) for name, obs in observers.items()}


def _resolve_multiplier(spec: MultiplierSpec) -> Multiplier:
    return spec if isinstance(spec, Multiplier) else get_multiplier(spec)


def _validate_build(model: Sequential, calibration_data: np.ndarray, kernel: str) -> str:
    """Check the build inputs; returns the canonical kernel strategy."""
    if not model.layers:
        raise ConfigurationError("cannot build an AxDNN from an empty model")
    if calibration_data is None or np.asarray(calibration_data).size == 0:
        raise ConfigurationError("calibration_data must contain at least one sample")
    return normalize_strategy(kernel)


def _assemble(
    model: Sequential,
    default_multiplier: Multiplier,
    schemes: Dict[str, AffineQuantization],
    bits: int,
    convolution_only: bool,
    overrides: Dict[str, Multiplier],
    name: str,
    kernel: str,
) -> AxModel:
    """Replace every compute layer of ``model`` by its Ax counterpart."""
    accurate = get_multiplier("mul8u_1JFF")
    ax_layers: List[AxLayer] = []
    for layer in model.layers:
        if isinstance(layer, Conv2D):
            chosen = overrides.get(layer.name, default_multiplier)
            ax_layers.append(
                AxConv2D(
                    layer, chosen, schemes[layer.name], weight_bits=bits, kernel=kernel
                )
            )
        elif isinstance(layer, Dense):
            chosen = overrides.get(
                layer.name, accurate if convolution_only else default_multiplier
            )
            ax_layers.append(
                AxDense(
                    layer, chosen, schemes[layer.name], weight_bits=bits, kernel=kernel
                )
            )
        else:
            ax_layers.append(PassthroughLayer(layer))
    return AxModel(
        ax_layers, name, default_multiplier, bits, source=model, kernel=kernel
    )


def build_axdnn(
    model: Sequential,
    multiplier: MultiplierSpec,
    calibration_data: np.ndarray,
    bits: int = 8,
    convolution_only: bool = False,
    per_layer_multipliers: Optional[Dict[str, MultiplierSpec]] = None,
    name: Optional[str] = None,
    kernel: str = "auto",
) -> AxModel:
    """Convert a trained float model into a quantized approximate model.

    Parameters
    ----------
    model:
        Trained float model (must be built).
    multiplier:
        Default multiplier for every compute layer — a
        :class:`repro.multipliers.base.Multiplier` or a registry name/paper
        label (e.g. ``"mul8u_17KS"`` or ``"M4"``).
    calibration_data:
        Batch of representative inputs used to calibrate activation ranges.
    bits:
        Fixed-point bit width (8 in the paper).
    convolution_only:
        When True, only convolution layers use the approximate multiplier and
        dense layers use the accurate one (the paper replaces the multipliers
        "in the convolutional layers").  Default False: all compute layers
        use the configured multiplier.
    per_layer_multipliers:
        Optional explicit mapping from float-layer name to multiplier,
        overriding ``multiplier`` for those layers.
    kernel:
        Matmul kernel strategy for every compute layer: ``"auto"`` (the
        default) or one of the names in
        :data:`repro.axnn.kernels.KERNEL_STRATEGIES`.  ``"auto"`` decides
        once per layer, at build time, from the multiplier's LUT structure
        and the layer's ``(K, N)`` weight shape, so on LeNet-5 a low-rank
        multiplier runs the narrow layers (conv1, conv2, fc2) on
        ``native`` and the wide ones on ``percode`` — see
        :func:`repro.axnn.kernels.select_strategy`.  All strategies are
        bit-identical; they differ only in throughput and memory.
    """
    kernel = _validate_build(model, calibration_data, kernel)
    default_multiplier = _resolve_multiplier(multiplier)
    overrides = {
        layer_name: _resolve_multiplier(spec)
        for layer_name, spec in (per_layer_multipliers or {}).items()
    }
    return _assemble(
        model,
        default_multiplier,
        _calibrate_activations(model, calibration_data, bits),
        bits,
        convolution_only,
        overrides,
        name or f"ax_{model.name}_{default_multiplier.name}",
        kernel,
    )


def build_victims(
    model: Sequential,
    multiplier_labels: Sequence[str],
    calibration_data: np.ndarray,
    bits: int = 8,
    convolution_only: bool = False,
    kernel: str = "auto",
    progress: Optional[Callable[[str], None]] = None,
) -> Dict[str, AxModel]:
    """Build one AxDNN per multiplier label (M1..M9 / A1..A8 / library names).

    Each victim is exactly ``build_axdnn(model, label, calibration_data,
    ..., name=f"ax_{model.name}_{label}")``, but the activation ranges are
    calibrated once and the (immutable) schemes shared by every victim.
    ``progress``, when given, is called with each label before its victim
    is built.
    """
    kernel = _validate_build(model, calibration_data, kernel)
    schemes = _calibrate_activations(model, calibration_data, bits)
    victims: Dict[str, AxModel] = {}
    for label in multiplier_labels:
        if progress is not None:
            progress(label)
        victims[label] = _assemble(
            model,
            _resolve_multiplier(label),
            schemes,
            bits,
            convolution_only,
            {},
            f"ax_{model.name}_{label}",
            kernel,
        )
    return victims


def build_quantized_accurate(
    model: Sequential,
    calibration_data: np.ndarray,
    bits: int = 8,
    name: Optional[str] = None,
    kernel: str = "auto",
) -> AxModel:
    """The paper's quantized accurate DNN: 8-bit fixed point, exact multiplier."""
    return build_axdnn(
        model,
        "mul8u_1JFF",
        calibration_data,
        bits=bits,
        name=name or f"quantized_{model.name}",
        kernel=kernel,
    )
