"""The :class:`Sequential` model container.

A ``Sequential`` model owns an ordered list of layers, builds their
parameters lazily from an input shape, and provides the three capabilities
the paper's methodology needs:

* training (forward + backward + optimizer step, via
  :class:`repro.nn.trainer.Trainer`);
* batched inference (``predict`` / ``predict_classes``); and
* input gradients of a loss (``input_gradient``), which is what the
  gradient-based adversarial attacks consume.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError, NotFittedError, ShapeError
from repro.nn.layers.base import Layer
from repro.nn.losses import CrossEntropyLoss, Loss
from repro.nn.runtime import WorkerSpec, run_sharded, validate_batch_size

#: shared stateless default loss — the gradient-based attacks differentiate
#: through input_gradient thousands of times per sweep; instantiating a
#: fresh CrossEntropyLoss per call was pure garbage-collector churn
_DEFAULT_LOSS = CrossEntropyLoss()


class Sequential:
    """An ordered stack of layers."""

    def __init__(
        self,
        layers: Optional[Sequence[Layer]] = None,
        input_shape: Optional[Tuple[int, ...]] = None,
        name: str = "sequential",
        seed: int = 0,
    ) -> None:
        self.name = name
        self.layers: List[Layer] = list(layers) if layers is not None else []
        self.input_shape: Optional[Tuple[int, ...]] = (
            tuple(input_shape) if input_shape is not None else None
        )
        self._seed = seed
        self._built = False
        if self.input_shape is not None and self.layers:
            self.build(self.input_shape)

    # ---------------------------------------------------------------- build
    def add(self, layer: Layer) -> "Sequential":
        """Append a layer (returns self for chaining)."""
        if self._built:
            raise ConfigurationError("cannot add layers after the model is built")
        self.layers.append(layer)
        return self

    def build(self, input_shape: Tuple[int, ...]) -> None:
        """Build every layer's parameters for the given per-sample input shape."""
        if not self.layers:
            raise ConfigurationError("cannot build a model without layers")
        rng = np.random.default_rng(self._seed)
        shape = tuple(input_shape)
        self.input_shape = shape
        for position, layer in enumerate(self.layers):
            if getattr(layer, "auto_named", False):
                # positional names make state dicts of two builds of the same
                # architecture compatible (weight caching, serialization)
                layer.name = f"{type(layer).__name__.lower()}_{position}"
            layer.build(shape, rng)
            shape = layer.output_shape(shape)
        self.output_shape = shape
        self._built = True

    def _require_built(self) -> None:
        if not self._built:
            raise NotFittedError(
                f"model {self.name!r} is not built; call build(input_shape) first"
            )

    # -------------------------------------------------------------- forward
    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        """Run the full forward pass on a batch."""
        self._require_built()
        out = np.asarray(x, dtype=np.float64)
        for layer in self.layers:
            out = layer.forward(out, training=training)
        return out

    def backward(
        self,
        grad_output: np.ndarray,
        input_grad: bool = True,
        param_grads: bool = True,
    ) -> Optional[np.ndarray]:
        """Back-propagate a gradient through the layers (reverse order).

        ``input_grad``/``param_grads`` name the gradients the caller
        consumes (default: both).  With ``param_grads=False`` no
        ``layer.grads`` entry is written; with ``input_grad=False`` the call
        returns None and the layers below the lowest parameter layer are not
        run.  Every gradient computed is bit-identical to a full backward's.

        Inside the training runtime's workspace scope, each intermediate
        gradient is handed back to the arena's scratch pool as soon as the
        next layer has consumed it (unless the layer passed it through as a
        view, e.g. Flatten/inactive Dropout).  The final input gradient is
        never reclaimed here.
        """
        self._require_built()
        layers = self.layers
        if not input_grad:
            trainable = [i for i, layer in enumerate(layers) if layer.trainable]
            if not (param_grads and trainable):
                return None
            layers = layers[trainable[0] :]
        grad = grad_output
        for depth, layer in enumerate(reversed(layers), start=1):
            if layer.trainable:
                next_grad = layer.backward(
                    grad,
                    input_grad=input_grad or depth < len(layers),
                    param_grads=param_grads,
                )
            else:
                next_grad = layer.backward(grad)
            if next_grad is None or not np.may_share_memory(next_grad, grad):
                layer._reclaim(grad)
            grad = next_grad
        return grad

    def predict(
        self, x: np.ndarray, batch_size: int = 128, workers: WorkerSpec = None
    ) -> np.ndarray:
        """Batched inference returning the final layer output (e.g. logits).

        Runs under :func:`repro.nn.layers.base.no_grad_cache`: backward
        caches (im2col buffers, layer inputs) are neither stored nor kept,
        so memory stays flat regardless of model depth and batch count.  Use
        ``forward``/``input_gradient`` when gradients are needed.

        ``workers`` shards the batches across threads via
        :func:`repro.nn.runtime.run_sharded` (``"auto"`` = one per core;
        the default reads ``REPRO_DEFAULT_WORKERS``, else 1).  The batch
        slicing never depends on the worker count, so outputs are
        bit-identical for every ``workers`` value.
        """
        self._require_built()
        validate_batch_size(batch_size)
        x = np.asarray(x, dtype=np.float64)
        if x.shape[0] == 0:
            return np.zeros((0,) + tuple(self.output_shape), dtype=np.float64)
        return run_sharded(
            lambda batch: self.forward(batch, training=False),
            x,
            batch_size,
            workers=workers,
        )

    def predict_classes(
        self, x: np.ndarray, batch_size: int = 128, workers: WorkerSpec = None
    ) -> np.ndarray:
        """Predicted class labels."""
        return np.argmax(
            self.predict(x, batch_size=batch_size, workers=workers), axis=-1
        )

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x, training=False)

    # ---------------------------------------------------- attack interface
    def input_gradient(
        self,
        x: np.ndarray,
        y: np.ndarray,
        loss: Optional[Loss] = None,
    ) -> np.ndarray:
        """Gradient of ``loss(model(x), y)`` with respect to the input batch.

        This is the primitive used by the gradient-based adversarial attacks
        (FGM / BIM / PGD).  The model is evaluated in inference mode (no
        dropout noise), matching how Foolbox drives a model.  Only the input
        gradient is computed: no parameter gradient is, and every
        ``layer.grads`` array is left untouched.
        """
        self._require_built()
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y)
        loss = loss if loss is not None else _DEFAULT_LOSS
        logits = self.forward(x, training=False)
        grad_logits = loss.gradient(logits, y)
        return self.backward(grad_logits, param_grads=False)

    def loss_and_input_gradient(
        self,
        x: np.ndarray,
        y: np.ndarray,
        loss: Optional[Loss] = None,
    ) -> Tuple[float, np.ndarray]:
        """Return ``(loss value, input gradient)`` in a single pass.

        Uses the loss's fused ``value_and_gradient`` (one shifted-exp pass
        for cross-entropy instead of two), bit-identical to calling
        ``value`` and ``gradient`` separately.  Like :meth:`input_gradient`
        it computes no parameter gradient and leaves ``layer.grads``
        untouched.
        """
        self._require_built()
        x = np.asarray(x, dtype=np.float64)
        loss = loss if loss is not None else _DEFAULT_LOSS
        logits = self.forward(x, training=False)
        value, grad_logits = loss.value_and_gradient(logits, y)
        return value, self.backward(grad_logits, param_grads=False)

    # ------------------------------------------------------------ parameters
    def trainable_layers(self) -> List[Layer]:
        """Layers that own parameters."""
        return [layer for layer in self.layers if layer.trainable]

    def parameter_count(self) -> int:
        """Total number of scalar parameters in the model."""
        return sum(layer.parameter_count() for layer in self.layers)

    def state_dict(self) -> Dict[str, np.ndarray]:
        """Copy of every parameter keyed by ``layer_name/param_name``."""
        self._require_built()
        state = {}
        for layer in self.layers:
            for pname, value in layer.params.items():
                state[f"{layer.name}/{pname}"] = value.copy()
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Load parameters produced by :meth:`state_dict` (shapes must match)."""
        self._require_built()
        for layer in self.layers:
            for pname in layer.params:
                key = f"{layer.name}/{pname}"
                if key not in state:
                    raise ShapeError(f"missing parameter {key!r} in state dict")
                value = np.asarray(state[key], dtype=np.float64)
                if value.shape != layer.params[pname].shape:
                    raise ShapeError(
                        f"parameter {key!r} has shape {value.shape}, expected "
                        f"{layer.params[pname].shape}"
                    )
                layer.params[pname] = value.copy()

    # ------------------------------------------------------------ reporting
    def summary(self) -> str:
        """Human-readable architecture summary."""
        self._require_built()
        lines = [f"Model: {self.name}"]
        shape: Tuple[int, ...] = self.input_shape  # type: ignore[assignment]
        lines.append(f"{'layer':<24} {'output shape':<20} {'params':>10}")
        lines.append("-" * 56)
        for layer in self.layers:
            shape = layer.output_shape(shape)
            lines.append(
                f"{layer.name:<24} {str(shape):<20} {layer.parameter_count():>10}"
            )
        lines.append("-" * 56)
        lines.append(f"total parameters: {self.parameter_count()}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Sequential(name={self.name!r}, layers={len(self.layers)})"
