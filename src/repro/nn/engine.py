"""The deterministic training runtime: flat views and the fused step.

This module makes training, the stage that dominates a cold figure run,
cheaper without ever changing a trained bit:

:class:`FlatParameterView`
    Rebinds every trainable parameter of a model as a view into one
    contiguous float64 vector, with a parallel flat gradient vector.  The
    optimizers' ``step_flat`` then applies one fused elementwise update to
    the whole model instead of a Python loop over layers x parameters —
    elementwise updates are position-independent, so the flat step is
    bit-identical to the per-layer loop.

:func:`fused_training_step`
    The one full-batch training step: forward, the fused single-pass loss
    and gradient, a backward pass that skips the unused input gradient, and
    the flat optimizer step.  Every piece performs the same float64
    operations in the same order as the seed loop (kept as the reference in
    the tests), so trained weights are bit-identical to it.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError


class FlatParameterView:
    """All trainable parameters of a model as one flat float64 vector.

    Construction copies the current parameter values into ``params`` and
    rebinds each ``layer.params[name]`` to a reshaped view of it, so
    in-place updates on the flat vector are immediately visible to every
    forward pass.  ``grads`` is the companion flat gradient vector filled
    by :meth:`pack_grads`.
    """

    def __init__(self, model) -> None:
        self._model = model
        entries: List[Tuple[int, str, int, int, Tuple[int, ...]]] = []
        offset = 0
        for index, layer in enumerate(model.layers):
            if not layer.trainable:
                continue
            for name, array in layer.params.items():
                size = int(array.size)
                entries.append((index, name, offset, size, array.shape))
                offset += size
        if offset == 0:
            raise ConfigurationError(
                f"model {model.name!r} has no trainable parameters"
            )
        self._entries = entries
        self.params = np.empty(offset, dtype=np.float64)
        self.grads = np.zeros(offset, dtype=np.float64)
        self._views: List[np.ndarray] = []
        for index, name, start, size, shape in entries:
            array = model.layers[index].params[name]
            segment = self.params[start : start + size]
            segment[:] = np.asarray(array, dtype=np.float64).ravel()
            view = segment.reshape(shape)
            model.layers[index].params[name] = view
            self._views.append(view)

    @property
    def size(self) -> int:
        return int(self.params.size)

    def is_bound(self, model) -> bool:
        """Whether ``model``'s parameters are still views into this vector.

        ``load_state_dict`` replaces parameter arrays wholesale; a trainer
        checks this before reusing a cached view across ``fit`` calls.
        """
        if model is not self._model:
            return False
        for (index, name, _, _, _), view in zip(self._entries, self._views):
            if model.layers[index].params.get(name) is not view:
                return False
        return True

    def pack_grads(self) -> np.ndarray:
        """Gather ``layer.grads`` into :attr:`grads` in canonical order.

        Every entry must have a gradient — the training step always runs a
        backward pass over the parameter layers first.
        """
        model = self._model
        for index, name, start, size, shape in self._entries:
            grad = model.layers[index].grads.get(name)
            if grad is None:
                raise ConfigurationError(
                    f"layer {model.layers[index].name!r} has no gradient for "
                    f"{name!r}; backward must run before packing"
                )
            np.copyto(self.grads[start : start + size].reshape(shape), grad)
        return self.grads


def _check_positive_int(name: str, value) -> None:
    integer = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if not integer or value < 1:
        raise ConfigurationError(f"{name} must be a positive integer, got {value!r}")


def validate_fit_arguments(x, y, epochs, batch_size) -> Tuple[np.ndarray, np.ndarray]:
    """The argument check both trainers' ``fit`` run first.

    ``epochs`` and ``batch_size`` must be positive integers, and ``x`` and
    ``y`` must hold the same, non-zero number of samples.  Raises
    :class:`ConfigurationError` naming the offending argument; returns
    ``(x, y)`` as float64 samples and int64 labels.
    """
    _check_positive_int("epochs", epochs)
    _check_positive_int("batch_size", batch_size)
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if x.ndim == 0 or y.ndim == 0 or x.shape[0] != y.shape[0]:
        raise ConfigurationError(
            f"x and y must hold the same number of samples, got shapes "
            f"{x.shape} and {y.shape}"
        )
    if x.shape[0] == 0:
        raise ConfigurationError("x and y hold no samples; fit needs at least one")
    return x, y


def ensure_training_engine(
    model, flat: Optional[FlatParameterView]
) -> FlatParameterView:
    """The trainer's flat view of ``model``, rebuilt when it went stale.

    Shared by :class:`repro.nn.trainer.Trainer` and
    :class:`repro.defenses.adversarial_training.AdversarialTrainer`:
    ``load_state_dict`` replaces the parameter arrays wholesale, so a view
    cached across ``fit`` calls is rebuilt unless it still backs ``model``.
    """
    if flat is None or not flat.is_bound(model):
        flat = FlatParameterView(model)
    return flat


def fused_training_step(
    model, loss, optimizer, flat: FlatParameterView, xb, yb
) -> Tuple[float, int]:
    """One full-batch training step; returns (loss value, #correct).

    Bit-identical to the seed step: same forward, fused
    ``value_and_gradient`` (same bits as the unfused pair), the same
    parameter gradients (the unused input gradient is skipped), same
    optimizer arithmetic.  Optimizers that implement the fused flat update
    take it; subclasses that only override ``_update`` (the per-layer
    extension point) fall back to the per-layer ``step`` on the freshly
    written ``layer.grads`` — both routes see identical values.
    """
    logits = model.forward(xb, training=True)
    value, grad = loss.value_and_gradient(logits, yb)
    model.backward(grad, input_grad=False)  # training reads no input grad
    if optimizer.supports_flat_step():
        flat.pack_grads()
        optimizer.step_flat(flat)
    else:
        optimizer.step(model.trainable_layers())
    correct = int(np.sum(np.argmax(logits, axis=-1) == yb))
    return value, correct
