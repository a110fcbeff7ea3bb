"""Mini-batch training loop on the deterministic training runtime.

Every step runs through :mod:`repro.nn.engine`: the loss runs as the fused
single-pass :func:`repro.nn.functional.softmax_cross_entropy`, the backward
pass skips the input gradient nobody reads, and the optimizer applies one
fused elementwise update to a flat parameter view.  All of it performs the
same float64 operations in the same order as the seed loop (kept in the
tests as the reference), so the trained weights are bit-identical to it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.resilience import FaultInjector
from repro.nn.engine import (
    FlatParameterView,
    ensure_training_engine,
    fused_training_step,
    validate_fit_arguments,
)
from repro.nn.losses import CrossEntropyLoss, Loss
from repro.nn.metrics import accuracy
from repro.nn.model import Sequential
from repro.nn.optimizers import Optimizer, SGD

#: called after every epoch with (1-based epoch index, metrics of the epoch)
EpochCallback = Callable[[int, Dict[str, float]], None]

#: npz keys of the serialized epoch state (see Trainer.capture_state)
_CKPT_PARAMS = "flat_params"
_CKPT_EPOCH = "epoch"
_CKPT_RNG = "rng_state"
_CKPT_OPT_PREFIX = "opt__"
_CKPT_LAYER_RNG_PREFIX = "layer_rng__"
_CKPT_HISTORY = {
    "history_train_loss": "train_loss",
    "history_train_accuracy": "train_accuracy",
    "history_validation_accuracy": "validation_accuracy",
}


@dataclass
class TrainingHistory:
    """Per-epoch record of losses and accuracies."""

    train_loss: List[float] = field(default_factory=list)
    train_accuracy: List[float] = field(default_factory=list)
    validation_accuracy: List[float] = field(default_factory=list)


class Trainer:
    """Trains a :class:`repro.nn.model.Sequential` model with mini-batch SGD."""

    def __init__(
        self,
        model: Sequential,
        loss: Optional[Loss] = None,
        optimizer: Optional[Optimizer] = None,
        seed: int = 0,
    ) -> None:
        self.model = model
        self.loss = loss if loss is not None else CrossEntropyLoss()
        self.optimizer = optimizer if optimizer is not None else SGD(0.01, momentum=0.9)
        self._rng = np.random.default_rng(seed)
        self._flat: Optional[FlatParameterView] = None

    # ------------------------------------------------------------- plumbing
    def _ensure_engine(self) -> FlatParameterView:
        """(Re)build the flat parameter view of the model."""
        self._flat = ensure_training_engine(self.model, self._flat)
        return self._flat

    # ------------------------------------------------------------------ fit
    def fit(
        self,
        x: np.ndarray,
        y: np.ndarray,
        epochs: int = 5,
        batch_size: int = 64,
        validation_data: Optional[Tuple[np.ndarray, np.ndarray]] = None,
        shuffle: bool = True,
        verbose: bool = False,
        on_epoch: Optional[EpochCallback] = None,
        checkpoint=None,
    ) -> TrainingHistory:
        """Train for ``epochs`` passes over ``(x, y)``; returns the history.

        Parameters beyond the seed loop's:

        on_epoch:
            Callback invoked after each epoch with ``(epoch, metrics)`` —
            the hook :class:`repro.experiments.session.Session` uses for
            training progress events.
        checkpoint:
            A checkpointer (anything exposing ``every``,
            ``save(epoch, arrays)`` and ``load_latest(max_epoch)`` — see
            :class:`repro.experiments.store.TrainingCheckpointer`).  Epoch
            state — the flat parameter vector, optimizer slots and every
            RNG state — is serialized every ``checkpoint.every`` epochs,
            and an interrupted ``fit`` resumes from the latest valid
            checkpoint with final weights byte-identical to an
            uninterrupted run.
        """
        x, y = validate_fit_arguments(x, y, epochs, batch_size)
        if checkpoint is not None and not self.optimizer.supports_flat_step():
            raise ConfigurationError(
                f"{type(self.optimizer).__name__} does not implement the "
                f"flat update; its state cannot be checkpointed — train "
                f"with checkpoint=None"
            )
        checkpoint_cadence = getattr(checkpoint, "every", 1)
        history = TrainingHistory()
        n_samples = x.shape[0]
        flat = self._ensure_engine()
        start_epoch = 0
        if checkpoint is not None:
            start_epoch = self._restore_checkpoint(checkpoint, epochs, flat, history)
        for epoch in range(start_epoch, epochs):
            order = np.arange(n_samples)
            if shuffle:
                self._rng.shuffle(order)
            epoch_losses = []
            epoch_correct = 0
            for start in range(0, n_samples, batch_size):
                batch_idx = order[start : start + batch_size]
                batch_loss, correct = fused_training_step(
                    self.model, self.loss, self.optimizer, flat,
                    x[batch_idx], y[batch_idx],
                )
                epoch_losses.append(batch_loss)
                epoch_correct += correct
            history.train_loss.append(float(np.mean(epoch_losses)))
            history.train_accuracy.append(epoch_correct / n_samples)
            if validation_data is not None:
                val_x, val_y = validation_data
                history.validation_accuracy.append(
                    self.evaluate(val_x, val_y, batch_size=batch_size)
                )
            if on_epoch is not None:
                metrics = {
                    "train_loss": history.train_loss[-1],
                    "train_accuracy": history.train_accuracy[-1],
                }
                if validation_data is not None:
                    metrics["validation_accuracy"] = history.validation_accuracy[-1]
                on_epoch(epoch + 1, metrics)
            if checkpoint is not None and (
                (epoch + 1) % checkpoint_cadence == 0 or epoch + 1 == epochs
            ):
                checkpoint.save(epoch + 1, self.capture_state(epoch + 1, history))
            # chaos seam: a scripted plan interrupts training here — after
            # the epoch's checkpoint, exactly where a real crash would land
            FaultInjector.consult("trainer.epoch")
            if verbose:  # pragma: no cover - console output
                message = (
                    f"epoch {epoch + 1}/{epochs}: loss={history.train_loss[-1]:.4f} "
                    f"train_acc={history.train_accuracy[-1]:.4f}"
                )
                if validation_data is not None:
                    message += f" val_acc={history.validation_accuracy[-1]:.4f}"
                print(message)
        return history

    # ----------------------------------------------------------- checkpoints
    def capture_state(self, epoch: int, history: TrainingHistory) -> Dict[str, np.ndarray]:
        """Serialize the complete epoch state as named arrays.

        Covers everything the next epoch depends on: the flat parameter
        vector, the optimizer's flat slots (momentum/moments/step count),
        the shuffle RNG, every layer's private RNG (Dropout draws a mask per
        batch), and the history so far.  Restoring this state and continuing
        performs the exact float64 operations of an uninterrupted run —
        resumed weights are byte-identical.
        """
        flat = self._ensure_engine()
        arrays: Dict[str, np.ndarray] = {
            _CKPT_PARAMS: flat.params.copy(),
            _CKPT_EPOCH: np.int64(epoch),
            _CKPT_RNG: np.asarray(json.dumps(self._rng.bit_generator.state)),
        }
        for name, value in self.optimizer.state_flat().items():
            arrays[f"{_CKPT_OPT_PREFIX}{name}"] = value
        for index, layer in enumerate(self.model.layers):
            rng = getattr(layer, "_rng", None)
            if isinstance(rng, np.random.Generator):
                arrays[f"{_CKPT_LAYER_RNG_PREFIX}{index}"] = np.asarray(
                    json.dumps(rng.bit_generator.state)
                )
        for key, attr in _CKPT_HISTORY.items():
            arrays[key] = np.asarray(getattr(history, attr), dtype=np.float64)
        return arrays

    def _restore_checkpoint(self, checkpoint, epochs, flat, history) -> int:
        """Resume from the checkpointer's latest valid state; returns the epoch.

        An unusable checkpoint (wrong parameter count — the architecture
        changed under the digest, which content hashing makes impossible in
        practice — or missing keys) is ignored and training starts fresh:
        resume is an optimization, never a correctness risk.
        """
        loaded = checkpoint.load_latest(epochs)
        if loaded is None:
            return 0
        epoch, arrays = loaded
        # parse everything before mutating anything: a checkpoint this build
        # cannot read is a miss, and a half-applied restore must never
        # corrupt the fresh-start state it falls back to
        try:
            params = np.asarray(arrays[_CKPT_PARAMS], dtype=np.float64)
            if int(params.size) != flat.size:
                raise ValueError(
                    f"checkpoint holds {int(params.size)} parameters, model "
                    f"has {flat.size}"
                )
            opt_state = {
                key[len(_CKPT_OPT_PREFIX):]: value
                for key, value in arrays.items()
                if key.startswith(_CKPT_OPT_PREFIX)
            }
            rng_state = json.loads(str(arrays[_CKPT_RNG]))
            layer_rngs = {}
            for index, layer in enumerate(self.model.layers):
                key = f"{_CKPT_LAYER_RNG_PREFIX}{index}"
                rng = getattr(layer, "_rng", None)
                if key in arrays and isinstance(rng, np.random.Generator):
                    layer_rngs[index] = json.loads(str(arrays[key]))
        except (KeyError, ValueError, TypeError):
            return 0
        flat.params[:] = params
        self.optimizer.load_state_flat(opt_state)
        self._rng.bit_generator.state = rng_state
        for index, state in layer_rngs.items():
            self.model.layers[index]._rng.bit_generator.state = state
        for key, attr in _CKPT_HISTORY.items():
            values = arrays.get(key)
            if values is not None:
                getattr(history, attr).extend(float(v) for v in np.atleast_1d(values))
        return int(epoch)

    # ------------------------------------------------------------- evaluate
    def evaluate(self, x: np.ndarray, y: np.ndarray, batch_size: int = 128) -> float:
        """Accuracy of the model on ``(x, y)``."""
        predictions = self.model.predict_classes(x, batch_size=batch_size)
        return accuracy(predictions, np.asarray(y, dtype=np.int64))
