"""Mini-batch training loop on the deterministic training runtime.

The default ``runtime="arena"`` path routes every step through
:mod:`repro.nn.engine`: layer forwards/backwards reuse per-model workspace
buffers, the loss runs as the fused single-pass
:func:`repro.nn.functional.softmax_cross_entropy`, and the optimizer applies
one fused elementwise update to a flat parameter view.  All of it performs
the same float64 operations in the same order as the original loop, so the
trained weights are bit-identical to ``runtime="legacy"`` (the seed loop,
kept as the reference and for benchmarking).

``micro_batch=m`` additionally turns on deterministic data-parallel
gradients: each mini-batch is split into the *canonical* micro-batch
partition (fixed by the batch size alone — never by the worker count),
per-micro-batch gradients are computed on thread replicas that share
parameter storage, and reduced in canonical index order.  The result is
bit-identical for every ``workers`` value; it differs from the full-batch
gradient only by float summation order.  With ``micro_batch=None`` (the
default) the gradient math is exactly the full-batch computation, so
``workers`` never changes trained weights — it only shards validation and
evaluation passes.
"""

from __future__ import annotations

import json
import queue
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.resilience import FaultInjector
from repro.nn.engine import (
    FlatParameterView,
    Workspace,
    ensure_training_engine,
    fused_training_step,
    micro_batch_slices,
    training_replicas,
    validate_data_parallel,
)
from repro.nn.layers.base import workspace_scope
from repro.nn.losses import CrossEntropyLoss, Loss
from repro.nn.metrics import accuracy
from repro.nn.model import Sequential
from repro.nn.optimizers import Optimizer, SGD
from repro.nn.runtime import WorkerSpec, resolve_workers, validate_batch_size

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

    def last(self) -> Dict[str, float]:
        """Metrics of the final epoch."""
        result: Dict[str, float] = {}
        if self.train_loss:
            result["train_loss"] = self.train_loss[-1]
        if self.train_accuracy:
            result["train_accuracy"] = self.train_accuracy[-1]
        if self.validation_accuracy:
            result["validation_accuracy"] = self.validation_accuracy[-1]
        return result


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
        self._arena: Optional[Workspace] = None
        self._flat: Optional[FlatParameterView] = None

    # ------------------------------------------------------------- plumbing
    def _ensure_engine(self) -> FlatParameterView:
        """Bind the workspace arena and (re)build the flat parameter view."""
        self._arena, self._flat = ensure_training_engine(
            self.model, self._arena, self._flat
        )
        return self._flat

    @property
    def workspace(self) -> Optional[Workspace]:
        """The trainer's buffer arena (populated after the first arena fit)."""
        return self._arena

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
        workers: WorkerSpec = None,
        micro_batch: Optional[int] = None,
        runtime: str = "arena",
        on_epoch: Optional[EpochCallback] = None,
        checkpoint=None,
        checkpoint_every: Optional[int] = None,
    ) -> TrainingHistory:
        """Train for ``epochs`` passes over ``(x, y)``; returns the history.

        Parameters beyond the seed loop's:

        workers:
            Shards validation/evaluation predicts and, when ``micro_batch``
            is set, the per-micro-batch gradient computation across threads.
            Never changes trained weights: the gradient partition is
            canonical (worker-count independent) and reduced in canonical
            order, so weights are bit-identical for every value.
        micro_batch:
            Canonical micro-batch size for deterministic data-parallel
            gradients.  ``None`` (default) keeps the exact full-batch
            gradient math of the seed trainer.
        runtime:
            ``"arena"`` (default) — workspace buffers, fused loss, flat
            optimizer step; bit-identical to ``"legacy"``, the original
            allocating loop kept as reference.
        on_epoch:
            Callback invoked after each epoch with ``(epoch, metrics)`` —
            the hook :class:`repro.experiments.session.Session` uses for
            training progress events.
        checkpoint:
            A checkpointer (anything exposing ``every``,
            ``save(epoch, arrays)`` and ``load_latest(max_epoch)`` — see
            :class:`repro.experiments.store.TrainingCheckpointer`).  Epoch
            state — the flat parameter vector, optimizer slots and every
            RNG state — is serialized at the cadence, and an interrupted
            ``fit`` resumes from the latest valid checkpoint with final
            weights byte-identical to an uninterrupted run.
        checkpoint_every:
            Overrides the checkpointer's cadence (epochs between saves).
        """
        if epochs <= 0:
            raise ConfigurationError(f"epochs must be positive, got {epochs}")
        validate_batch_size(batch_size)
        if runtime not in ("arena", "legacy"):
            raise ConfigurationError(
                f"runtime must be 'arena' or 'legacy', got {runtime!r}"
            )
        if checkpoint_every is not None:
            if checkpoint is None:
                raise ConfigurationError(
                    "checkpoint_every requires a checkpointer to write to; "
                    "pass checkpoint= (see TrainingCheckpointer)"
                )
            validate_batch_size(checkpoint_every)
        if checkpoint is not None:
            if runtime != "arena":
                raise ConfigurationError(
                    "checkpointing serializes the flat parameter vector and "
                    "requires the arena runtime"
                )
            if not self.optimizer.supports_flat_step():
                raise ConfigurationError(
                    f"{type(self.optimizer).__name__} does not implement the "
                    f"flat update; its state cannot be checkpointed — train "
                    f"with checkpoint=None"
                )
        checkpoint_cadence = (
            checkpoint_every
            if checkpoint_every is not None
            else getattr(checkpoint, "every", 1)
        )
        if micro_batch is not None:
            if runtime == "legacy":
                raise ConfigurationError(
                    "micro_batch requires the arena runtime"
                )
            validate_batch_size(micro_batch)
            validate_data_parallel(self.model)
            if not getattr(self.loss, "supports_normalizer", False):
                raise ConfigurationError(
                    f"{type(self.loss).__name__} does not support micro-batch "
                    f"normalization; train with micro_batch=None"
                )
            if not self.optimizer.supports_flat_step():
                raise ConfigurationError(
                    f"{type(self.optimizer).__name__} implements only the "
                    f"per-layer update; micro-batch gradients reduce into a "
                    f"flat vector — train with micro_batch=None"
                )
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        if x.shape[0] != y.shape[0]:
            raise ConfigurationError(
                f"x and y must have matching first dimensions, got {x.shape[0]} and "
                f"{y.shape[0]}"
            )
        history = TrainingHistory()
        n_samples = x.shape[0]
        flat = self._ensure_engine() if runtime == "arena" else None
        start_epoch = 0
        if checkpoint is not None:
            start_epoch = self._restore_checkpoint(checkpoint, epochs, flat, history)
        shard_pool = None
        try:
            if micro_batch is not None:
                shard_pool = _MicroBatchPool(self.model, flat, resolve_workers(workers))
            for epoch in range(start_epoch, epochs):
                order = np.arange(n_samples)
                if shuffle:
                    self._rng.shuffle(order)
                epoch_losses = []
                epoch_correct = 0
                for start in range(0, n_samples, batch_size):
                    batch_idx = order[start : start + batch_size]
                    xb, yb = x[batch_idx], y[batch_idx]
                    if runtime == "legacy":
                        batch_loss, correct = self._legacy_step(xb, yb)
                    elif shard_pool is not None:
                        batch_loss, correct = self._micro_batch_step(
                            xb, yb, micro_batch, flat, shard_pool
                        )
                    else:
                        batch_loss, correct = self._arena_step(xb, yb, flat)
                    epoch_losses.append(batch_loss)
                    epoch_correct += correct
                history.train_loss.append(float(np.mean(epoch_losses)))
                history.train_accuracy.append(epoch_correct / n_samples)
                if validation_data is not None:
                    val_x, val_y = validation_data
                    val_acc = self.evaluate(
                        val_x, val_y, batch_size=batch_size, workers=workers
                    )
                    history.validation_accuracy.append(val_acc)
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
        finally:
            if shard_pool is not None:
                shard_pool.shutdown()
            if runtime == "arena":
                # drop buffer bindings so the trained model doesn't pin
                # activation-sized arrays; the arena itself stays cached on
                # the trainer for the next fit
                Workspace.unbind(self.model)
        return history

    # ------------------------------------------------------------ the steps
    def _legacy_step(self, xb: np.ndarray, yb: np.ndarray) -> Tuple[float, int]:
        """The seed training step: allocating ops, per-layer optimizer loop."""
        logits = self.model.forward(xb, training=True)
        batch_loss = self.loss.value(logits, yb)
        grad = self.loss.gradient(logits, yb)
        self.model.backward(grad)
        self.optimizer.step(self.model.trainable_layers())
        correct = int(np.sum(np.argmax(logits, axis=-1) == yb))
        return batch_loss, correct

    def _arena_step(
        self, xb: np.ndarray, yb: np.ndarray, flat: FlatParameterView
    ) -> Tuple[float, int]:
        """One full-batch step on the arena runtime (bit-identical to legacy)."""
        return fused_training_step(
            self.model, self.loss, self.optimizer, flat, xb, yb
        )

    def _micro_batch_step(
        self,
        xb: np.ndarray,
        yb: np.ndarray,
        micro_batch: int,
        flat: FlatParameterView,
        shard_pool: "_MicroBatchPool",
    ) -> Tuple[float, int]:
        """One data-parallel step over the canonical micro-batch partition.

        Gradients are normalised by the full mini-batch size and reduced in
        canonical index order, so the step is invariant to the worker count
        (and equals the full-batch gradient up to float summation order).
        """
        slices = micro_batch_slices(xb.shape[0], micro_batch)
        parts = shard_pool.run(xb, yb, slices, self.loss)
        batch_loss = 0.0
        correct = 0
        for value, n_correct in parts:
            batch_loss += value
            correct += n_correct
        grad_stack = shard_pool.grad_stack(len(slices), flat.size)
        np.sum(grad_stack[: len(slices)], axis=0, out=flat.grads)
        self.optimizer.step_flat(flat)
        return batch_loss, correct

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
    def evaluate(
        self,
        x: np.ndarray,
        y: np.ndarray,
        batch_size: int = 128,
        workers: WorkerSpec = None,
    ) -> float:
        """Accuracy of the model on ``(x, y)``.

        ``workers`` shards the prediction batches across threads (see
        :func:`repro.nn.runtime.run_sharded`); results are bit-identical
        for every worker count.
        """
        predictions = self.model.predict_classes(
            x, batch_size=batch_size, workers=workers
        )
        return accuracy(predictions, np.asarray(y, dtype=np.int64))


class _MicroBatchPool:
    """Thread replicas + executor for one data-parallel ``fit`` call.

    Each worker thread checks a replica out of a queue, runs the
    forward/loss/backward of one micro-batch inside its own
    :func:`workspace_scope`, packs the replica's gradients into the
    micro-batch's row of a shared stack, and returns the replica.  Which
    thread computes which micro-batch never matters: replicas share the
    parameter storage and the packing row is fixed by the micro-batch
    index, so the reduction input is identical for every worker count.
    """

    def __init__(self, model, flat: FlatParameterView, workers: int) -> None:
        self._flat = flat
        self._workers = max(1, workers)
        self._stack: Optional[np.ndarray] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._replicas: "queue.SimpleQueue" = queue.SimpleQueue()
        if self._workers == 1:
            # serial: compute on the model itself (its arena is already bound)
            self._model = model
        else:
            self._model = None
            for replica in training_replicas(model, self._workers):
                Workspace().bind(replica)
                self._replicas.put(replica)
            self._executor = ThreadPoolExecutor(
                max_workers=self._workers, thread_name_prefix="repro-train"
            )

    def grad_stack(self, rows: int, size: int) -> np.ndarray:
        if self._stack is None or self._stack.shape[0] < rows:
            self._stack = np.empty((rows, size), dtype=np.float64)
        return self._stack

    def run(
        self, xb: np.ndarray, yb: np.ndarray, slices, loss: Loss
    ) -> List[Tuple[float, int]]:
        """Per-micro-batch (loss contribution, correct count), in order."""
        total = int(xb.shape[0])
        stack = self.grad_stack(len(slices), self._flat.size)

        def run_micro(index: int) -> Tuple[float, int]:
            micro = slices[index]
            replica = self._model if self._model is not None else self._replicas.get()
            try:
                with workspace_scope():
                    logits = replica.forward(xb[micro], training=True)
                    value, grad = loss.value_and_gradient(
                        logits, yb[micro], normalizer=total
                    )
                    replica.backward(grad, input_grad=False)
                self._flat.pack_grads(model=replica, out=stack[index])
                correct = int(np.sum(np.argmax(logits, axis=-1) == yb[micro]))
                return value, correct
            finally:
                if self._model is None:
                    self._replicas.put(replica)

        indices = range(len(slices))
        if self._executor is None or len(slices) == 1:
            return [run_micro(i) for i in indices]
        return list(self._executor.map(run_micro, indices))

    def shutdown(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
