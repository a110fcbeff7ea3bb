"""The deterministic training runtime: arenas, flat views, micro-batching.

PRs 1-4 made inference, attack crafting and re-runs fast; this module makes
the remaining cold-path cost — training — allocation-free and data-parallel
without ever changing a trained bit:

:class:`Workspace`
    A per-model buffer arena.  Layers route activation-sized allocations of
    their forward/backward passes through :meth:`repro.nn.layers.base.Layer.
    _buffer`, which resolves to a reusable workspace buffer inside a
    :func:`repro.nn.layers.base.workspace_scope` block.  Buffers are keyed
    by (layer, slot, shape, dtype), so steady-state training touches the
    heap only on the first occurrence of each shape (one full batch and one
    remainder batch per epoch schedule).  Every buffered operation performs
    the same float64 arithmetic in the same order as its allocating
    spelling, so arena training is bit-identical to the legacy loop.

:class:`FlatParameterView`
    Rebinds every trainable parameter of a model as a view into one
    contiguous float64 vector, with a parallel flat gradient vector.  The
    optimizers' ``step_flat`` then applies one fused elementwise update to
    the whole model instead of a Python loop over layers x parameters —
    elementwise updates are position-independent, so the flat step is
    bit-identical to the per-layer loop.

micro-batching (:func:`micro_batch_slices`, :func:`training_replicas`)
    The canonical micro-batch partition of a mini-batch is fixed by
    ``(batch size, micro_batch)`` alone — never by the worker count — and
    per-micro-batch gradients are reduced in canonical index order, so
    trained weights are bit-identical for every ``workers`` value.  Worker
    threads run on shallow model replicas that share the parameter storage
    (reads during the step, updated in place by the optimizer afterwards)
    but own private cache slots, grads and workspaces — the same
    snapshot-isolation idea as the PR 3 attack runtime, without any
    serialization because threads share memory.
"""

from __future__ import annotations

from copy import copy as _shallow_copy
from typing import Dict, Hashable, List, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.nn.layers.base import Layer, workspace_scope


class Workspace:
    """A keyed arena of reusable ndarray buffers.

    ``get`` returns an *uninitialised* buffer — callers overwrite every
    element (or zero it explicitly).  Buffers are keyed by
    ``(owner key, shape, dtype)``, so a workload alternating between a full
    batch and a remainder batch keeps both buffers resident instead of
    reallocating twice per epoch.
    """

    def __init__(self) -> None:
        self._buffers: Dict[Tuple[Hashable, Tuple[int, ...], np.dtype], np.ndarray] = {}
        #: externally owned flat segments served for specific keys (see
        #: FlatParameterView.bind_gradient_sinks)
        self._sinks: Dict[Hashable, np.ndarray] = {}
        #: free scratch slabs (raw uint8), reused best-fit by byte size
        self._free: List[np.ndarray] = []
        #: registry of every scratch slab ever handed out, by id — holds a
        #: strong reference, so ids stay unique for the workspace's lifetime
        self._scratch_registry: Dict[int, np.ndarray] = {}
        #: buffers served from the arena / created on first use
        self.hits = 0
        self.allocations = 0

    def get(self, key: Hashable, shape: Tuple[int, ...], dtype=np.float64) -> np.ndarray:
        shape = tuple(int(dim) for dim in shape)
        sink = self._sinks.get(key)
        if sink is not None:
            if sink.dtype == np.dtype(dtype) and sink.size == int(
                np.prod(shape, dtype=np.int64)
            ):
                self.hits += 1
                return sink.reshape(shape)
        full_key = (key, shape, np.dtype(dtype))
        buf = self._buffers.get(full_key)
        if buf is None:
            self.allocations += 1
            buf = np.empty(shape, dtype=dtype)
            self._buffers[full_key] = buf
        else:
            self.hits += 1
        return buf

    def set_sink(self, key: Hashable, flat: np.ndarray) -> None:
        """Serve ``flat`` (reshaped) for every :meth:`get` of ``key``.

        Used to alias a layer's gradient buffer to its segment of a flat
        gradient vector, so backward passes write gradients in their final
        resting place.  The requested shape only needs to match in size —
        layers may ask for flattened spellings of the same parameter.
        """
        self._sinks[key] = flat

    def scratch(self, shape: Tuple[int, ...], dtype=np.float64) -> np.ndarray:
        """A transient buffer from the size-keyed free pool.

        For short-lived arrays with stack-like lifetimes — the backward
        gradient chain, pooling window stacks — a dedicated per-layer slot
        (:meth:`get`) would pin one buffer per layer and blow the cache
        footprint far past what malloc's address reuse achieves.  The
        scratch pool mirrors malloc instead: raw byte slabs are handed back
        via :meth:`reclaim` the moment their last reader is done and reused
        best-fit for the next request of *any* shape — the same address
        recycling as the allocator, without the syscalls, page faults or
        per-call bookkeeping.  A slab is never handed out while live, and
        every buffer is fully written before it is read, so values are
        unaffected — only addresses.
        """
        shape = tuple(int(dim) for dim in shape)
        dtype = np.dtype(dtype)
        need = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        best = -1
        for index, slab in enumerate(self._free):
            if slab.nbytes >= need and (
                best < 0 or slab.nbytes < self._free[best].nbytes
            ):
                best = index
        if best >= 0:
            slab = self._free.pop(best)
            self.hits += 1
        else:
            self.allocations += 1
            slab = np.empty(max(need, 1), dtype=np.uint8)
            self._scratch_registry[id(slab)] = slab
        return slab[:need].view(dtype).reshape(shape)

    def reclaim(self, array: Optional[np.ndarray]) -> None:
        """Return a scratch buffer (or any view into one) to the free pool.

        Arrays that did not come from :meth:`scratch` — layer inputs, keyed
        buffers, externally allocated gradients — are ignored, so callers
        can reclaim unconditionally.
        """
        if array is None:
            return
        base = array
        while base.base is not None:
            base = base.base
        registered = self._scratch_registry.get(id(base))
        if registered is not base:
            return
        if any(entry is base for entry in self._free):  # double-reclaim guard
            return
        self._free.append(base)

    @property
    def nbytes(self) -> int:
        """Total bytes currently held by the arena (keyed + scratch)."""
        return int(
            sum(buf.nbytes for buf in self._buffers.values())
            + sum(buf.nbytes for buf in self._scratch_registry.values())
        )

    def bind(self, model) -> None:
        """Attach this arena to every layer of ``model``.

        Binding alone changes nothing: layers only consult the workspace
        inside a :func:`repro.nn.layers.base.workspace_scope` block.
        """
        for layer in model.layers:
            layer._workspace = self

    @staticmethod
    def unbind(model) -> None:
        """Detach any arena from ``model``'s layers (buffers stay cached here)."""
        for layer in model.layers:
            layer._workspace = None

    def release(self) -> None:
        """Drop every cached buffer, gradient sink and scratch slab."""
        self._buffers.clear()
        self._sinks.clear()
        self._free.clear()
        self._scratch_registry.clear()


class FlatParameterView:
    """All trainable parameters of a model as one flat float64 vector.

    Construction copies the current parameter values into ``params`` and
    rebinds each ``layer.params[name]`` to a reshaped view of it, so
    in-place updates on the flat vector are immediately visible to every
    forward pass (including thread replicas, which share the same parameter
    dict objects).  ``grads`` is the companion flat gradient vector filled
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

    def bind_gradient_sinks(self, workspace: "Workspace") -> None:
        """Point each layer's gradient buffer at its flat-vector segment.

        Layers request their weight/bias gradient buffers from the
        workspace under the key ``f"{param}_grad"``; registering those keys
        as sinks into :attr:`grads` makes the backward pass write gradients
        *directly* into the flat vector — the subsequent :meth:`pack_grads`
        skips them (same-memory check), so the fused optimizer step reads
        gradients that were never copied.
        """
        for index, name, start, size, shape in self._entries:
            layer = self._model.layers[index]
            workspace.set_sink(
                (id(layer), f"{name}_grad"), self.grads[start : start + size]
            )

    def pack_grads(self, model=None, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Gather ``layer.grads`` into a flat vector in canonical order.

        ``model`` defaults to the view's own model; a thread replica with
        the same layer structure may be passed instead.  ``out`` defaults
        to :attr:`grads`.  Every entry must have a gradient — the training
        step always runs a full backward pass first.  Gradients that
        already live in their ``out`` segment (see
        :meth:`bind_gradient_sinks`) are left in place.
        """
        model = model if model is not None else self._model
        out = out if out is not None else self.grads
        for index, name, start, size, shape in self._entries:
            grad = model.layers[index].grads.get(name)
            if grad is None:
                raise ConfigurationError(
                    f"layer {model.layers[index].name!r} has no gradient for "
                    f"{name!r}; backward must run before packing"
                )
            root = grad
            while root.base is not None:
                root = root.base
            if root is out:
                continue  # already accumulated in place via a gradient sink
            np.copyto(out[start : start + size].reshape(shape), grad)
        return out


def ensure_training_engine(model, arena: Optional[Workspace], flat):
    """Lazily create/rebind the (arena, flat view) pair of one trainer.

    Shared by :class:`repro.nn.trainer.Trainer` and
    :class:`repro.defenses.adversarial_training.AdversarialTrainer` so the
    binding invariants (rebuild the flat view when ``load_state_dict``
    replaced the parameter arrays, route gradient sinks into the arena)
    live in exactly one place.  Returns the pair to store back.
    """
    if arena is None:
        arena = Workspace()
    arena.bind(model)
    if flat is None or not flat.is_bound(model):
        flat = FlatParameterView(model)
        flat.bind_gradient_sinks(arena)
    return arena, flat


def fused_training_step(
    model, loss, optimizer, flat: FlatParameterView, xb, yb
) -> Tuple[float, int]:
    """One full-batch arena training step; returns (loss value, #correct).

    Bit-identical to the legacy step: same forward, fused
    ``value_and_gradient`` (same bits as the unfused pair), the same
    parameter gradients (the unused input gradient is skipped), same
    optimizer arithmetic.  The model's workspace arena must already be
    bound (see :func:`ensure_training_engine`).  Optimizers that implement
    the fused flat update take it; subclasses that only override
    ``_update`` (the pre-arena extension point) fall back to the per-layer
    ``step`` — their ``layer.grads`` already hold the freshly written
    gradients (via the arena's gradient sinks or plain buffers), so both
    routes see identical values.
    """
    with workspace_scope():
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


def micro_batch_slices(n_samples: int, micro_batch: int) -> List[slice]:
    """The canonical micro-batch partition of a mini-batch.

    Depends only on ``(n_samples, micro_batch)`` — never on the worker
    count — which is what makes data-parallel gradients bit-identical for
    every ``workers`` value.  Delegates to the parallel runtime's
    :func:`repro.nn.runtime.batch_slices` (the same canonical slicing the
    sharded predict path uses, including its strict size validation).
    """
    from repro.nn.runtime import batch_slices

    return batch_slices(n_samples, micro_batch)


def validate_data_parallel(model) -> None:
    """Refuse micro-batching for models whose training step couples samples.

    BatchNorm computes batch statistics (per-micro-batch statistics would
    change the trained function) and active Dropout draws from mutable
    per-layer RNG state (draw order would depend on scheduling); both are
    rejected with a clear error instead of silently training differently.
    """
    offenders = [
        f"{layer.name} ({type(layer).__name__})"
        for layer in model.layers
        if not layer.data_parallel_safe()
    ]
    if offenders:
        raise ConfigurationError(
            "micro-batched data-parallel training requires per-sample layer "
            f"semantics; offending layers: {', '.join(offenders)}. Train "
            "with micro_batch=None (the default), or use dropout rate 0 / "
            "no BatchNorm."
        )


def _replicate_layer(layer: Layer) -> Layer:
    """A shallow training replica of one layer.

    The replica shares the *parameter dict object* (so flat-view rebinding
    and in-place optimizer updates are visible without copies) but owns its
    grads dict and transient cache slots, making concurrent forward/backward
    passes on different replicas independent.
    """
    clone = _shallow_copy(layer)
    clone.params = layer.params
    clone.grads = {}
    clone._workspace = None
    for attr in layer._transient_attrs:
        if hasattr(clone, attr):
            setattr(clone, attr, None)
    return clone


def training_replicas(model, count: int) -> List:
    """Thread replicas of a built model for data-parallel gradient shards."""
    replicas = []
    for _ in range(count):
        replica = _shallow_copy(model)
        replica.layers = [_replicate_layer(layer) for layer in model.layers]
        replicas.append(replica)
    return replicas
