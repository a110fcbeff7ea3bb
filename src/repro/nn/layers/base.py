"""Layer interface for the NumPy DNN framework.

Each layer implements ``forward`` and ``backward``; trainable layers expose
their parameters and the gradients computed during the last backward pass
through the ``params`` and ``grads`` dictionaries.  Layers cache whatever
they need from the forward pass to compute the backward pass, so a backward
call must always follow the forward call whose inputs it differentiates.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Dict, Iterator, Optional, Tuple

import numpy as np

from repro.errors import ShapeError

#: per-thread grad-cache state (see no_grad_cache).  The flag is
#: thread-local so concurrent no_grad_cache contexts in different threads
#: cannot corrupt each other via interleaved save/restore of a shared flag.
#: Note the flag is the only per-thread piece: the caches themselves are
#: shared layer attributes, so gradient work and a sharded predict must not
#: run concurrently on the same model instance (shards clear the backward
#: caches as they traverse the layers).
_GRAD_CACHE_STATE = threading.local()

#: per-thread workspace-arena state (see workspace_scope).  Workspace
#: buffers are reused across mini-batches and are therefore only safe for
#: the single-threaded training step that owns them; the flag scopes their
#: use to exactly that step, so sharded predicts and attack crafting on a
#: workspace-bound model keep allocating fresh arrays as before.
_WORKSPACE_STATE = threading.local()


def workspace_enabled() -> bool:
    """Whether layer forwards/backwards may write into workspace buffers.

    False by default: binding a :class:`repro.nn.engine.Workspace` to a
    model has no effect outside a :func:`workspace_scope` block, so any
    other code path (sharded ``predict``, adversarial crafting between
    training steps) sees the allocation behaviour it always had.
    """
    return getattr(_WORKSPACE_STATE, "enabled", False)


@contextmanager
def workspace_scope() -> Iterator[None]:
    """Context manager enabling workspace-arena buffers on the calling thread.

    The training runtime wraps each forward/loss/backward step in this
    scope; every shard worker of a data-parallel step enters it on its own
    thread (the flag is thread-local, and each replica owns a private
    workspace, so shards never contend on buffers).
    """
    previous = workspace_enabled()
    _WORKSPACE_STATE.enabled = True
    try:
        yield
    finally:
        _WORKSPACE_STATE.enabled = previous


def grad_cache_enabled() -> bool:
    """Whether evaluation-mode forwards should keep backward caches.

    Adversarial attacks differentiate the loss through an inference-mode
    forward pass, so caches are kept by default even when ``training`` is
    False.  Pure-inference paths (batched ``predict``) disable them via
    :func:`no_grad_cache` so im2col buffers are not pinned per layer.  The
    state is per-thread: entering :func:`no_grad_cache` affects only the
    calling thread's forward passes.
    """
    return getattr(_GRAD_CACHE_STATE, "enabled", True)


@contextmanager
def no_grad_cache() -> Iterator[None]:
    """Context manager marking a forward pass as pure inference.

    Inside the context, layers neither store nor keep forward-pass caches
    (a following ``backward`` call will fail); previously pinned buffers are
    released as layers are traversed.  The context is thread-local: worker
    threads must enter it themselves (the parallel runtime does so per
    shard) and concurrent contexts in different threads cannot corrupt one
    another's state.
    """
    previous = grad_cache_enabled()
    _GRAD_CACHE_STATE.enabled = False
    try:
        yield
    finally:
        _GRAD_CACHE_STATE.enabled = previous


class Layer:
    """Base class for all layers."""

    #: counter used to derive unique default names per subclass
    _instance_counts: Dict[str, int] = {}

    #: names of instance attributes holding transient forward-pass caches
    #: (im2col buffers, activation masks, input shapes).  Subclasses declare
    #: theirs so that pickling a layer — e.g. shipping a model snapshot to a
    #: spawn-started attack worker — carries parameters, never the last
    #: batch's activations.  Each starts as None, which is also what a
    #: forward under :func:`no_grad_cache` leaves behind.
    _transient_attrs: Tuple[str, ...] = ()

    def __init__(self, name: Optional[str] = None) -> None:
        #: True when the layer was not given an explicit name; Sequential
        #: renames auto-named layers positionally at build time so that two
        #: builds of the same architecture produce identical state dicts.
        self.auto_named = name is None
        if name is None:
            cls = type(self).__name__.lower()
            count = Layer._instance_counts.get(cls, 0) + 1
            Layer._instance_counts[cls] = count
            name = f"{cls}_{count}"
        self.name = name
        self.params: Dict[str, np.ndarray] = {}
        self.grads: Dict[str, np.ndarray] = {}
        self.built = False
        #: workspace arena bound by the training runtime (None = allocate)
        self._workspace = None
        for attr in self._transient_attrs:
            setattr(self, attr, None)

    # ------------------------------------------------------------------ API
    def build(self, input_shape: Tuple[int, ...], rng: np.random.Generator) -> None:
        """Create parameters for a given input shape (excluding batch dim)."""
        self.built = True

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        """Shape (excluding batch dim) produced for a given input shape."""
        return input_shape

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        """Compute the layer output."""
        raise NotImplementedError

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Propagate gradients; fills ``self.grads`` and returns grad wrt input.

        Layers with parameters also take ``input_grad``/``param_grads``
        keywords (default True) and skip what is False: ``self.grads`` stays
        untouched, or None is returned (see ``Sequential.backward``).
        """
        raise NotImplementedError

    def _keep_grad_cache(self, training: bool) -> bool:
        """Whether this forward pass should retain backward caches.

        True during training and during default inference (adversarial
        attacks differentiate through inference-mode forwards); False inside
        :func:`no_grad_cache`, where layers must not pin activation-sized
        buffers.
        """
        return training or grad_cache_enabled()

    def _require_cache(self, cache):
        """``cache`` as stored by the last forward; raises if there is none.

        A backward needs the caches of a forward that kept them; on a fresh
        layer, or after a :func:`no_grad_cache` forward, they are None.
        """
        if cache is None:
            raise ShapeError(
                f"{self.name}: backward called without a training forward pass"
            )
        return cache

    def _buffer(self, key: str, shape: Tuple[int, ...], dtype=np.float64) -> np.ndarray:
        """A reusable workspace buffer, or a fresh array outside the arena.

        Layers route every activation-sized allocation of their forward and
        backward passes through this hook.  With no workspace bound — or
        outside a :func:`workspace_scope` block — it is exactly ``np.empty``,
        so inference and attack paths are unchanged.  Inside the training
        runtime it returns a per-layer buffer that is reused across
        mini-batches, which is what makes steady-state training allocation
        free.  The buffer is uninitialised either way: callers fully
        overwrite it (and zero it themselves when they need zeros).
        """
        workspace = self._workspace
        if workspace is None or not workspace_enabled():
            return np.empty(shape, dtype=dtype)
        return workspace.get((id(self), key), shape, dtype)

    def _scratch(self, shape: Tuple[int, ...], dtype=np.float64) -> np.ndarray:
        """A transient pooled buffer for stack-lifetime arrays.

        Used for arrays that die as soon as their single consumer has read
        them — the backward gradient chain, pooling window stacks.  Pooled
        (instead of per-layer keyed) buffers keep the arena's cache
        footprint as small as malloc's address reuse would; the producer or
        consumer hands them back via :meth:`_reclaim`.  Outside the arena
        this is plain allocation, exactly like :meth:`_buffer`.
        """
        workspace = self._workspace
        if workspace is None or not workspace_enabled():
            return np.empty(shape, dtype=dtype)
        return workspace.scratch(shape, dtype)

    def _reclaim(self, array: Optional[np.ndarray]) -> None:
        """Return a :meth:`_scratch` buffer to the pool (no-op otherwise)."""
        workspace = self._workspace
        if workspace is not None and workspace_enabled():
            workspace.reclaim(array)

    def data_parallel_safe(self) -> bool:
        """Whether per-micro-batch gradients equal this layer's batch semantics.

        Layers whose training-mode forward couples samples across the batch
        (BatchNorm statistics) or draws from mutable per-layer RNG state
        (active Dropout) return False; the data-parallel trainer refuses to
        micro-batch models containing them.
        """
        return True

    # ----------------------------------------------------------- utilities
    def __getstate__(self) -> Dict[str, object]:
        """Pickle without transient forward-pass caches.

        A pickled layer is a snapshot of its configuration and parameters; a
        following ``backward`` on the unpickled copy requires a fresh forward
        pass, exactly as after :func:`no_grad_cache` inference.  Workspace
        bindings never travel either: an unpickled layer allocates until a
        trainer binds an arena of its own.
        """
        state = self.__dict__.copy()
        state["_workspace"] = None
        for attr in self._transient_attrs:
            if attr in state:
                state[attr] = None
        return state

    @property
    def trainable(self) -> bool:
        """True when the layer owns parameters."""
        return bool(self.params)

    def parameter_count(self) -> int:
        """Total number of scalar parameters."""
        return int(sum(p.size for p in self.params.values()))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"

    @classmethod
    def reset_name_counters(cls) -> None:
        """Reset the automatic name counters (used by tests for determinism)."""
        cls._instance_counts.clear()
