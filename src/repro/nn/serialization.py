"""Spawn-safe model snapshots.

:func:`dumps_model` / :func:`loads_model` snapshot a *whole built model*
(architecture + parameters) to bytes for shipping to spawn-started worker
processes — the transport the process-sharded attack runtime uses.  Layers
drop their transient backward caches on pickling (see
:meth:`repro.nn.layers.base.Layer.__getstate__`), so the payload stays
small and the copy behaves like a freshly built model.  Trained weights are
persisted by the artifact store (:mod:`repro.experiments`), not here.
"""

from __future__ import annotations

import pickle

from repro.errors import ConfigurationError
from repro.nn.model import Sequential


def dumps_model(model: Sequential) -> bytes:
    """Snapshot a built model to bytes (architecture + parameters).

    The payload is safe to hand to a ``spawn``-started process: it carries
    no transient activation caches, no open handles and no thread state.
    """
    if not isinstance(model, Sequential):
        raise ConfigurationError(
            f"dumps_model expects a Sequential model, got {type(model).__name__}"
        )
    return pickle.dumps(model, protocol=pickle.HIGHEST_PROTOCOL)


def loads_model(payload: bytes) -> Sequential:
    """Rebuild a model snapshot produced by :func:`dumps_model`."""
    model = pickle.loads(payload)
    if not isinstance(model, Sequential):
        raise ConfigurationError(
            f"model payload decoded to {type(model).__name__}, expected Sequential"
        )
    return model
