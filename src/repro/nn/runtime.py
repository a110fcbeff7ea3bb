"""Batching helpers and the worker-count resolution for adversarial crafting.

Inference and training run serially in the calling thread.  ``workers``
means one thing in this repo: how many threads craft an adversarial suite
(:class:`repro.attacks.engine.AttackEngine`, each thread on its own copy of
the source model).  Thread sharding of predict, evaluate and fit was
measured and removed: it sped up no workload the repo runs, while sharded
crafting runs a ten-budget BIM sweep 1.6-1.7x faster on two cores
(PERFORMANCE.md, "Parallelism").

:func:`run_batched`
    Evaluate a forward callable over fixed-size batches of an input array
    under :func:`repro.nn.layers.base.no_grad_cache` and concatenate the
    outputs in input order.

:func:`resolve_workers`
    Normalise a crafting ``workers`` argument: a positive int, ``"auto"``
    (one thread per available core), or ``None`` (the
    ``REPRO_DEFAULT_WORKERS`` environment variable when set, else 1 — the
    hook the CI matrix uses to run the whole suite with sharded crafting).

:func:`check_serial_workers`
    The check behind the ``workers=`` keyword that three inference entry
    points keep for existing callers: ``None`` or ``1`` only.
"""

from __future__ import annotations

import os
from typing import Callable, List, Union

import numpy as np

from repro.errors import ConfigurationError
from repro.nn.layers.base import no_grad_cache

#: environment variable supplying the default worker count (CI matrix hook)
WORKERS_ENV_VAR = "REPRO_DEFAULT_WORKERS"

WorkerSpec = Union[None, int, str]


def available_workers() -> int:
    """Number of usable cores (affinity-aware when the platform exposes it)."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return max(1, os.cpu_count() or 1)


def resolve_workers(workers: WorkerSpec = None) -> int:
    """Resolve a ``workers`` argument to a concrete positive worker count.

    ``None`` reads :data:`WORKERS_ENV_VAR` (defaulting to 1), ``"auto"``
    resolves to :func:`available_workers`, and a positive integer (or its
    string spelling, for the environment variable) passes through.
    """
    if workers is None:
        workers = os.environ.get(WORKERS_ENV_VAR) or 1
    if isinstance(workers, str):
        text = workers.strip().lower()
        if text == "auto":
            return available_workers()
        try:
            workers = int(text)
        except ValueError:
            raise ConfigurationError(
                f"workers must be a positive int or 'auto', got {workers!r}"
            ) from None
    if isinstance(workers, bool) or not isinstance(workers, (int, np.integer)):
        raise ConfigurationError(
            f"workers must be a positive int or 'auto', got {workers!r}"
        )
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    return int(workers)


def check_serial_workers(workers) -> None:
    """Accept only ``None`` or ``1`` for an inference ``workers=`` keyword.

    ``Sequential.predict_classes``, ``VictimPanel.predict_classes`` and
    ``grid_from_suite`` keep the keyword so that callers written against
    the removed thread sharding with ``workers=1`` still run.  Inference is
    serial, so any other value raises :class:`ConfigurationError`.
    """
    if workers is None:
        return
    if (
        isinstance(workers, bool)
        or not isinstance(workers, (int, np.integer))
        or workers != 1
    ):
        raise ConfigurationError(
            f"workers must be None or 1 (inference runs serially; workers "
            f"counts crafting threads only), got {workers!r}"
        )


def validate_batch_size(batch_size) -> int:
    """Check that ``batch_size`` is a positive integer and return it."""
    if isinstance(batch_size, bool) or not isinstance(batch_size, (int, np.integer)):
        raise ConfigurationError(
            f"batch_size must be a positive int, got {batch_size!r}"
        )
    if batch_size < 1:
        raise ConfigurationError(f"batch_size must be >= 1, got {batch_size}")
    return int(batch_size)


def batch_slices(n_samples: int, batch_size: int) -> List[slice]:
    """Contiguous batch slices covering ``n_samples`` rows.

    The final slice carries the remainder when ``n_samples`` is not a
    multiple of ``batch_size``.  The slicing depends only on
    ``(n_samples, batch_size)``, which is what makes sharded crafting
    independent of the worker count.
    """
    batch_size = validate_batch_size(batch_size)
    return [
        slice(start, min(start + batch_size, n_samples))
        for start in range(0, n_samples, batch_size)
    ]


def run_batched(
    forward: Callable[[np.ndarray], np.ndarray], x: np.ndarray, batch_size: int
) -> np.ndarray:
    """Evaluate ``forward`` over batches of ``x`` and concatenate the outputs.

    The loop runs under :func:`no_grad_cache`, so layers neither store nor
    keep activation-sized backward caches.  ``x`` must be non-empty:
    callers handle the empty-input case, whose output shape they know and
    this function does not.
    """
    x = np.asarray(x)
    if x.shape[0] == 0:
        raise ConfigurationError("run_batched requires a non-empty input batch")
    with no_grad_cache():
        outputs = [forward(x[shard]) for shard in batch_slices(x.shape[0], batch_size)]
    return np.concatenate(outputs, axis=0)
