"""Batching helpers and the process pool that shards adversarial crafting.

Inference and training run serially in the calling thread.  ``workers``
means one thing in this repo: how many spawn processes craft an
adversarial suite (:class:`ProcessShardPool`, driven by
:class:`repro.attacks.engine.AttackEngine`).  Thread sharding of predict,
evaluate and fit was measured and removed: it sped up no workload the repo
runs, while the process pool crafts a ten-budget BIM sweep 1.6-1.7x faster
on two cores (PERFORMANCE.md, "Parallelism").

:func:`run_batched`
    Evaluate a forward callable over fixed-size batches of an input array
    under :func:`repro.nn.layers.base.no_grad_cache` and concatenate the
    outputs in input order.

:func:`resolve_workers`
    Normalise a crafting ``workers`` argument: a positive int, ``"auto"``
    (one process per available core), or ``None`` (the
    ``REPRO_DEFAULT_WORKERS`` environment variable when set, else 1 — the
    hook the CI matrix uses to run the whole suite through the pool).

:func:`check_serial_workers`
    The check behind the ``workers=`` keyword that three inference entry
    points keep for existing callers: ``None`` or ``1`` only.

:class:`ProcessShardPool`
    Persistent spawn-context process pool for crafting shards.  Executors
    are cached per worker count and reused across calls.
"""

from __future__ import annotations

import atexit
import logging
import multiprocessing
import os
import signal
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Dict, Iterable, List, Optional, Union

import numpy as np

from repro.errors import ConfigurationError
from repro.nn.layers.base import no_grad_cache
from repro.resilience import FaultInjector, RetryPolicy

logger = logging.getLogger("repro.resilience")

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
            f"counts crafting processes only), got {workers!r}"
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


def _shard_fault_shim(payload):
    """Worker-side chaos wrapper (module-level so ``spawn`` can import it).

    The parent's fault plan cannot reach spawned workers (it is process
    state), so ``pool.worker`` rules travel inside the task payload: the
    worker running the matching shard applies the scripted fault — killing
    itself, exiting abruptly or raising — *mid-shard*, exactly where a real
    worker death would land.  Only wrapped when a plan is active; the
    production path never pays for this.
    """
    task, item, ordinal, rules = payload
    for rule in rules:
        if rule.matches(ordinal):
            if rule.action == "kill_worker":
                os.kill(os.getpid(), signal.SIGKILL)
            rule.trigger()
    return task(item)


class ProcessShardPool:
    """Self-healing spawn-context process pool for crafting shards.

    Adversarial-example crafting is gradient-bound: its forward/backward
    passes hold the GIL in pure-NumPy layer code and mutate per-layer
    backward caches, so threads neither speed it up nor share one model
    object safely.  This pool runs shard tasks in separate processes.
    Tasks must be module-level callables with picklable arguments that are
    *self-contained* — pure functions of their payload, sharing no mutable
    state with the parent (models travel as
    :func:`repro.nn.serialization.dumps_model` payloads and are rebuilt per
    call).  That property is also what makes every recovery path below
    bit-identical: re-running a shard anywhere recomputes the same bytes.

    **Self-healing.**  A dead worker (OOM-killed, segfaulted, SIGKILLed)
    poisons its executor with :class:`BrokenProcessPool`; ``map`` evicts the
    executor, respawns a fresh pool and retries the whole map under a
    :class:`repro.resilience.RetryPolicy`.  When process pools keep failing
    — spawn errors, a hostile sandbox, a script without a ``__main__``
    guard — ``map`` logs a warning and runs the shards serially in the
    calling process rather than failing the run; the results are identical
    because tasks are self-contained and ordering is preserved.

    Worker processes are started with the ``spawn`` method (fork-safety with
    threaded BLAS) and are expensive to boot — a fresh interpreter plus the
    NumPy/SciPy imports — so executors are cached per worker count and
    reused for the life of the parent process.  Lifecycle: :func:`atexit`
    tears every cached executor down at interpreter exit, and the pool is a
    context manager that tears its executor down *on exception* (a failed
    crafting run must not leak spawn processes) while keeping it cached on
    the happy path.  ``map`` preserves task order, and a pool of any size
    never changes *what* is computed: shard decomposition and per-shard
    seeding are fixed by the caller before dispatch.
    """

    _executors: Dict[int, ProcessPoolExecutor] = {}
    _lock = threading.Lock()

    def __init__(
        self, workers: WorkerSpec = None, retry: Optional[RetryPolicy] = None
    ) -> None:
        self.workers = resolve_workers(workers)
        self.retry = retry if retry is not None else RetryPolicy.from_env()

    @classmethod
    def _executor(cls, workers: int) -> ProcessPoolExecutor:
        with cls._lock:
            pool = cls._executors.get(workers)
            if pool is None:
                pool = ProcessPoolExecutor(
                    max_workers=workers,
                    mp_context=multiprocessing.get_context("spawn"),
                )
                cls._executors[workers] = pool
            return pool

    @classmethod
    def _evict(cls, workers: int) -> None:
        with cls._lock:
            pool = cls._executors.pop(workers, None)
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    @classmethod
    def shutdown_all(cls) -> None:
        """Shut down every cached executor (atexit hook; also for tests)."""
        with cls._lock:
            pools = list(cls._executors.values())
            cls._executors.clear()
        for pool in pools:
            pool.shutdown(wait=False, cancel_futures=True)

    # ------------------------------------------------------------ lifecycle
    def shutdown(self) -> None:
        """Tear down this worker-count's cached executor (if any)."""
        self._evict(self.workers)

    def __enter__(self) -> "ProcessShardPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # teardown on exception only: a failed crafting run must not leak
        # spawn processes, but the happy path keeps the expensive warm pool
        if exc_type is not None:
            self.shutdown()

    # ------------------------------------------------------------- dispatch
    def map(self, task: Callable, items: Iterable) -> List:
        """Run ``task`` over ``items`` and return results in input order.

        A single worker (or a single item) runs inline in the calling
        process — no pool, no serialization round-trip — which is also what
        keeps one-shard problems bit-identical with zero process overhead.
        Multi-shard maps run on the process pool with the self-healing
        ladder described on the class.
        """
        items = list(items)
        if not items:
            return []
        if self.workers == 1 or len(items) == 1:
            return [task(item) for item in items]
        failure: Optional[BaseException] = None
        for attempt in range(1, self.retry.max_attempts + 1):
            try:
                FaultInjector.consult("pool.process")
                return self._map_processes(task, items)
            except (BrokenProcessPool, OSError) as exc:
                # a dead worker poisons the cached executor; evict it so the
                # retry starts from a healthy pool
                failure = exc
                self._evict(self.workers)
                # a scripted worker-kill fired in a child that cannot update
                # the parent's counters — disarm it so the retry runs clean
                FaultInjector.disarm("pool.worker")
                if attempt < self.retry.max_attempts:
                    logger.warning(
                        "process shard pool failed (%s: %s); respawning, "
                        "retry %d/%d",
                        type(exc).__name__,
                        exc,
                        attempt,
                        self.retry.max_attempts - 1,
                    )
                    self.retry.sleep(self.retry.delay_s(attempt))
        logger.warning(
            "process shard pool kept failing (%s: %s); running the shards serially",
            type(failure).__name__,
            failure,
        )
        return [task(item) for item in items]

    def _map_processes(self, task: Callable, items: List) -> List:
        worker_rules = FaultInjector.rules_for("pool.worker")
        if worker_rules:
            # ship the chaos rules into the workers: shard ordinals are the
            # item indices, so "kill the worker at shard K" is well-defined
            rules = tuple(r for r in worker_rules)
            items = [
                (task, item, ordinal, rules) for ordinal, item in enumerate(items)
            ]
            task = _shard_fault_shim
        return list(self._executor(self.workers).map(task, items))


atexit.register(ProcessShardPool.shutdown_all)
