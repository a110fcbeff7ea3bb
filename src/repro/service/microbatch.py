"""Micro-batching of single-sample robustness queries.

``POST /v1/query`` answers "what does this victim set predict for this one
sample" — the interactive workload.  The :class:`MicroBatcher` parks each
query in a per-*target* bucket, and ONE evaluator thread runs the buckets
as batches: when a batch ends the thread takes the next waiting bucket
itself — a full one (``max_batch`` queries) first, else the oldest — so it
never waits for the event loop between batches, and a query that finds it
idle starts at once, alone, with no hold.  The batch size follows the load
instead of a timer.  Each batch is **one** ``predict_classes`` pass through
the target's fused :class:`~repro.axnn.panel.VictimPanel`.

Bit-identity is the contract that makes this safe: every predict path in
the repo is row-independent, so the fused answer for a query is
bit-identical to evaluating that sample alone.  ``/metrics`` splits a
query's time into ``query_wait_seconds`` (enqueue until the evaluator takes
its batch) and ``query_batch_latency_seconds`` (its batch's evaluation), and
``query_panel_seconds`` times the victims' pass inside that evaluation.

Targets — a trained source model plus its built victim set — are resolved
through the :class:`~repro.experiments.session.Session` (training is
store-cached and lease-coordinated) and kept in a small LRU so repeated
queries pay nothing after the first.
"""

from __future__ import annotations

import asyncio
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.axnn.panel import VictimPanel
from repro.errors import ConfigurationError, ReproError
from repro.experiments.spec import ModelSpec, VictimSpec, content_hash
from repro.experiments.store import ArtifactStore
from repro.resilience import Deadline
from repro.service.metrics import MetricsRegistry

#: histogram buckets for micro-batch sizes
BATCH_SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)


class QueryOverloadError(ReproError):
    """Too many queries are pending; the client should retry later."""


@dataclass
class QueryItem:
    """One parsed query: either an explicit image or a test-set index."""

    image: Optional[np.ndarray] = None
    sample_index: Optional[int] = None
    label: Optional[int] = None


@dataclass
class QueryTarget:
    """A resolved evaluation target: trained source model + victim set."""

    key: str
    model_spec: ModelSpec
    victim_spec: VictimSpec
    trained: object  # TrainedModel
    victims: Dict[str, object]  # name -> AxModel
    panel: VictimPanel
    image_shape: Tuple[int, ...] = ()


def target_key(model_spec: ModelSpec, victim_spec: VictimSpec) -> str:
    """Content hash identifying one (model, victims) query target."""
    return content_hash(
        {"model": model_spec.to_dict(), "victims": victim_spec.to_dict()},
        "query-target",
    )


class QueryEvaluator:
    """Resolve query targets (store-cached) and evaluate stacked batches.

    Thread-safe: targets are built under a lock (one build at a time — the
    expensive part, training, is store-cached and lease-coordinated anyway)
    and kept in an LRU of ``max_targets`` entries.
    """

    def __init__(
        self,
        store: Optional[ArtifactStore] = None,
        max_targets: int = 8,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if not isinstance(max_targets, int) or max_targets < 1:
            raise ConfigurationError(
                f"max_targets must be a positive int, got {max_targets!r}"
            )
        self.store = store if isinstance(store, ArtifactStore) else ArtifactStore(store)
        self.max_targets = max_targets
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._lock = threading.Lock()
        self._targets: "OrderedDict[str, QueryTarget]" = OrderedDict()

    # -------------------------------------------------------------- targets
    def resolve(
        self,
        model_spec: ModelSpec,
        victim_spec: VictimSpec,
        key: Optional[str] = None,
    ) -> QueryTarget:
        """The built target for (model, victims), LRU-cached by content hash.

        ``key`` is their :func:`target_key` when the caller already holds it.
        """
        if key is None:
            key = target_key(model_spec, victim_spec)
        with self._lock:
            cached = self._targets.get(key)
            if cached is not None:
                self._targets.move_to_end(key)
                self.metrics.inc("query_target_hits_total")
                return cached
            # build under the lock: concurrent queries for one new target
            # must not train twice in-process (the store lease would catch
            # it across processes, but in-process we can simply serialise)
            from repro.experiments.session import Session

            self.metrics.inc("query_target_builds_total")
            session = Session(store=self.store)
            trained = session.resolve_model(model_spec)
            victims = session.build_victims(trained, victim_spec)
            target = QueryTarget(
                key=key,
                model_spec=model_spec,
                victim_spec=victim_spec,
                trained=trained,
                victims=victims,
                panel=VictimPanel(victims),
                image_shape=tuple(trained.dataset.image_shape),
            )
            self._targets[key] = target
            while len(self._targets) > self.max_targets:
                self._targets.popitem(last=False)
            return target

    # ------------------------------------------------------------- evaluate
    def _item_image(self, target: QueryTarget, item: QueryItem) -> np.ndarray:
        if item.image is not None:
            try:
                image = np.asarray(item.image, dtype=np.float64)
            except (TypeError, ValueError):  # ragged lists, strings, objects
                raise ConfigurationError(
                    "query image must be a nested list of numbers"
                ) from None
            if image.shape != target.image_shape:
                raise ConfigurationError(
                    f"query image has shape {tuple(image.shape)}, the target "
                    f"expects {target.image_shape}"
                )
            if not np.isfinite(image).all():
                # JSON's NaN and Infinity literals parse, but no code
                # quantizes them
                raise ConfigurationError("query image holds NaN or infinite values")
            return image
        if item.sample_index is None:
            raise ConfigurationError(
                "query needs either an 'image' or a 'sample_index'"
            )
        test = target.trained.dataset.test
        if not 0 <= item.sample_index < len(test):
            raise ConfigurationError(
                f"sample_index {item.sample_index} out of range "
                f"(test split holds {len(test)} samples)"
            )
        return np.asarray(test.images[item.sample_index], dtype=np.float64)

    def evaluate(
        self,
        model_spec: ModelSpec,
        victim_spec: VictimSpec,
        items: List[QueryItem],
        key: Optional[str] = None,
    ) -> List[Tuple[int, dict]]:
        """Answer a stacked batch of queries with ONE panel predict pass.

        Returns one ``(http_status, payload)`` per item, in order.  A
        malformed item (bad shape, a non-finite value, an out-of-range
        index) fails alone with 400; the rest of the batch still evaluates.
        The predictions are bit-identical to evaluating each sample in its
        own batch, because batched prediction is row-independent.  ``key``
        is the target's :func:`target_key` when the caller already holds
        it.  The victims' pass is observed as ``query_panel_seconds``.
        """
        target = self.resolve(model_spec, victim_spec, key)
        images: List[np.ndarray] = []
        slots: List[Optional[int]] = []  # per item: row in the batch, or None
        results: List[Optional[Tuple[int, dict]]] = [None] * len(items)
        for index, item in enumerate(items):
            try:
                images.append(self._item_image(target, item))
            except ConfigurationError as exc:
                results[index] = (400, {"error": "invalid_query", "message": str(exc)})
                slots.append(None)
            else:
                slots.append(len(images) - 1)
        if images:
            batch = np.stack(images, axis=0)
            start = time.monotonic()
            predictions = target.panel.predict_classes(batch)
            self.metrics.observe("query_panel_seconds", time.monotonic() - start)
            source = target.trained.model.predict_classes(batch)
            for index, (item, slot) in enumerate(zip(items, slots)):
                if slot is None:
                    continue
                predicted = {
                    name: int(classes[slot]) for name, classes in predictions.items()
                }
                payload = {
                    "target": target.key,
                    "predictions": predicted,
                    "source_prediction": int(source[slot]),
                }
                if item.label is not None:
                    payload["label"] = int(item.label)
                    payload["correct"] = {
                        name: bool(value == item.label)
                        for name, value in predicted.items()
                    }
                results[index] = (200, payload)
        return [
            result if result is not None else (500, {"error": "internal"})
            for result in results
        ]


@dataclass
class _Pending:
    item: QueryItem
    future: "asyncio.Future"
    deadline: Optional[Deadline]
    #: ``time.monotonic()`` at ``submit``; ``query_wait_seconds`` ends when
    #: the evaluator takes the batch
    enqueued: float


@dataclass
class _Bucket:
    #: the :func:`target_key` that ``submit`` computed
    key: str
    model_spec: ModelSpec
    victim_spec: VictimSpec
    pending: List[_Pending] = field(default_factory=list)


class MicroBatcher:
    """Fuse concurrent single-sample queries into batched predict passes.

    :meth:`submit` runs on the asyncio event loop: under a lock it appends
    the query to its target's open bucket, wakes the evaluator and awaits
    the answer.  A bucket closes when it holds ``max_batch`` queries, or
    at once when its query found the evaluator idle (so that query runs
    alone, with no hold); the next query of that target opens a new one.

    The evaluator is one thread, started by the first query.  It takes the
    oldest full bucket, else the oldest bucket; answers each query whose
    deadline passed with 504; evaluates the rest as one batch; hands the
    answers to the loop with ``call_soon_threadsafe``; and takes the next
    bucket without waiting for the loop.  A batch whose evaluation raises
    answers 500 to its own queries only.  Slow predictions therefore stall
    neither accepts nor the queue, and a busy loop does not stall batches.
    """

    def __init__(
        self,
        evaluator: QueryEvaluator,
        max_batch: int = 32,
        max_pending: int = 256,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if not isinstance(max_batch, int) or max_batch < 1:
            raise ConfigurationError(
                f"max_batch must be a positive int, got {max_batch!r}"
            )
        self.evaluator = evaluator
        self.max_batch = max_batch
        self.max_pending = int(max_pending)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: guards the queue, the open buckets and the thread's lifecycle
        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        #: waiting buckets, oldest first
        self._queue: List[_Bucket] = []
        #: each target's bucket that still takes queries
        self._open: Dict[str, _Bucket] = {}
        self._thread: Optional[threading.Thread] = None
        #: the evaluator has a batch to run or running; idle otherwise
        self._busy = False
        self._stopping = False
        #: queries not yet answered; read and written on the event loop only
        self._pending_total = 0
        self.metrics.set_gauge(
            "query_pending", lambda: float(self._pending_total)
        )

    # --------------------------------------------------------------- submit
    async def submit(
        self,
        model_spec: ModelSpec,
        victim_spec: VictimSpec,
        item: QueryItem,
        deadline: Optional[Deadline] = None,
    ) -> Tuple[int, dict]:
        """Queue one query; resolves to its ``(status, payload)`` answer."""
        if self._pending_total >= self.max_pending:
            self.metrics.inc("queries_rejected_total")
            raise QueryOverloadError(
                f"{self._pending_total} queries pending (limit {self.max_pending})"
            )
        key = target_key(model_spec, victim_spec)
        pending = _Pending(
            item=item,
            future=asyncio.get_running_loop().create_future(),
            deadline=deadline,
            enqueued=time.monotonic(),
        )
        self._pending_total += 1
        self.metrics.inc("queries_total")
        with self._lock:
            bucket = self._open.get(key)
            if bucket is None:
                bucket = self._open[key] = _Bucket(key, model_spec, victim_spec)
                self._queue.append(bucket)
            bucket.pending.append(pending)
            # an idle evaluator has no older bucket waiting, so a query that
            # finds it idle closes its bucket and runs alone, at once
            if len(bucket.pending) >= self.max_batch or not self._busy:
                del self._open[key]
            self._busy = True
            if self._thread is None:
                self._thread = threading.Thread(
                    target=self._serve, name="repro-service-query", daemon=True
                )
                self._thread.start()
            self._wake.notify()
        return await pending.future

    # ------------------------------------------------------------ evaluator
    def _serve(self) -> None:
        """The evaluator thread: run waiting buckets until :meth:`drain`."""
        while True:
            with self._lock:
                while not self._queue:
                    self._busy = False
                    if self._stopping:
                        self._thread = None
                        return
                    self._wake.wait()
                self._busy = True
                bucket = self._next_bucket()
            self._run_batch(bucket)

    def _next_bucket(self) -> _Bucket:
        """Pop the oldest full bucket, else the oldest (lock held)."""
        index = next(
            (
                index
                for index, bucket in enumerate(self._queue)
                if len(bucket.pending) >= self.max_batch
            ),
            0,
        )
        bucket = self._queue.pop(index)
        if self._open.get(bucket.key) is bucket:
            del self._open[bucket.key]
        return bucket

    def _run_batch(self, bucket: _Bucket) -> None:
        ready: List[_Pending] = []
        expired: List[Tuple[_Pending, Tuple[int, dict]]] = []
        for pending in bucket.pending:
            if pending.deadline is not None and pending.deadline.expired():
                expired.append((pending, (504, {
                    "error": "deadline_exceeded",
                    "message": "query deadline expired before evaluation",
                })))
            else:
                ready.append(pending)
        if expired:
            self._answer(expired)
        if not ready:
            return
        start = time.monotonic()
        for pending in ready:
            self.metrics.observe("query_wait_seconds", start - pending.enqueued)
        self.metrics.inc("query_batches_total")
        self.metrics.observe(
            "query_batch_size", float(len(ready)), buckets=BATCH_SIZE_BUCKETS
        )
        try:
            results = self.evaluator.evaluate(
                bucket.model_spec,
                bucket.victim_spec,
                [pending.item for pending in ready],
                bucket.key,
            )
        except Exception as exc:  # noqa: BLE001 - per-batch isolation
            failure = (500, {"error": type(exc).__name__, "message": str(exc)})
            self._answer([(pending, failure) for pending in ready])
            return
        self.metrics.observe("query_batch_latency_seconds", time.monotonic() - start)
        self._answer(list(zip(ready, results)))

    def _answer(self, answers: List[Tuple[_Pending, Tuple[int, dict]]]) -> None:
        """Hand ``answers`` to their event loop (evaluator thread)."""
        loop = answers[0][0].future.get_loop()
        try:
            loop.call_soon_threadsafe(self._deliver, answers)
        except RuntimeError:  # the loop has closed: nobody awaits these
            pass

    def _deliver(self, answers: List[Tuple[_Pending, Tuple[int, dict]]]) -> None:
        for pending, result in answers:
            self._pending_total -= 1
            if not pending.future.done():
                pending.future.set_result(result)

    # ---------------------------------------------------------------- drain
    async def drain(self) -> None:
        """Run every waiting bucket, then stop the evaluator thread.

        Returns once the thread has exited and every answer it produced has
        been delivered.  A query submitted later is still answered, by a
        new thread that exits as soon as the queue is empty.
        """
        loop = asyncio.get_running_loop()
        while True:
            with self._lock:
                self._stopping = True
                thread = self._thread
                self._wake.notify()
            if thread is None:
                return
            await loop.run_in_executor(None, thread.join)

    @property
    def pending_count(self) -> int:
        return self._pending_total
