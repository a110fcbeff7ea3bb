"""Micro-batching of single-sample robustness queries.

``POST /v1/query`` answers "what does this victim set predict for this one
sample" — the interactive workload.  The :class:`MicroBatcher` is
*work-conserving*: a query that finds the evaluator idle is dispatched at
once, alone, with no hold.  Queries that arrive while a batch is being
evaluated wait in a per-*target* bucket, and when the batch finishes the
oldest waiting bucket goes next, as one stacked batch — so the batch size
follows the load instead of a timer.  A bucket that reaches ``max_batch``
goes at once.  Each batch is **one** ``predict_classes`` pass through the
fused :class:`~repro.axnn.panel.VictimPanel` when the victim set is
lockstep-compatible, per victim otherwise.

Bit-identity is the contract that makes this safe: every predict path in
the repo is row-independent, so the fused answer for a query is
bit-identical to evaluating that sample alone.  ``/metrics`` splits a
query's time into ``query_wait_seconds`` (enqueue to dispatch) and
``query_batch_latency_seconds`` (its batch's evaluation).

Targets — a trained source model plus its built victim set — are resolved
through the :class:`~repro.experiments.session.Session` (training is
store-cached and lease-coordinated) and kept in a small LRU so repeated
queries pay nothing after the first.
"""

from __future__ import annotations

import asyncio
import threading
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
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
    panel: Optional[VictimPanel] = None
    image_shape: Tuple[int, ...] = ()

    def victim_names(self) -> List[str]:
        return list(self.victims.keys())


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
    def resolve(self, model_spec: ModelSpec, victim_spec: VictimSpec) -> QueryTarget:
        """The built target for (model, victims), LRU-cached by content hash."""
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
            panel = None
            models = list(victims.values())
            if len(models) >= 2 and VictimPanel.compatible(models):
                panel = VictimPanel(victims)
            target = QueryTarget(
                key=key,
                model_spec=model_spec,
                victim_spec=victim_spec,
                trained=trained,
                victims=victims,
                panel=panel,
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
        self, model_spec: ModelSpec, victim_spec: VictimSpec, items: List[QueryItem]
    ) -> List[Tuple[int, dict]]:
        """Answer a stacked batch of queries with ONE predict pass per victim.

        Returns one ``(http_status, payload)`` per item, in order.  A
        malformed item (bad shape, out-of-range index) fails alone with
        400; the rest of the batch still evaluates.  The predictions are
        bit-identical to evaluating each sample in its own batch, because
        batched prediction is row-independent.
        """
        target = self.resolve(model_spec, victim_spec)
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
            if target.panel is not None:
                predictions = target.panel.predict_classes(batch)
            else:
                predictions = {
                    name: victim.predict_classes(batch)
                    for name, victim in target.victims.items()
                }
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
    #: event-loop time of ``submit``; ``query_wait_seconds`` ends at dispatch
    enqueued: float


@dataclass
class _Bucket:
    model_spec: ModelSpec
    victim_spec: VictimSpec
    pending: List[_Pending] = field(default_factory=list)


class MicroBatcher:
    """Fuse concurrent single-sample queries into batched predict passes.

    Lives on the asyncio event loop: :meth:`submit` parks each query in a
    per-target bucket.  The oldest bucket is dispatched whenever no batch
    is in flight; a bucket holding ``max_batch`` queries is dispatched at
    once.  Evaluation runs on one private worker thread (never the event
    loop), so slow predictions stall neither accepts nor the queue.
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
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-service-query"
        )
        #: waiting buckets by target key, in arrival order (oldest first)
        self._buckets: Dict[str, _Bucket] = {}
        self._pending_total = 0
        self._inflight: "set[asyncio.Task]" = set()
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
        loop = asyncio.get_running_loop()
        key = target_key(model_spec, victim_spec)
        bucket = self._buckets.get(key)
        if bucket is None:
            bucket = self._buckets[key] = _Bucket(
                model_spec=model_spec, victim_spec=victim_spec
            )
        pending = _Pending(
            item=item,
            future=loop.create_future(),
            deadline=deadline,
            enqueued=loop.time(),
        )
        bucket.pending.append(pending)
        self._pending_total += 1
        self.metrics.inc("queries_total")
        # an idle evaluator has no older bucket waiting (_batch_done would
        # have dispatched it), so this bucket is the one to run now
        if len(bucket.pending) >= self.max_batch or not self._inflight:
            self._dispatch(key)
        return await pending.future

    # ------------------------------------------------------------- dispatch
    def _dispatch(self, key: str) -> None:
        """Hand the bucket ``key`` to the evaluator as one batch."""
        bucket = self._buckets.pop(key)
        task = asyncio.get_running_loop().create_task(self._run_batch(bucket))
        self._inflight.add(task)
        task.add_done_callback(self._batch_done)

    def _batch_done(self, task: "asyncio.Task") -> None:
        self._inflight.discard(task)
        if not self._inflight and self._buckets:
            self._dispatch(next(iter(self._buckets)))

    async def _run_batch(self, bucket: _Bucket) -> None:
        loop = asyncio.get_running_loop()
        ready: List[_Pending] = []
        for pending in bucket.pending:
            if pending.deadline is not None and pending.deadline.expired():
                self._resolve(
                    pending,
                    (
                        504,
                        {
                            "error": "deadline_exceeded",
                            "message": "query deadline expired before evaluation",
                        },
                    ),
                )
            else:
                ready.append(pending)
        if not ready:
            return
        start = loop.time()
        for pending in ready:
            self.metrics.observe("query_wait_seconds", start - pending.enqueued)
        self.metrics.inc("query_batches_total")
        self.metrics.observe(
            "query_batch_size", float(len(ready)), buckets=BATCH_SIZE_BUCKETS
        )
        try:
            results = await loop.run_in_executor(
                self._executor,
                self.evaluator.evaluate,
                bucket.model_spec,
                bucket.victim_spec,
                [pending.item for pending in ready],
            )
        except Exception as exc:  # noqa: BLE001 - per-batch isolation
            failure = (
                500,
                {"error": type(exc).__name__, "message": str(exc)},
            )
            for pending in ready:
                self._resolve(pending, failure)
            return
        self.metrics.observe("query_batch_latency_seconds", loop.time() - start)
        for pending, result in zip(ready, results):
            self._resolve(pending, result)

    def _resolve(self, pending: _Pending, result: Tuple[int, dict]) -> None:
        self._pending_total -= 1
        if not pending.future.done():
            pending.future.set_result(result)

    # ---------------------------------------------------------------- drain
    async def drain(self) -> None:
        """Dispatch every waiting bucket and wait for all batches to finish."""
        while self._buckets or self._inflight:
            for key in list(self._buckets):
                self._dispatch(key)
            await asyncio.gather(*list(self._inflight), return_exceptions=True)
        self._executor.shutdown(wait=True)

    @property
    def pending_count(self) -> int:
        return self._pending_total
