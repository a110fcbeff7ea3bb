"""The robustness evaluation service: asyncio HTTP app and lifecycle.

:class:`ServiceApp` wires the pieces into one server:

- ``POST /v1/experiments`` — submit an :class:`ExperimentSpec`; identical
  concurrent submissions coalesce onto one job (202 with ``coalesced``
  telling the client whether it attached or created).
- ``GET /v1/jobs/{id}`` — job state + result; ``GET /v1/jobs/{id}/events``
  streams the job's event log as Server-Sent Events with ``Last-Event-ID``
  resume.
- ``POST /v1/query`` — single-sample robustness queries, micro-batched
  across concurrent clients into fused predict passes (bit-identical to
  serial evaluation).
- ``GET /healthz`` and ``GET /metrics`` — liveness and Prometheus text.

Backpressure surfaces as ``429`` + ``Retry-After`` when the job queue is
at depth.  ``SIGTERM``/``SIGINT`` trigger a graceful drain: stop
accepting, finish accepted jobs and in-flight query batches, close the
listener, exit.  Everything is stdlib + numpy; there is no web framework.
"""

from __future__ import annotations

import asyncio
import logging
import signal
import threading
from typing import Optional

from repro.errors import ConfigurationError, SpecValidationError
from repro.experiments.spec import ExperimentSpec, ModelSpec, VictimSpec
from repro.experiments.store import ArtifactStore
from repro.nn.runtime import WorkerSpec
from repro.resilience import Deadline
from repro.service.metrics import MetricsRegistry
from repro.service.microbatch import (
    MicroBatcher,
    QueryEvaluator,
    QueryItem,
    QueryOverloadError,
)
from repro.service.protocol import (
    HttpError,
    Request,
    error_response,
    format_sse_event,
    json_response,
    match_path,
    parse_deadline_s,
    read_request,
    render_response,
    sse_headers,
)
from repro.service.scheduler import DrainingError, JobScheduler, QueueFullError

logger = logging.getLogger("repro.service")

#: SSE poll interval — how often an event stream checks for fresh events
SSE_POLL_S = 0.05


def _route_label(path: str) -> str:
    """Collapse job ids out of paths so metric label cardinality stays bounded."""
    params = match_path("/v1/jobs/{id}", path)
    if params is not None:
        return "/v1/jobs/{id}"
    params = match_path("/v1/jobs/{id}/events", path)
    if params is not None:
        return "/v1/jobs/{id}/events"
    return path


class ServiceApp:
    """The HTTP application plus its server lifecycle.

    Usable three ways: ``run()`` blocks until shutdown (the ``repro serve``
    path), ``serve_forever()`` is the awaitable core for embedding in an
    existing loop, and tests drive :meth:`handle_request` directly or run
    the whole server on a background thread via ``run()`` +
    :meth:`request_shutdown`.
    """

    def __init__(
        self,
        store: Optional[ArtifactStore] = None,
        workers: int = 2,
        queue_depth: int = 16,
        session_workers: WorkerSpec = None,
        max_batch: int = 32,
        drain_timeout_s: float = 30.0,
        store_url: Optional[str] = None,
    ) -> None:
        self.metrics = MetricsRegistry()
        self.store = (
            store
            if isinstance(store, ArtifactStore)
            else ArtifactStore(store, store_url=store_url)
        )
        self.scheduler = JobScheduler(
            store=self.store,
            workers=workers,
            queue_depth=queue_depth,
            session_workers=session_workers,
            metrics=self.metrics,
        )
        self.evaluator = QueryEvaluator(store=self.store, metrics=self.metrics)
        self.batcher = MicroBatcher(
            self.evaluator,
            max_batch=max_batch,
            metrics=self.metrics,
        )
        self.drain_timeout_s = float(drain_timeout_s)
        self.host: Optional[str] = None
        self.port: Optional[int] = None
        self.ready = threading.Event()  # set once the listener is bound
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._shutdown: Optional[asyncio.Event] = None
        self._server: Optional[asyncio.base_events.Server] = None

    # ------------------------------------------------------------- dispatch
    async def handle_request(self, request: Request):
        """Route one request; returns response bytes, or an async generator
        of chunks for streaming (SSE) responses."""
        method, path = request.method, request.path
        if path == "/healthz":
            return self._handle_healthz(request)
        if path == "/metrics":
            return self._handle_metrics(request)
        if path == "/v1/experiments":
            if method != "POST":
                raise HttpError(405, "method_not_allowed", f"{method} {path}")
            return self._handle_submit(request)
        if path == "/v1/query":
            if method != "POST":
                raise HttpError(405, "method_not_allowed", f"{method} {path}")
            return await self._handle_query(request)
        params = match_path("/v1/jobs/{id}", path)
        if params is not None:
            if method != "GET":
                raise HttpError(405, "method_not_allowed", f"{method} {path}")
            request.path_params = params
            return self._handle_job(request)
        params = match_path("/v1/jobs/{id}/events", path)
        if params is not None:
            if method != "GET":
                raise HttpError(405, "method_not_allowed", f"{method} {path}")
            request.path_params = params
            return self._stream_job_events(request)
        raise HttpError(404, "not_found", f"no route for {method} {path}")

    # ------------------------------------------------------------ endpoints
    def _handle_healthz(self, request: Request) -> bytes:
        draining = self.scheduler.draining
        payload = {
            "status": "draining" if draining else "ok",
            "queued": self.scheduler.queued_count,
            "running": self.scheduler.running_count,
            # degraded = remote store circuit open, serving from local cache.
            # Deliberately NOT a 503: the node still answers everything its
            # cache (or a recompute) can serve, so it must stay in rotation.
            "degraded": self.store.degraded,
        }
        return json_response(503 if draining else 200, payload)

    def _handle_metrics(self, request: Request) -> bytes:
        for name, value in self.store.stats.snapshot().items():
            self.metrics.set_gauge(f"store_{name}", float(value))
        # circuit/degraded/journal state: sampled at scrape time like the
        # stats snapshot above (0=closed, 1=half-open, 2=open)
        self.metrics.set_gauge("store_breaker_state", float(self.store.breaker_state_code()))
        self.metrics.set_gauge("store_degraded", 1.0 if self.store.degraded else 0.0)
        self.metrics.set_gauge("store_journal_pending", float(self.store.journal_pending()))
        body = self.metrics.render().encode("utf-8")
        return render_response(200, body, "text/plain; version=0.0.4")

    def _handle_submit(self, request: Request) -> bytes:
        payload = request.json()
        if not isinstance(payload, dict):
            raise HttpError(400, "invalid_spec", "request body must be a JSON object")
        deadline_s = parse_deadline_s(request, payload)
        document = payload.get("experiment", payload)
        try:
            spec = ExperimentSpec.from_dict(document)
        except SpecValidationError as exc:
            raise HttpError(
                400, "invalid_spec", exc.reason, extra={"path": exc.path}
            ) from None
        except ConfigurationError as exc:
            raise HttpError(400, "invalid_spec", str(exc)) from None
        try:
            job, coalesced = self.scheduler.submit(spec, deadline_s=deadline_s)
        except QueueFullError as exc:
            raise HttpError(
                429,
                "queue_full",
                str(exc),
                headers={"Retry-After": f"{exc.retry_after_s:.0f}"},
                extra={"retry_after_s": exc.retry_after_s},
            ) from None
        except DrainingError as exc:
            raise HttpError(503, "draining", str(exc)) from None
        body = job.snapshot(include_result=False)
        body["coalesced"] = coalesced
        return json_response(202, body)

    def _handle_job(self, request: Request) -> bytes:
        job = self.scheduler.get(request.path_params["id"])
        if job is None:
            raise HttpError(
                404, "unknown_job", f"no job {request.path_params['id']!r}"
            )
        include_result = request.query.get("result", "1") not in ("0", "false")
        return json_response(200, job.snapshot(include_result=include_result))

    def _stream_job_events(self, request: Request):
        job = self.scheduler.get(request.path_params["id"])
        if job is None:
            raise HttpError(
                404, "unknown_job", f"no job {request.path_params['id']!r}"
            )
        cursor = 0
        last_id = request.header("last-event-id")
        if last_id:
            try:
                cursor = max(0, int(last_id))
            except ValueError:
                raise HttpError(
                    400, "bad_cursor", f"Last-Event-ID {last_id!r} is not an integer"
                ) from None

        async def stream():
            position = cursor
            yield sse_headers()
            while True:
                events = job.events_since(position)
                for event in events:
                    position = event["seq"]
                    yield format_sse_event(
                        event, event="progress", event_id=str(position)
                    )
                if job.terminal and not job.events_since(position):
                    yield format_sse_event(
                        job.snapshot(include_result=False), event="done"
                    )
                    return
                await asyncio.sleep(SSE_POLL_S)

        return stream()

    async def _handle_query(self, request: Request) -> bytes:
        payload = request.json()
        if not isinstance(payload, dict):
            raise HttpError(400, "invalid_query", "request body must be a JSON object")
        deadline_s = parse_deadline_s(request, payload)
        try:
            model_spec = ModelSpec.from_dict(payload.get("model") or {})
            victim_spec = VictimSpec.from_dict(payload.get("victims") or {})
        except SpecValidationError as exc:
            raise HttpError(
                400, "invalid_query", exc.reason, extra={"path": exc.path}
            ) from None
        except ConfigurationError as exc:
            raise HttpError(400, "invalid_query", str(exc)) from None
        item = self._parse_query_item(payload)
        deadline = Deadline(deadline_s) if deadline_s is not None else None
        try:
            status, body = await self.batcher.submit(
                model_spec, victim_spec, item, deadline=deadline
            )
        except QueryOverloadError as exc:
            raise HttpError(
                429, "query_overload", str(exc), headers={"Retry-After": "1"}
            ) from None
        return json_response(status, body)

    @staticmethod
    def _parse_query_item(payload: dict) -> QueryItem:
        image = payload.get("image")
        sample_index = payload.get("sample_index")
        if image is None and sample_index is None:
            raise HttpError(
                400, "invalid_query", "query needs either 'image' or 'sample_index'"
            )
        if sample_index is not None and not isinstance(sample_index, int):
            raise HttpError(
                400, "invalid_query", f"sample_index must be an int, got {sample_index!r}"
            )
        label = payload.get("label")
        if label is not None and not isinstance(label, int):
            raise HttpError(
                400, "invalid_query", f"label must be an int, got {label!r}"
            )
        return QueryItem(image=image, sample_index=sample_index, label=label)

    # ----------------------------------------------------------- connection
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        start = asyncio.get_running_loop().time()
        status = 500
        path = "?"
        try:
            try:
                request = await read_request(reader)
            except HttpError as exc:
                writer.write(error_response(exc))
                status = exc.status
                return
            if request is None:
                return  # clean close before a request
            path = request.path
            try:
                response = await self.handle_request(request)
            except HttpError as exc:
                writer.write(error_response(exc))
                status = exc.status
                return
            except Exception as exc:  # noqa: BLE001 - connection isolation
                logger.exception("unhandled error serving %s", request.path)
                writer.write(
                    error_response(HttpError(500, "internal", str(exc)))
                )
                status = 500
                return
            if isinstance(response, (bytes, bytearray)):
                writer.write(response)
                status = int(response[9:12] or b"200")
            else:  # async generator of chunks (SSE)
                status = 200
                async for chunk in response:
                    writer.write(chunk)
                    await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass  # client went away; nothing to answer
        finally:
            self.metrics.inc(
                "http_requests_total",
                labels={"path": _route_label(path), "status": str(status)},
            )
            self.metrics.observe(
                "http_request_seconds",
                asyncio.get_running_loop().time() - start,
            )
            try:
                await writer.drain()
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    # -------------------------------------------------------------- lifecycle
    async def serve_forever(self, host: str = "127.0.0.1", port: int = 0) -> None:
        """Bind, serve until :meth:`request_shutdown` (or SIGTERM), drain."""
        self._loop = asyncio.get_running_loop()
        self._shutdown = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, host=host, port=port
        )
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]
        self._install_signal_handlers()
        self.ready.set()
        logger.info("serving on %s:%s", self.host, self.port)
        try:
            await self._shutdown.wait()
        finally:
            await self._drain()

    def run(self, host: str = "127.0.0.1", port: int = 0) -> None:
        """Blocking entry point (the ``repro serve`` command)."""
        asyncio.run(self.serve_forever(host=host, port=port))

    def _install_signal_handlers(self) -> None:
        if threading.current_thread() is not threading.main_thread():
            return  # signal handlers only work on the main thread
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                self._loop.add_signal_handler(signum, self._shutdown.set)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                return

    def request_shutdown(self) -> None:
        """Trigger a graceful drain; safe to call from any thread."""
        loop, shutdown = self._loop, self._shutdown
        if loop is None or shutdown is None:
            return
        loop.call_soon_threadsafe(shutdown.set)

    async def _drain(self) -> None:
        """The SIGTERM path: stop accepting, finish accepted work, close."""
        logger.info("draining: %d queued, %d running",
                    self.scheduler.queued_count, self.scheduler.running_count)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await self.batcher.drain()
        logger.info("query evaluator stopped")
        clean = await asyncio.get_running_loop().run_in_executor(
            None, self.scheduler.drain, self.drain_timeout_s
        )
        if not clean:  # pragma: no cover - only on drain timeout
            logger.warning("drain timed out after %.1fs", self.drain_timeout_s)
        logger.info("drained")
