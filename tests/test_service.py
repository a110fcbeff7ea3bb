"""Tests for the robustness evaluation service.

The acceptance properties from the service's contract:

- N concurrent identical submissions coalesce onto ONE job — exactly one
  training pass, one crafting pass — and the served result is
  bit-identical to a direct ``Session.run`` of the same spec.
- ``/v1/query`` micro-batches concurrent single-sample queries into fused
  predict passes whose answers are bit-identical to serial evaluation.
- Queue overflow surfaces as 429 + ``Retry-After``; drain stops intake
  and finishes accepted work.
- Spec validation failures come back as structured 400 bodies carrying a
  machine-readable field path.
"""

import asyncio
import http.client
import json
import socket
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.attacks.engine import AttackEngine
from repro.errors import ConfigurationError
from repro.experiments import (
    ArtifactStore,
    AttackSpec,
    ExperimentSpec,
    ModelSpec,
    Session,
    SweepSpec,
    VictimSpec,
)
from repro.nn.trainer import Trainer
from repro.resilience import Deadline
from repro.service import (
    Coalescer,
    JobScheduler,
    MetricsRegistry,
    QueueFullError,
    ServiceApp,
)
from repro.service.protocol import (
    HttpError,
    Request,
    format_sse_event,
    json_response,
    match_path,
    parse_deadline_s,
    read_request,
    render_response,
)
import repro.service.microbatch as microbatch_module
from repro.service.microbatch import (
    MicroBatcher,
    QueryEvaluator,
    QueryItem,
    QueryTarget,
    target_key,
)
from repro.service.scheduler import FAILED, SUCCEEDED
import repro.service.scheduler as scheduler_module

TINY_MODEL = ModelSpec(
    architecture="lenet5", dataset="mnist", n_train=64, n_test=32, epochs=1
)


def tiny_spec(**overrides):
    defaults = dict(
        name="service-smoke",
        model=TINY_MODEL,
        victims=VictimSpec(multipliers=("M1", "M4"), calibration_samples=32),
        attacks=(AttackSpec(attack="FGM_linf"),),
        sweep=SweepSpec(epsilons=(0.0, 0.1), n_samples=8),
    )
    defaults.update(overrides)
    return ExperimentSpec(**defaults)


@pytest.fixture()
def store(tmp_path):
    return ArtifactStore(str(tmp_path / "store"))


@pytest.fixture()
def counters(monkeypatch):
    counts = {"train": 0, "craft": 0}
    original_fit = Trainer.fit
    original_sweep = AttackEngine.generate_sweep

    def counting_fit(self, *args, **kwargs):
        counts["train"] += 1
        return original_fit(self, *args, **kwargs)

    def counting_sweep(self, *args, **kwargs):
        counts["craft"] += 1
        return original_sweep(self, *args, **kwargs)

    monkeypatch.setattr(Trainer, "fit", counting_fit)
    monkeypatch.setattr(AttackEngine, "generate_sweep", counting_sweep)
    return counts


def serve_on_thread(app):
    """Run ``app`` on a daemon thread; returns (thread, base_netloc)."""
    thread = threading.Thread(
        target=app.run, kwargs={"host": "127.0.0.1", "port": 0}, daemon=True
    )
    thread.start()
    assert app.ready.wait(10), "service never bound its listener"
    return thread


def http_json(app, method, path, payload=None, headers=None):
    """One HTTP exchange against ``app``; returns (status, parsed_body, headers)."""
    conn = http.client.HTTPConnection(app.host, app.port, timeout=60)
    body = json.dumps(payload) if payload is not None else None
    conn.request(method, path, body=body, headers=dict(headers or {}))
    response = conn.getresponse()
    raw = response.read()
    conn.close()
    parsed = json.loads(raw) if raw and raw.strip().startswith(b"{") else raw
    return response.status, parsed, dict(response.getheaders())


def http_raw(app, raw: bytes):
    """Send ``raw`` bytes as one request; returns (status, parsed JSON body)."""
    with socket.create_connection((app.host, app.port), timeout=60) as sock:
        sock.sendall(raw)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    return int(head.split()[1]), json.loads(body)


def wait_terminal(app, job_id, timeout_s=300.0):
    deadline = time.time() + timeout_s
    while time.time() < deadline:
        status, snap, _ = http_json(app, "GET", f"/v1/jobs/{job_id}?result=0")
        assert status == 200
        if snap["state"] in (SUCCEEDED, FAILED):
            return snap
        time.sleep(0.1)
    raise AssertionError(f"job {job_id} never reached a terminal state")


def wait_until(predicate, timeout_s=30.0):
    deadline = time.time() + timeout_s
    while not predicate():
        assert time.time() < deadline, "condition never became true"
        time.sleep(0.005)


def histogram_sum_count(registry, name):
    """(sum, count) of one unlabelled histogram, read from ``render()``."""
    values = {}
    for line in registry.render().splitlines():
        for suffix in ("sum", "count"):
            prefix = f"repro_{name}_{suffix} "
            if line.startswith(prefix):
                values[suffix] = float(line[len(prefix):])
    return values["sum"], values["count"]


def parse_raw(raw: bytes):
    """``read_request`` over a stream holding exactly ``raw``."""

    async def run():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await read_request(reader)

    return asyncio.run(run())


#: request lines that once escaped the parser as a ValueError or a
#: RecursionError instead of a 400
HOSTILE_REQUESTS = {
    "ipv6-target": (b"GET http://[::1/x HTTP/1.1\r\n\r\n", "bad_request_line"),
    "underscore-length": (
        b"POST /v1/query HTTP/1.1\r\nContent-Length: 1_0\r\n\r\n0123456789",
        "bad_content_length",
    ),
    "signed-length": (
        b"POST /v1/query HTTP/1.1\r\nContent-Length: +2\r\n\r\n{}",
        "bad_content_length",
    ),
    "huge-length": (
        b"POST / HTTP/1.1\r\nContent-Length: " + b"9" * 5000 + b"\r\n\r\n",
        "bad_content_length",
    ),
}

DEEP_BODY = b"[" * 200_000

_TOKEN = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=24
)


@st.composite
def request_bytes(draw):
    """Request-shaped bytes: a request line, header lines and a body."""
    method = draw(st.sampled_from(["GET", "POST"]) | _TOKEN)
    target = draw(
        st.sampled_from(["/", "/v1/query?a=1&b", "http://[::1/x", "//[v1/x"]) | _TOKEN
    )
    version = draw(st.sampled_from(["HTTP/1.1", "HTTP/1.0"]) | _TOKEN)
    body = draw(st.binary(max_size=64) | st.sampled_from([b"[" * 5000, b"1" * 5000]))
    names = st.sampled_from(["Content-Length", "Transfer-Encoding", "Host"]) | _TOKEN
    values = st.sampled_from([str(len(body)), "1_0", "-1", "chunked"]) | _TOKEN
    headers = draw(st.lists(st.tuples(names, values), max_size=4))
    head = f"{method} {target} {version}\r\n" + "".join(
        f"{name}: {value}\r\n" for name, value in headers
    )
    return head.encode("latin-1") + b"\r\n" + body


# --------------------------------------------------------------------- units
class TestMetricsRegistry:
    def test_counters_gauges_histograms_render(self):
        metrics = MetricsRegistry()
        metrics.inc("requests_total")
        metrics.inc("requests_total", labels={"path": "/healthz"})
        metrics.set_gauge("queue_depth", lambda: 3.0)
        metrics.observe("latency_seconds", 0.02, buckets=(0.01, 0.1, 1.0))
        text = metrics.render()
        assert "# TYPE repro_requests_total counter" in text
        assert 'repro_requests_total{path="/healthz"} 1' in text
        assert "repro_queue_depth 3" in text
        assert 'repro_latency_seconds_bucket{le="0.1"} 1' in text
        assert 'repro_latency_seconds_bucket{le="+Inf"} 1' in text
        assert "repro_latency_seconds_count 1" in text
        assert metrics.counter_value("requests_total") == 1.0
        assert metrics.gauge_value("queue_depth") == 3.0

    def test_bad_buckets_rejected(self):
        with pytest.raises(ConfigurationError):
            metrics = MetricsRegistry()
            metrics.observe("x", 1.0, buckets=(1.0, 0.5))


class TestProtocol:
    def test_match_path(self):
        assert match_path("/v1/jobs/{id}", "/v1/jobs/abc") == {"id": "abc"}
        assert match_path("/v1/jobs/{id}/events", "/v1/jobs/abc/events") == {
            "id": "abc"
        }
        assert match_path("/v1/jobs/{id}", "/v1/jobs/abc/events") is None
        assert match_path("/v1/jobs/{id}", "/v1/other/abc") is None

    def test_sse_frame_format(self):
        frame = format_sse_event({"a": 1}, event="progress", event_id="7")
        assert frame == b'id: 7\nevent: progress\ndata: {"a": 1}\n\n'

    def test_response_has_length_and_close(self):
        raw = render_response(200, b"hi", "text/plain")
        assert raw.startswith(b"HTTP/1.1 200 OK\r\n")
        assert b"Content-Length: 2" in raw
        assert b"Connection: close" in raw

    def test_json_response_is_one_sorted_line(self):
        raw = json_response(200, {"b": [1, 2], "a": {"d": 1, "c": None}})
        head, body = raw.split(b"\r\n\r\n", 1)
        assert b"Content-Type: application/json" in head
        assert body == b'{"a": {"c": null, "d": 1}, "b": [1, 2]}\n'

    def test_json_response_round_trips_what_a_query_answers(self):
        payload = {
            "accuracy": [0.1, 1e-300, 97.65625],
            "labels": ["M1", "échelle"],
            "grid": [[0.0, -0.0], []],
            "ok": True,
        }
        _, body = json_response(200, payload).split(b"\r\n\r\n", 1)
        assert body.count(b"\n") == 1
        assert json.loads(body) == payload

    def test_parse_deadline_header_and_body(self):
        request = Request(
            method="POST",
            target="/v1/query",
            path="/v1/query",
            query={},
            headers={"x-repro-deadline-s": "2.5"},
        )
        assert parse_deadline_s(request) == 2.5
        assert parse_deadline_s(request, {"deadline_s": 1.0}) == 1.0  # body wins
        with pytest.raises(HttpError) as excinfo:
            parse_deadline_s(request, {"deadline_s": -1})
        assert excinfo.value.status == 400
        for hostile in (float("nan"), float("inf")):
            with pytest.raises(HttpError, match="finite"):
                parse_deadline_s(request, {"deadline_s": hostile})

    @pytest.mark.parametrize("case", sorted(HOSTILE_REQUESTS))
    def test_hostile_request_is_a_400(self, case):
        raw, code = HOSTILE_REQUESTS[case]
        with pytest.raises(HttpError) as excinfo:
            parse_raw(raw)
        assert (excinfo.value.status, excinfo.value.code) == (400, code)

    def test_plain_content_length_still_reads_the_body(self):
        request = parse_raw(
            b"POST /v1/query?x=1 HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}"
        )
        assert request.path == "/v1/query"
        assert (request.query, request.json()) == ({"x": "1"}, {})

    @pytest.mark.parametrize(
        "body", [DEEP_BODY, b"1" * 5000, b"\xff"], ids=["deep", "huge-int", "not-utf8"]
    )
    def test_unparseable_json_body_is_invalid_json(self, body):
        request = Request("POST", "/", "/", {}, {}, body=body)
        with pytest.raises(HttpError) as excinfo:
            request.json()
        assert (excinfo.value.status, excinfo.value.code) == (400, "invalid_json")

    @settings(max_examples=300, deadline=None)
    @given(raw=st.binary(max_size=256) | request_bytes())
    @example(raw=HOSTILE_REQUESTS["ipv6-target"][0])
    @example(
        raw=b"POST / HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % len(DEEP_BODY)
        + DEEP_BODY
    )
    def test_arbitrary_bytes_parse_or_fail_cleanly(self, raw):
        """Any byte string yields a Request, a clean EOF (None) or an
        HttpError; a parsed body's JSON is a value or an HttpError too."""
        try:
            request = parse_raw(raw)
        except HttpError as exc:
            assert 400 <= exc.status < 500
            return
        assert request is None or isinstance(request, Request)
        if request is not None and request.body:
            try:
                request.json()
            except HttpError as exc:
                assert exc.status == 400


class TestCoalescer:
    def test_attach_shares_one_entry(self):
        coalescer = Coalescer()
        first, attached_first = coalescer.attach("k", lambda: object())
        second, attached_second = coalescer.attach("k", lambda: object())
        assert first is second
        assert (attached_first, attached_second) == (False, True)
        assert coalescer.hits == 1 and coalescer.misses == 1

    def test_failed_entries_are_replaced(self):
        coalescer = Coalescer(retry_failed=lambda entry: entry["failed"])
        first, _ = coalescer.attach("k", lambda: {"failed": True})
        second, attached = coalescer.attach("k", lambda: {"failed": False})
        assert second is not first and not attached
        third, attached = coalescer.attach("k", lambda: {"failed": False})
        assert third is second and attached


# ------------------------------------------------------------ scheduler units
class _StubResult:
    from_cache = False
    elapsed_s = 0.01

    def to_dict(self):
        return {"stub": True}


def _install_stub_session(monkeypatch, gate=None, fail=False):
    """Replace the scheduler's Session with a cheap stub (no training)."""

    class StubSession:
        def __init__(self, store=None, workers=None, progress=None):
            self.progress = progress

        def run(self, spec):
            if gate is not None:
                assert gate.wait(30), "stub session gate never opened"
            if fail:
                raise RuntimeError("stub failure")
            return _StubResult()

    monkeypatch.setattr(scheduler_module, "Session", StubSession)


class TestScheduler:
    def test_queue_overflow_raises_with_retry_after(self, store, monkeypatch):
        gate = threading.Event()
        _install_stub_session(monkeypatch, gate=gate)
        scheduler = JobScheduler(store=store, workers=1, queue_depth=1)
        try:
            # first occupies the single worker, second the single queue slot
            scheduler.submit(tiny_spec(sweep=SweepSpec(epsilons=(0.1,), n_samples=1)))
            time.sleep(0.1)  # let the worker dequeue the first job
            scheduler.submit(tiny_spec(sweep=SweepSpec(epsilons=(0.2,), n_samples=1)))
            with pytest.raises(QueueFullError) as excinfo:
                scheduler.submit(
                    tiny_spec(sweep=SweepSpec(epsilons=(0.3,), n_samples=1))
                )
            assert excinfo.value.retry_after_s >= 1.0
            # identical spec still attaches even at depth: no new slot needed
            job, coalesced = scheduler.submit(
                tiny_spec(sweep=SweepSpec(epsilons=(0.2,), n_samples=1))
            )
            assert coalesced
            assert scheduler.metrics.counter_value("jobs_rejected_total") == 1.0
        finally:
            gate.set()
            assert scheduler.drain(timeout_s=30)

    def test_expired_deadline_fails_before_running(self, store, monkeypatch):
        gate = threading.Event()
        _install_stub_session(monkeypatch, gate=gate)
        scheduler = JobScheduler(store=store, workers=1, queue_depth=4)
        try:
            scheduler.submit(tiny_spec(sweep=SweepSpec(epsilons=(0.1,), n_samples=1)))
            time.sleep(0.1)
            job, _ = scheduler.submit(
                tiny_spec(sweep=SweepSpec(epsilons=(0.2,), n_samples=1)),
                deadline_s=0.05,
            )
            time.sleep(0.2)  # let the queued job's budget expire
        finally:
            gate.set()
        assert job.wait(30)
        assert job.state == FAILED
        assert job.error["error"] == "deadline_exceeded"
        assert scheduler.drain(timeout_s=30)

    def test_failed_job_records_error_and_is_retried(self, store, monkeypatch):
        _install_stub_session(monkeypatch, fail=True)
        scheduler = JobScheduler(store=store, workers=1, queue_depth=4)
        spec = tiny_spec(sweep=SweepSpec(epsilons=(0.1,), n_samples=1))
        job, coalesced = scheduler.submit(spec)
        assert job.wait(30) and job.state == FAILED
        assert job.error["error"] == "RuntimeError"
        # resubmitting a failed spec starts a NEW job, not an attach
        retry, coalesced = scheduler.submit(spec)
        assert retry is not job and not coalesced
        assert retry.wait(30)
        assert scheduler.drain(timeout_s=30)

    def test_drain_rejects_new_work(self, store, monkeypatch):
        _install_stub_session(monkeypatch)
        scheduler = JobScheduler(store=store, workers=1, queue_depth=4)
        job, _ = scheduler.submit(tiny_spec(sweep=SweepSpec(epsilons=(0.1,), n_samples=1)))
        assert scheduler.drain(timeout_s=30)
        assert job.terminal
        from repro.service import DrainingError

        with pytest.raises(DrainingError):
            scheduler.submit(tiny_spec(sweep=SweepSpec(epsilons=(0.5,), n_samples=1)))

    def test_event_log_is_gap_free_and_resumable(self, store, monkeypatch):
        _install_stub_session(monkeypatch)
        scheduler = JobScheduler(store=store, workers=1, queue_depth=4)
        job, _ = scheduler.submit(tiny_spec(sweep=SweepSpec(epsilons=(0.1,), n_samples=1)))
        assert job.wait(30)
        events = job.events_since(0)
        assert [event["seq"] for event in events] == list(range(1, len(events) + 1))
        cursor = events[1]["seq"]
        assert [e["seq"] for e in job.events_since(cursor)] == [
            e["seq"] for e in events[2:]
        ]
        assert scheduler.drain(timeout_s=30)


# ------------------------------------------------------------- HTTP end to end
class TestHttpEndToEnd:
    def test_coalesced_submissions_one_computation_bit_identical(
        self, tmp_path, counters
    ):
        app = ServiceApp(store=str(tmp_path / "store"), workers=2, queue_depth=8)
        serve_on_thread(app)
        try:
            document = tiny_spec().to_dict()
            results = [None] * 4

            def submit(index):
                results[index] = http_json(app, "POST", "/v1/experiments", document)

            threads = [
                threading.Thread(target=submit, args=(index,)) for index in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

            statuses = [status for status, _, _ in results]
            assert statuses == [202, 202, 202, 202]
            job_ids = {body["job_id"] for _, body, _ in results}
            assert len(job_ids) == 1, "identical specs must share one job"
            fresh = [body for _, body, _ in results if not body["coalesced"]]
            assert len(fresh) == 1, "exactly one submission creates the job"
            job_id = job_ids.pop()

            snap = wait_terminal(app, job_id)
            assert snap["state"] == SUCCEEDED
            assert counters == {"train": 1, "craft": 1}

            # the served result is bit-identical to a direct Session.run
            status, served, _ = http_json(app, "GET", f"/v1/jobs/{job_id}")
            assert status == 200
            # local-only: an env remote would serve the service's model
            # and the "trained its own copy" assertion below would fail
            direct = Session(
                store=str(tmp_path / "direct"), store_url=""
            ).run(tiny_spec())
            assert served["result"] == direct.to_dict()
            assert counters["train"] == 2  # the direct run trained its own copy

            # SSE stream: gap-free increasing seq, then a done frame
            conn = http.client.HTTPConnection(app.host, app.port, timeout=60)
            conn.request("GET", f"/v1/jobs/{job_id}/events")
            response = conn.getresponse()
            assert response.getheader("Content-Type") == "text/event-stream"
            stream = response.read().decode("utf-8")
            conn.close()
            frames = [frame for frame in stream.split("\n\n") if frame.strip()]
            assert frames[-1].startswith("event: done")
            seqs = [
                int(line.split(": ", 1)[1])
                for frame in frames
                for line in frame.splitlines()
                if line.startswith("id: ")
            ]
            assert seqs == list(range(1, len(seqs) + 1))

            # Last-Event-ID resumes mid-stream without duplicates
            conn = http.client.HTTPConnection(app.host, app.port, timeout=60)
            conn.request(
                "GET",
                f"/v1/jobs/{job_id}/events",
                headers={"Last-Event-ID": str(seqs[1])},
            )
            resumed = conn.getresponse().read().decode("utf-8")
            conn.close()
            resumed_seqs = [
                int(line.split(": ", 1)[1])
                for line in resumed.splitlines()
                if line.startswith("id: ")
            ]
            assert resumed_seqs == seqs[2:]

            # metrics expose the coalesce hits and store counters
            status, metrics_text, _ = http_json(app, "GET", "/metrics")
            assert status == 200
            text = metrics_text.decode("utf-8")
            assert "repro_coalesce_hits_total 3" in text
            assert "repro_jobs_submitted_total 1" in text
            assert "repro_store_hits" in text
        finally:
            app.request_shutdown()

    @pytest.mark.parametrize(
        "section, field, value, path",
        [
            ("attacks", "params", {"bogus": 1}, "attacks[0].params.bogus"),
            ("victims", "kernel", "warp", "victims.kernel"),
        ],
    )
    def test_unknown_attack_param_or_kernel_is_400(
        self, tmp_path, section, field, value, path
    ):
        # rejected when the spec is parsed, before any training starts
        app = ServiceApp(store=str(tmp_path / "store"), workers=1, queue_depth=2)
        serve_on_thread(app)
        try:
            document = tiny_spec().to_dict()
            target = document[section]
            (target[0] if isinstance(target, list) else target)[field] = value
            status, body, _ = http_json(app, "POST", "/v1/experiments", document)
            assert (status, body["error"], body["path"]) == (400, "invalid_spec", path)
            status, metrics_text, _ = http_json(app, "GET", "/metrics")
            assert "repro_jobs_submitted_total" not in metrics_text.decode("utf-8")
        finally:
            app.request_shutdown()

    def test_validation_errors_and_routing(self, tmp_path):
        app = ServiceApp(store=str(tmp_path / "store"), workers=1, queue_depth=2)
        serve_on_thread(app)
        try:
            document = tiny_spec().to_dict()
            document["model"]["n_train"] = -5
            status, body, _ = http_json(app, "POST", "/v1/experiments", document)
            assert status == 400
            assert body["error"] == "invalid_spec"
            assert body["path"] == "model.n_train"
            assert "n_train" in body["message"]

            # hostile input is a structured 400, never a 500 or no answer
            status, body, _ = http_json(
                app, "POST", "/v1/query", {"victims": {"multipliers": 5}}
            )
            assert (status, body["error"], body["path"]) == (
                400,
                "invalid_query",
                "multipliers",
            )
            status, body = http_raw(app, HOSTILE_REQUESTS["ipv6-target"][0])
            assert (status, body["error"]) == (400, "bad_request_line")
            deep = b"POST /v1/query HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s" % (
                len(DEEP_BODY),
                DEEP_BODY,
            )
            status, body = http_raw(app, deep)
            assert (status, body["error"]) == (400, "invalid_json")

            status, body, _ = http_json(app, "GET", "/v1/jobs/nope")
            assert (status, body["error"]) == (404, "unknown_job")
            status, body, _ = http_json(app, "GET", "/v1/experiments")
            assert (status, body["error"]) == (405, "method_not_allowed")
            status, body, _ = http_json(app, "GET", "/nowhere")
            assert (status, body["error"]) == (404, "not_found")
            status, body, _ = http_json(app, "GET", "/healthz")
            assert (status, body["status"]) == (200, "ok")

            status, body, _ = http_json(
                app,
                "POST",
                "/v1/experiments",
                tiny_spec().to_dict(),
                headers={"X-Repro-Deadline-S": "-3"},
            )
            assert (status, body["error"]) == (400, "bad_deadline")
        finally:
            app.request_shutdown()

    def test_queue_overflow_returns_429_with_retry_after(
        self, tmp_path, monkeypatch
    ):
        gate = threading.Event()
        _install_stub_session(monkeypatch, gate=gate)
        app = ServiceApp(store=str(tmp_path / "store"), workers=1, queue_depth=1)
        serve_on_thread(app)
        try:
            specs = [
                tiny_spec(sweep=SweepSpec(epsilons=(0.1 * (i + 1),), n_samples=1))
                for i in range(3)
            ]
            status, _, _ = http_json(app, "POST", "/v1/experiments", specs[0].to_dict())
            assert status == 202
            time.sleep(0.1)  # worker dequeues the first job, then blocks on gate
            status, _, _ = http_json(app, "POST", "/v1/experiments", specs[1].to_dict())
            assert status == 202
            status, body, headers = http_json(
                app, "POST", "/v1/experiments", specs[2].to_dict()
            )
            assert status == 429
            assert body["error"] == "queue_full"
            assert float(headers["Retry-After"]) >= 1.0
        finally:
            gate.set()
            app.request_shutdown()


QUERY_VICTIMS = VictimSpec(multipliers=("M1", "M4"), calibration_samples=32)


class _StubEvaluator:
    """Answers each item with its sample index; the first batch blocks on
    ``gate`` (when given) and ``fail_first`` makes it raise instead."""

    def __init__(self, gate=None, fail_first=False):
        self.gate = gate
        self.fail_first = fail_first
        self.batches = []
        self.keys = []
        self.threads = set()
        self.entered = threading.Event()

    def evaluate(self, model_spec, victim_spec, items, key=None):
        self.batches.append([item.sample_index for item in items])
        self.keys.append(key)
        self.threads.add(threading.current_thread())
        first = len(self.batches) == 1
        self.entered.set()
        if first and self.gate is not None:
            assert self.gate.wait(30)
        if first and self.fail_first:
            raise RuntimeError("evaluator exploded")
        return [(200, {"sample_index": item.sample_index}) for item in items]


async def _until(predicate, timeout_s=30.0):
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout_s
    while not predicate():
        assert loop.time() < deadline, "condition never became true"
        await asyncio.sleep(0.001)


def _submit(batcher, index, deadline=None):
    return asyncio.ensure_future(
        batcher.submit(
            TINY_MODEL, QUERY_VICTIMS, QueryItem(sample_index=index), deadline
        )
    )


class TestMicroBatcher:
    """The work-conserving dispatch rule, against a stub evaluator."""

    def test_lone_query_on_idle_batcher_has_no_hold(self, monkeypatch):
        """A query that finds the evaluator idle closes its bucket at
        ``submit``, and nothing timed runs before its batch: no
        ``Condition.wait`` with a timeout, no ``call_later``/``call_at``
        timer and no sleep."""
        registry = MetricsRegistry()
        evaluator = _StubEvaluator()
        timed = []
        sleep = time.sleep

        def recording_sleep(seconds):
            timed.append(("sleep", seconds))
            sleep(seconds)

        monkeypatch.setattr(time, "sleep", recording_sleep)

        class RecordingCondition(threading.Condition):
            def wait(self, timeout=None):
                if timeout is not None:
                    timed.append(("wait", timeout))
                return super().wait(timeout)

        async def scenario():
            loop = asyncio.get_running_loop()
            for name in ("call_later", "call_at"):
                schedule = getattr(loop, name)

                def recording(when, *args, _name=name, _schedule=schedule, **kwargs):
                    timed.append((_name, when))
                    return _schedule(when, *args, **kwargs)

                monkeypatch.setattr(loop, name, recording)
            batcher = MicroBatcher(evaluator, metrics=registry)
            batcher._wake = RecordingCondition(batcher._lock)
            open_at_dispatch = []
            next_bucket = batcher._next_bucket

            def recording_next_bucket():
                open_at_dispatch.append(
                    [bucket.key in batcher._open for bucket in batcher._queue]
                )
                return next_bucket()

            batcher._next_bucket = recording_next_bucket
            answer = await _submit(batcher, 3)
            held = list(timed)
            await batcher.drain()
            return answer, open_at_dispatch, held

        answer, open_at_dispatch, held = asyncio.run(scenario())
        assert answer == (200, {"sample_index": 3})
        assert open_at_dispatch == [[False]], "the lone query's bucket stayed open"
        assert held == [], f"a timed wait ran before the lone query's batch: {held}"
        _, waits = histogram_sum_count(registry, "query_wait_seconds")
        assert waits == 1
        assert evaluator.batches == [[3]]

    def test_arrivals_during_a_batch_form_one_next_batch(self):
        gate = threading.Event()
        evaluator = _StubEvaluator(gate=gate)

        async def scenario():
            batcher = MicroBatcher(evaluator)
            first = _submit(batcher, 0)
            await _until(evaluator.entered.is_set)
            waiting = [_submit(batcher, index) for index in range(1, 6)]
            await _until(lambda: batcher.pending_count == 6)
            assert evaluator.batches == [[0]]
            gate.set()
            answers = await asyncio.gather(first, *waiting)
            await batcher.drain()
            return answers

        answers = asyncio.run(scenario())
        assert [payload["sample_index"] for _, payload in answers] == list(range(6))
        assert evaluator.batches == [[0], [1, 2, 3, 4, 5]]

    def test_max_batch_still_splits(self):
        gate = threading.Event()
        evaluator = _StubEvaluator(gate=gate)

        async def scenario():
            batcher = MicroBatcher(evaluator, max_batch=2)
            futures = [_submit(batcher, 0)]
            await _until(evaluator.entered.is_set)
            futures += [_submit(batcher, index) for index in range(1, 6)]
            await _until(lambda: batcher.pending_count == 6)
            gate.set()
            await asyncio.gather(*futures)
            await batcher.drain()

        asyncio.run(scenario())
        assert evaluator.batches == [[0], [1, 2], [3, 4], [5]]

    def test_drain_flushes_waiting_and_awaits_inflight(self):
        gate = threading.Event()
        evaluator = _StubEvaluator(gate=gate)

        async def scenario():
            batcher = MicroBatcher(evaluator)
            futures = [_submit(batcher, 0)]
            await _until(evaluator.entered.is_set)
            futures += [_submit(batcher, index) for index in (1, 2)]
            await _until(lambda: batcher.pending_count == 3)
            drain = asyncio.ensure_future(batcher.drain())
            await asyncio.sleep(0.05)
            assert not drain.done(), "drain returned with a batch in flight"
            gate.set()
            await drain
            assert all(future.done() for future in futures)
            return [future.result()[0] for future in futures]

        assert asyncio.run(scenario()) == [200, 200, 200]
        assert evaluator.batches == [[0], [1, 2]]

    def test_expired_deadline_gets_504(self):
        gate = threading.Event()
        evaluator = _StubEvaluator(gate=gate)

        async def scenario():
            batcher = MicroBatcher(evaluator)
            first = _submit(batcher, 0)
            await _until(evaluator.entered.is_set)
            late = _submit(batcher, 1, deadline=Deadline(0.01))
            await asyncio.sleep(0.05)
            gate.set()
            answers = await asyncio.gather(first, late)
            await batcher.drain()
            return answers

        (status, _), (late_status, late_body) = asyncio.run(scenario())
        assert status == 200
        assert late_status == 504
        assert late_body["error"] == "deadline_exceeded"
        assert evaluator.batches == [[0]]

    def test_failed_batch_fails_alone(self):
        gate = threading.Event()
        evaluator = _StubEvaluator(gate=gate, fail_first=True)

        async def scenario():
            batcher = MicroBatcher(evaluator)
            first = _submit(batcher, 0)
            await _until(evaluator.entered.is_set)
            second = _submit(batcher, 1)
            await _until(lambda: batcher.pending_count == 2)
            gate.set()
            answers = await asyncio.gather(first, second)
            await batcher.drain()
            return answers

        (status, body), (second_status, _) = asyncio.run(scenario())
        assert status == 500 and body["error"] == "RuntimeError"
        assert second_status == 200


class _ClassZero:
    def predict_classes(self, batch):
        return np.zeros(len(batch), dtype=np.int64)


class _ClassZeroPanel:
    def predict_classes(self, batch):
        return {name: _ClassZero().predict_classes(batch) for name in ("M1", "M4")}


class TestEvaluatorThread:
    """The one evaluator thread takes its batches itself: the event loop
    only queues queries and receives answers."""

    def test_blocked_event_loop_does_not_stall_queued_batches(self):
        gate = threading.Event()
        evaluator = _StubEvaluator(gate=gate)
        other = VictimSpec(multipliers=("M1",), calibration_samples=32)

        async def scenario():
            batcher = MicroBatcher(evaluator)
            futures = [_submit(batcher, 0)]
            await _until(evaluator.entered.is_set)
            futures.append(asyncio.ensure_future(
                batcher.submit(TINY_MODEL, other, QueryItem(sample_index=1))
            ))
            futures.append(_submit(batcher, 2))
            await _until(lambda: batcher.pending_count == 3)
            gate.set()
            # block the loop: both queued buckets must still be evaluated
            blocked_until = time.monotonic() + 30
            while len(evaluator.batches) < 3:
                assert time.monotonic() < blocked_until, evaluator.batches
                time.sleep(0.001)
            answers = await asyncio.gather(*futures)
            await batcher.drain()
            return answers

        answers = asyncio.run(scenario())
        assert [payload["sample_index"] for _, payload in answers] == [0, 1, 2]
        assert evaluator.batches == [[0], [1], [2]]
        assert evaluator.keys[0] == evaluator.keys[2] != evaluator.keys[1]

    def test_failing_batch_leaves_the_thread_serving(self):
        evaluator = _StubEvaluator(fail_first=True)

        async def scenario():
            batcher = MicroBatcher(evaluator)
            first = await _submit(batcher, 0)
            thread = batcher._thread
            second = await _submit(batcher, 1)
            assert batcher._thread is thread and thread.is_alive()
            await batcher.drain()
            return first, second

        (status, body), second = asyncio.run(scenario())
        assert status == 500 and body["error"] == "RuntimeError"
        assert second == (200, {"sample_index": 1})
        assert len(evaluator.threads) == 1

    def test_drain_returns_after_the_thread_exits(self):
        gate = threading.Event()
        evaluator = _StubEvaluator(gate=gate)

        async def scenario():
            batcher = MicroBatcher(evaluator)
            futures = [_submit(batcher, 0)]
            await _until(evaluator.entered.is_set)
            futures += [_submit(batcher, index) for index in (1, 2)]
            await _until(lambda: batcher.pending_count == 3)
            (thread,) = evaluator.threads
            drain = asyncio.ensure_future(batcher.drain())
            await asyncio.sleep(0.05)
            assert not drain.done() and thread.is_alive()
            gate.set()
            await drain
            assert not thread.is_alive()
            assert batcher._thread is None
            assert batcher.pending_count == 0
            assert all(future.done() for future in futures)

        asyncio.run(scenario())
        assert evaluator.batches == [[0], [1, 2]]

    def test_pending_count_returns_to_zero(self):
        evaluator = _StubEvaluator()
        registry = MetricsRegistry()

        async def scenario():
            batcher = MicroBatcher(evaluator, max_batch=2, metrics=registry)
            answers = await asyncio.gather(*(_submit(batcher, i) for i in range(5)))
            pending = batcher.pending_count
            await batcher.drain()
            return answers, pending

        answers, pending = asyncio.run(scenario())
        assert pending == 0
        assert [payload["sample_index"] for _, payload in answers] == list(range(5))
        assert threading.main_thread() not in evaluator.threads
        assert "repro_query_pending 0" in registry.render()

    def test_target_key_is_hashed_once_per_query(self, tmp_path, monkeypatch):
        key = target_key(TINY_MODEL, QUERY_VICTIMS)
        evaluator = QueryEvaluator(store=str(tmp_path / "store"))
        evaluator._targets[key] = QueryTarget(
            key=key,
            model_spec=TINY_MODEL,
            victim_spec=QUERY_VICTIMS,
            trained=SimpleNamespace(model=_ClassZero()),
            victims={"M1": _ClassZero(), "M4": _ClassZero()},
            panel=_ClassZeroPanel(),
            image_shape=(2, 2),
        )
        hashes = []
        content_hash = microbatch_module.content_hash

        def counting_hash(*args, **kwargs):
            hashes.append(args)
            return content_hash(*args, **kwargs)

        monkeypatch.setattr(microbatch_module, "content_hash", counting_hash)

        async def scenario():
            batcher = MicroBatcher(evaluator)
            answers = await asyncio.gather(*(
                batcher.submit(TINY_MODEL, QUERY_VICTIMS, QueryItem(image=np.zeros((2, 2))))
                for _ in range(4)
            ))
            await batcher.drain()
            return answers

        answers = asyncio.run(scenario())
        assert [status for status, _ in answers] == [200] * 4
        assert all(payload["target"] == key for _, payload in answers)
        assert len(hashes) == 4


class TestQueryImages:
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_image_is_an_invalid_query(self, tmp_path, value):
        evaluator = QueryEvaluator(store=str(tmp_path / "store"))
        target = SimpleNamespace(image_shape=(2, 2, 1))
        image = [[[0.5], [value]], [[0.0], [1.0]]]
        with pytest.raises(ConfigurationError, match="NaN or infinite"):
            evaluator._item_image(target, QueryItem(image=image))
        finite = evaluator._item_image(target, QueryItem(image=[[[0.5], [2.0]], [[0.0], [1.0]]]))
        assert finite.shape == (2, 2, 1)


class TestOneVictimTarget:
    def test_one_multiplier_answers_like_predict_classes(self, tmp_path):
        """A one-victim target runs through its one-victim panel and answers
        what the victim's own ``AxModel.predict_classes`` does."""
        evaluator = QueryEvaluator(store=str(tmp_path / "store"))
        victims = VictimSpec(multipliers=("M4",), calibration_samples=32)
        target = evaluator.resolve(TINY_MODEL, victims)
        assert list(target.panel.victims) == ["M4"]
        test = target.trained.dataset.test
        image = np.asarray(test.images[5], dtype=np.float64) - 0.25
        items = [QueryItem(sample_index=index) for index in range(4)]
        items.append(QueryItem(image=image.tolist(), label=1))
        answers = evaluator.evaluate(TINY_MODEL, victims, items)
        batch = np.concatenate([test.images[:4], image[None]]).astype(np.float64)
        expected = target.victims["M4"].predict_classes(batch)
        source = target.trained.model.predict_classes(batch)
        assert [status for status, _ in answers] == [200] * 5
        for row, (_, payload) in enumerate(answers):
            assert payload["predictions"] == {"M4": int(expected[row])}
            assert payload["source_prediction"] == int(source[row])
        assert answers[-1][1]["correct"] == {"M4": int(expected[-1]) == 1}


class TestQueryMicroBatching:
    def test_concurrent_queries_fuse_and_match_serial(self, tmp_path):
        app = ServiceApp(
            store=str(tmp_path / "store"), workers=1, queue_depth=2, max_batch=32
        )
        serve_on_thread(app)
        try:
            model = TINY_MODEL.to_dict()
            victims = VictimSpec(
                multipliers=("M1", "M4"), calibration_samples=32
            ).to_dict()

            # prime the target (trains once) with a lone query
            status, first, _ = http_json(
                app,
                "POST",
                "/v1/query",
                {"model": model, "victims": victims, "sample_index": 0},
            )
            assert status == 200
            assert set(first["predictions"]) == {"M1", "M4"}
            batches_before = app.metrics.counter_value("query_batches_total")

            # hold the first batch in the evaluator until every other query
            # is waiting, so the waiting ones must fuse into one next batch
            gate, entered = threading.Event(), threading.Event()
            batch_sizes = []
            evaluate = app.evaluator.evaluate

            def gated_evaluate(model_spec, victim_spec, items, key=None):
                batch_sizes.append(len(items))
                if len(batch_sizes) == 1:
                    entered.set()
                    assert gate.wait(60)
                return evaluate(model_spec, victim_spec, items, key)

            app.evaluator.evaluate = gated_evaluate
            indices = list(range(1, 7))
            answers = [None] * len(indices)

            def query(position, sample_index):
                answers[position] = http_json(
                    app,
                    "POST",
                    "/v1/query",
                    {
                        "model": model,
                        "victims": victims,
                        "sample_index": sample_index,
                        "label": 0,
                    },
                )

            threads = [
                threading.Thread(target=query, args=(position, sample_index))
                for position, sample_index in enumerate(indices)
            ]
            for thread in threads:
                thread.start()
            assert entered.wait(60), "the first query was never dispatched"
            wait_until(lambda: app.batcher.pending_count == len(indices))
            gate.set()
            for thread in threads:
                thread.join()
            app.evaluator.evaluate = evaluate

            assert all(status == 200 for status, _, _ in answers)
            batches = (
                app.metrics.counter_value("query_batches_total") - batches_before
            )
            assert batches == 2 and batch_sizes == [1, len(indices) - 1], (
                f"queries waiting behind a batch should fuse into one next "
                f"batch, got batch sizes {batch_sizes}"
            )

            # bit-identity: each fused answer equals the serial answer
            for position, sample_index in enumerate(indices):
                status, serial, _ = http_json(
                    app,
                    "POST",
                    "/v1/query",
                    {
                        "model": model,
                        "victims": victims,
                        "sample_index": sample_index,
                        "label": 0,
                    },
                )
                assert status == 200
                assert answers[position][1] == serial

            # malformed items fail alone with a structured 400
            status, body, _ = http_json(
                app,
                "POST",
                "/v1/query",
                {"model": model, "victims": victims, "sample_index": 10_000},
            )
            assert status == 400
            assert body["error"] == "invalid_query"
            status, body, _ = http_json(
                app,
                "POST",
                "/v1/query",
                {"model": model, "victims": victims, "image": [[1.0, 2.0]]},
            )
            assert status == 400
            assert "shape" in body["message"]
            status, body, _ = http_json(
                app,
                "POST",
                "/v1/query",
                {"model": model, "victims": victims, "image": [[1.0], [2.0, 3.0]]},
            )
            assert (status, body["error"]) == (400, "invalid_query")
            # JSON's NaN and Infinity literals parse, but no code quantizes them
            shape = app.evaluator.resolve(
                TINY_MODEL, VictimSpec.from_dict(victims)
            ).image_shape
            for value in (float("nan"), float("inf"), float("-inf")):
                image = np.zeros(shape)
                image[(0,) * len(shape)] = value
                status, body, _ = http_json(
                    app,
                    "POST",
                    "/v1/query",
                    {"model": model, "victims": victims, "image": image.tolist()},
                )
                assert (status, body["error"]) == (400, "invalid_query"), value
                assert "NaN or infinite" in body["message"]
            status, body, _ = http_json(
                app, "POST", "/v1/query", {"model": model, "victims": victims}
            )
            assert status == 400

            # the victims' pass is timed inside each batch's evaluation
            status, metrics_text, _ = http_json(app, "GET", "/metrics")
            text = metrics_text.decode("utf-8")
            panel_count = next(
                line for line in text.splitlines()
                if line.startswith("repro_query_panel_seconds_count")
            )
            assert int(panel_count.split()[-1]) >= 3
            assert "# TYPE repro_query_panel_seconds histogram" in text
        finally:
            app.request_shutdown()


class TestGracefulDrain:
    def test_shutdown_finishes_accepted_jobs(self, tmp_path, monkeypatch):
        gate = threading.Event()
        _install_stub_session(monkeypatch, gate=gate)
        app = ServiceApp(
            store=str(tmp_path / "store"), workers=1, queue_depth=4,
            drain_timeout_s=30.0,
        )
        thread = serve_on_thread(app)
        spec = tiny_spec(sweep=SweepSpec(epsilons=(0.1,), n_samples=1))
        status, body, _ = http_json(app, "POST", "/v1/experiments", spec.to_dict())
        assert status == 202
        job = app.scheduler.get(body["job_id"])
        time.sleep(0.1)  # the worker picks the job up and blocks on the gate
        app.request_shutdown()  # drain starts while the job is mid-flight
        time.sleep(0.1)
        gate.set()
        thread.join(30)
        assert not thread.is_alive(), "server did not shut down"
        assert job.state == SUCCEEDED, "drain must finish accepted jobs"
