"""Benchmarks of the robustness evaluation service.

Not a paper figure — these measure the two throughput mechanisms the
service adds on top of the Session pipeline:

* **request coalescing** — N concurrent identical submissions share ONE
  ``Session.run``; the benchmark measures submissions/s at the HTTP layer
  and asserts the coalesce hit rate (N-1 of N).
* **query micro-batching** — K concurrent single-sample queries fuse into
  a handful of batched predict passes (queries that arrive while a batch
  runs form the next one); the benchmark compares fused against strictly
  serial queries on the same booted server and records both rates.  Answers are bit-identical by contract (asserted in
  tests/test_service.py); here only the clock moves.

The server under test is the real thing: a ``ServiceApp`` bound to a
loopback port, driven through ``http.client``.  Scale stays CI-sized — a
tiny LeNet target, tens of queries — because the mechanisms under test
(lock contention, event-loop dispatch, batch formation) do not need a
large model to show up.

Results land in ``benchmarks/results/BENCH_service.json`` via the shared
``suite`` fixture.
"""

import http.client
import json
import threading
import time

import pytest

from repro.experiments import (
    AttackSpec,
    ExperimentSpec,
    ModelSpec,
    SweepSpec,
    VictimSpec,
)
from repro.service import ServiceApp

#: tiny-but-real service workload (training a LeNet-5 on 128 samples)
SERVICE_MODEL = ModelSpec(
    architecture="lenet5", dataset="mnist", n_train=128, n_test=64, epochs=1
)
SERVICE_VICTIMS = VictimSpec(multipliers=("M1", "M4"), calibration_samples=32)

N_SUBMITTERS = 8
N_QUERIES = 24


def service_spec() -> ExperimentSpec:
    return ExperimentSpec(
        name="bench-service",
        model=SERVICE_MODEL,
        victims=SERVICE_VICTIMS,
        attacks=(AttackSpec(attack="FGM_linf"),),
        sweep=SweepSpec(epsilons=(0.0, 0.1), n_samples=8),
    )


@pytest.fixture()
def app(tmp_path):
    server = ServiceApp(
        store=str(tmp_path / "store"),
        workers=2,
        queue_depth=32,
        max_batch=32,
    )
    thread = threading.Thread(
        target=server.run, kwargs={"host": "127.0.0.1", "port": 0}, daemon=True
    )
    thread.start()
    assert server.ready.wait(10)
    yield server
    server.request_shutdown()
    thread.join(30)


def _post(server, path, payload):
    conn = http.client.HTTPConnection(server.host, server.port, timeout=120)
    conn.request("POST", path, body=json.dumps(payload))
    response = conn.getresponse()
    body = json.loads(response.read())
    conn.close()
    return response.status, body


def _get(server, path):
    conn = http.client.HTTPConnection(server.host, server.port, timeout=120)
    conn.request("GET", path)
    response = conn.getresponse()
    body = json.loads(response.read())
    conn.close()
    return response.status, body


def _wait_terminal(server, job_id, timeout_s=600.0):
    deadline = time.time() + timeout_s
    while time.time() < deadline:
        _, snap = _get(server, f"/v1/jobs/{job_id}?result=0")
        if snap["state"] in ("succeeded", "failed"):
            return snap
        time.sleep(0.1)
    raise AssertionError("benchmark job never finished")


@pytest.mark.benchmark(group="service")
def test_service_submission_coalescing(benchmark, suite, app):
    """N concurrent identical submissions -> one computation, N answers."""
    document = service_spec().to_dict()
    statuses = [None] * N_SUBMITTERS

    def submit_all():
        def submit(index):
            statuses[index], _ = _post(app, "/v1/experiments", document)

        threads = [
            threading.Thread(target=submit, args=(index,))
            for index in range(N_SUBMITTERS)
        ]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return time.perf_counter() - start

    submit_wall_s = benchmark.pedantic(submit_all, rounds=1, iterations=1)
    assert statuses == [202] * N_SUBMITTERS
    snap = _wait_terminal(app, service_spec().content_hash())
    assert snap["state"] == "succeeded"

    coalesce_hits = app.metrics.counter_value("coalesce_hits_total")
    jobs_run = app.metrics.counter_value("jobs_submitted_total")
    assert jobs_run == 1.0, "identical specs must collapse onto one job"
    assert coalesce_hits == float(N_SUBMITTERS - 1)
    suite.record(
        "coalescing.submissions_per_s",
        N_SUBMITTERS / submit_wall_s,
        unit="1/s",
        higher_is_better=True,
        n_submitters=N_SUBMITTERS,
    )
    suite.record(
        "coalescing.hit_rate",
        coalesce_hits / N_SUBMITTERS,
        unit="ratio",
        higher_is_better=True,
    )
    benchmark.extra_info.update(
        {"submit_wall_s": submit_wall_s, "coalesce_hits": coalesce_hits}
    )


@pytest.mark.benchmark(group="service")
def test_service_query_microbatching(benchmark, suite, app):
    """Fused concurrent queries vs the same queries strictly serial."""
    model = SERVICE_MODEL.to_dict()
    victims = SERVICE_VICTIMS.to_dict()

    def query(sample_index):
        status, body = _post(
            app,
            "/v1/query",
            {"model": model, "victims": victims, "sample_index": sample_index},
        )
        assert status == 200, body
        return body

    query(0)  # prime the target: trains the tiny model once, builds victims

    def fused():
        answers = [None] * N_QUERIES

        def one(position):
            answers[position] = query(position % SERVICE_MODEL.n_test)

        threads = [
            threading.Thread(target=one, args=(position,))
            for position in range(N_QUERIES)
        ]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return time.perf_counter() - start

    def serial():
        start = time.perf_counter()
        for position in range(N_QUERIES):
            query(position % SERVICE_MODEL.n_test)
        return time.perf_counter() - start

    batches_before = app.metrics.counter_value("query_batches_total")
    fused_wall_s = benchmark.pedantic(fused, rounds=1, iterations=1)
    fused_batches = app.metrics.counter_value("query_batches_total") - batches_before
    serial_wall_s = serial()

    assert fused_batches < N_QUERIES, (
        f"{N_QUERIES} concurrent queries should fuse, got {fused_batches} batches"
    )
    suite.record(
        "microbatch.fused_queries_per_s",
        N_QUERIES / fused_wall_s,
        unit="1/s",
        higher_is_better=True,
        n_queries=N_QUERIES,
    )
    suite.record(
        "microbatch.serial_queries_per_s",
        N_QUERIES / serial_wall_s,
        unit="1/s",
        higher_is_better=True,
        n_queries=N_QUERIES,
    )
    suite.record(
        "microbatch.fusion_factor",
        N_QUERIES / max(fused_batches, 1.0),
        unit="x",
        higher_is_better=True,
    )
    benchmark.extra_info.update(
        {
            "fused_wall_s": fused_wall_s,
            "serial_wall_s": serial_wall_s,
            "fused_batches": fused_batches,
        }
    )


@pytest.mark.benchmark(group="service")
def test_service_http_overhead(benchmark, suite, app):
    """Plain request/response cost of the wire layer (healthz round trips)."""
    rounds = 50

    def healthz_sweep():
        start = time.perf_counter()
        for _ in range(rounds):
            status, _ = _get(app, "/healthz")
            assert status == 200
        return time.perf_counter() - start

    wall_s = benchmark.pedantic(healthz_sweep, rounds=1, iterations=1)
    suite.record(
        "http.healthz_per_s",
        rounds / wall_s,
        unit="1/s",
        higher_is_better=True,
        rounds=rounds,
    )
