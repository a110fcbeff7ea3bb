"""The benchmark workloads, each driving the program's public entry points.

Every workload owns a private scratch directory holding a fresh artifact
store with no remote tier, and runs with ``workers=1``.  An op is the unit
the latency metrics time; ``check`` validates each op's output outside the
timed region, and a failed check counts against ``success_rate``.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.analysis.experiments import (
    approximation_not_universally_defensive,
    collapse_under_attack,
    high_error_multiplier_more_vulnerable,
    monotonic_decrease,
)
from repro.attacks import PAPER_EPSILONS
from repro.axnn.kernels import select_strategy
from repro.axnn.panel import VictimPanel
from repro.experiments import ArtifactStore, ModelSpec, Session, VictimSpec, panel_spec
from repro.multipliers.library import get_multiplier
from repro.robustness.evaluator import AdversarialSuite
from repro.robustness.sweep import grid_from_suite
from tracer import Tracer, layer_metrics, stage_coverage

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

LENET_LABELS = tuple(f"M{i}" for i in range(1, 10))

#: Ax layers of LeNet-5, as named in ``axnn.layer_s.<layer>``
AX_LAYERS = ("ax_conv2d_0", "ax_conv2d_3", "ax_conv2d_6", "ax_dense_9", "ax_dense_11")

#: ``service.*`` per-layer metrics and their units
SERVICE_METRICS = {
    "service.batches": "count",
    "service.batch_size_mean": "count",
    "service.batch_eval_ms": "ms",
    "service.wait_ms": "ms",
    "service.rejected": "count",
}

STORE_STATS = ("hits", "misses", "retries", "quarantined")


@dataclass
class OpRecord:
    latency_s: float
    traced: bool
    ok: bool


def lenet_model(seed: int, n_train: int = 1500, n_test: int = 400, epochs: int = 4) -> ModelSpec:
    """The Fig. 4a source: LeNet-5 on 1500 MNIST-like samples, 4 epochs."""
    return ModelSpec(
        architecture="lenet5", dataset="mnist", n_train=n_train, n_test=n_test, epochs=epochs,
        seed=seed,
    )


def own_peak_rss_mb() -> float:
    """Peak RSS of this process so far (``ru_maxrss`` is in KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def warm_multipliers(labels) -> None:
    """First use of each multiplier's LUT and kernel profile (a set-up cost)."""
    for label in labels:
        multiplier = get_multiplier(label)
        multiplier.lut()
        select_strategy(multiplier)


def grid_key(grids) -> list:
    return [
        (grid.attack_key, tuple(grid.epsilons), tuple(grid.victim_labels), grid.values.tobytes())
        for grid in grids
    ]


def row_matches(grid, suite, victims, row: int) -> bool:
    """Whether one budget row of a fused grid equals per-victim evaluation."""
    epsilon = suite.epsilons[row]
    single = AdversarialSuite(
        attack_key=suite.attack_key,
        epsilons=[epsilon],
        images=suite.images,
        labels=suite.labels,
        adversarial={epsilon: suite.adversarial[epsilon]},
    )
    reference = grid_from_suite(single, victims, workers=1, fused=False)
    return reference.values[0].tobytes() == grid.values[row].tobytes()


class Workload:
    """A seeded workload: set-up, a timed measuring loop, per-layer metrics."""

    name = ""

    def __init__(self, seed: int, work_dir: str, tracer) -> None:
        self.seed = seed
        self.tracer = tracer
        #: peak RSS of the workload's processes, read before the checks run
        self.peak_rss_mb = 0.0
        os.makedirs(os.path.join(work_dir, "tmp"), exist_ok=True)
        self.scratch = tempfile.mkdtemp(prefix=f"{self.name}-", dir=os.path.join(work_dir, "tmp"))

    def setup(self) -> None:
        """Everything before the first timed op may begin."""

    def measure(self, seconds: float) -> List[OpRecord]:
        raise NotImplementedError

    def layer_metrics(self) -> dict:
        raise NotImplementedError

    def trace_events(self) -> list:
        raise NotImplementedError

    def close(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)


class Fig4aCold(Workload):
    """The ROADMAP's cold Fig. 4a spec on an empty store for every op."""

    name = "fig4a-cold"
    #: ops a run makes even when they outlast ``--seconds``; a traced run
    #: traces ops 1, 3, ...
    min_ops = 5

    def __init__(self, seed, work_dir, tracer) -> None:
        super().__init__(seed, work_dir, tracer)
        self.spec = panel_spec(
            "fig4a_bim_linf",
            attacks=["BIM_linf"],
            multipliers=LENET_LABELS,
            model=lenet_model(seed),
            epsilons=PAPER_EPSILONS,
            n_samples=60,
            seed=seed,
        )
        # the same stages on a tiny model, so op 0 pays no first-use cost
        self.warm_up_spec = panel_spec(
            "warm_up",
            attacks=["BIM_linf"],
            multipliers=LENET_LABELS,
            model=lenet_model(seed, n_train=128, n_test=32, epochs=1),
            epsilons=PAPER_EPSILONS[:2],
            n_samples=8,
            seed=seed,
        )
        self.first_grids = None
        self.store_delta: Dict[str, float] = defaultdict(float)
        self.op_spans = []

    def setup(self):
        warm_multipliers(LENET_LABELS)
        store = ArtifactStore(os.path.join(self.scratch, "warm-up"))
        Session(store, workers=1).run(self.warm_up_spec)
        shutil.rmtree(store.root, ignore_errors=True)

    def measure(self, seconds):
        """Run ops until ``seconds`` passed, then check them; a traced run traces every second op."""
        done = []
        start = time.perf_counter()
        index = 0
        while index < self.min_ops or time.perf_counter() - start < seconds:
            store = ArtifactStore(os.path.join(self.scratch, f"store-{index}"))
            traced = self.tracer is not None and index % 2 == 1
            if traced:
                self.tracer.op = index
                self.tracer.install()
                span = self.tracer.open("op")
            began = time.perf_counter()
            try:
                result = Session(store, workers=1).run(self.spec)
            except Exception:  # noqa: BLE001 - a failed op is counted, not fatal
                traceback.print_exc()
                result = None
            latency = time.perf_counter() - began
            if traced:
                self.tracer.close(span)
                self.tracer.uninstall()
                self.tracer.op = None
                for key, value in store.stats.snapshot().items():
                    self.store_delta[key] += value
                self.op_spans.append(self.tracer.spans[span])
            done.append((store, result, latency, traced))
            index += 1
        self.peak_rss_mb = own_peak_rss_mb()
        records = []
        for index, (store, result, latency, traced) in enumerate(done):
            ok = result is not None and self._checked(store, index, result)
            shutil.rmtree(store.root, ignore_errors=True)
            records.append(OpRecord(latency, traced, ok))
        return records

    def _checked(self, store, index, result) -> bool:
        try:
            return self.check(store, index, result)
        except Exception:  # noqa: BLE001 - a check that raises fails its op
            traceback.print_exc()
            return False

    def check(self, store, index, result) -> bool:
        if result.from_cache:
            return False
        key = grid_key(result.grids)
        if self.first_grids is None:
            self.first_grids = key
            self._print_trends(result.grids[0])
        if key != self.first_grids:
            return False
        # one seed-drawn budget row per panel equals a per-victim evaluation
        session = Session(store, workers=1)
        trained = session.resolve_model(self.spec.model)
        victims = session.build_victims(trained, self.spec.victims)
        rng = np.random.default_rng([self.seed, index])
        for attack_spec, grid in zip(self.spec.attacks, result.grids):
            suite = session.resolve_suite(
                self.spec.model, attack_spec, self.spec.sweep,
                seed=self.spec.seed, trained=trained, workers=1,
            )
            if not row_matches(grid, suite, victims, int(rng.integers(len(suite.epsilons)))):
                return False
        return True

    @staticmethod
    def _print_trends(grid) -> None:
        checks = [
            approximation_not_universally_defensive(grid, "M1"),
            high_error_multiplier_more_vulnerable(grid, "M1", "M8", 0.1),
            collapse_under_attack(grid, 2.0),
        ] + [monotonic_decrease(grid, label) for label in grid.victim_labels]
        for trend in checks:
            print(f"trend: {trend}")

    def layer_metrics(self):
        ops = [span.op for span in self.op_spans]
        metrics = layer_metrics(self.tracer, ops, len(ops), AX_LAYERS, self.store_delta)
        for name, unit in SERVICE_METRICS.items():
            metrics[name] = (0.0, unit)
        metrics["trace.stage_coverage"] = (stage_coverage(self.tracer, self.op_spans), "ratio")
        return metrics

    def trace_events(self):
        return self.tracer.events(self.tracer.spans[0].start, "benchmark")


class ServiceQuery(Workload):
    """Single-sample ``POST /v1/query`` to ``repro.cli serve`` from closed-loop clients.

    The server runs in its own process with the shipped defaults (only
    ``--workers 1`` pinned); this process is the load generator.  Each
    client sends its next query when the previous answer arrived; the
    server closes every connection, so each query opens a new one.
    """

    name = "service-query"
    #: closed-loop clients (= vCPUs of the reference host)
    clients = 2
    request_timeout_s = 30.0
    #: a traced run alternates untraced and traced blocks of about this length
    block_s = 2.0

    def __init__(self, seed, work_dir, tracer) -> None:
        super().__init__(seed, work_dir, tracer)
        self.model_spec = lenet_model(seed)
        self.victim_spec = VictimSpec(multipliers=LENET_LABELS)
        self.indices = iter(
            np.random.default_rng(seed).integers(0, self.model_spec.n_test, size=1 << 18).tolist()
        )
        self.index_lock = threading.Lock()
        self.server = None
        self.spans_path = os.path.join(self.scratch, "server-spans.json")
        self.client_tracer = Tracer() if tracer is not None else None
        self.server_tracer = None
        self.service_delta: Dict[str, float] = defaultdict(float)
        self.traced_latencies: List[float] = []
        self.rejected = 0

    # --------------------------------------------------------------- server
    def setup(self):
        self.store_dir = os.path.join(self.scratch, "store")
        serve = ["serve", "--host", "127.0.0.1", "--port", "0", "--store", self.store_dir,
                 "--workers", "1"]
        if self.tracer is not None:
            command = [sys.executable, os.path.join(HERE, "traced_server.py"), self.spans_path]
        else:
            command = [sys.executable, "-m", "repro.cli"]
        self.log_path = os.path.join(self.scratch, "server.log")
        self.log = open(self.log_path, "w")
        self.server = subprocess.Popen(
            command + serve, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=self.log
        )
        self.port = self._wait_for_port(timeout_s=60.0)
        # building the target trains the source model and its victims
        for _ in range(4):
            status, _ = self._post(self._next_index())
            if status != 200:
                raise RuntimeError(f"warm-up query failed with status {status}")
        if self.tracer is not None:
            self._signal(signal.SIGUSR2)

    def _wait_for_port(self, timeout_s: float) -> int:
        deadline = time.perf_counter() + timeout_s
        while time.perf_counter() < deadline:
            with open(self.log_path) as handle:
                match = re.search(r"serving on [\d.]+:(\d+)", handle.read())
            if match:
                return int(match.group(1))
            if self.server.poll() is not None:
                break
            time.sleep(0.02)
        raise RuntimeError(f"server did not start; see {self.log_path}")

    def _signal(self, signum) -> None:
        self.server.send_signal(signum)
        time.sleep(0.2)  # the handler runs when the server's event loop wakes

    def _stop_server(self) -> None:
        if self.server is None:
            return
        if self.server.poll() is None:
            self.server.send_signal(signal.SIGTERM)
            try:
                self.server.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.server.kill()
                self.server.wait()
        self.server = None
        self.log.close()

    def _server_rss_mb(self) -> float:
        try:
            with open(f"/proc/{self.server.pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1]) / 1024.0
        except OSError:  # the server already exited
            pass
        return 0.0

    # --------------------------------------------------------------- client
    def _next_index(self) -> int:
        with self.index_lock:
            return next(self.indices)

    def _post(self, sample_index: int):
        body = json.dumps({
            "model": self.model_spec.to_dict(),
            "victims": self.victim_spec.to_dict(),
            "sample_index": sample_index,
        }).encode("utf-8")
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=self.request_timeout_s)
        try:
            connection.request("POST", "/v1/query", body=body,
                               headers={"Content-Type": "application/json"})
            response = connection.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException):
            return None, b""
        finally:
            connection.close()

    def _scrape(self) -> Dict[str, float]:
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=self.request_timeout_s)
        try:
            connection.request("GET", "/metrics")
            text = connection.getresponse().read().decode("utf-8")
        finally:
            connection.close()
        values = {}
        for line in text.splitlines():
            if line and not line.startswith("#") and "{" not in line:
                name, value = line.rsplit(" ", 1)
                values[name] = float(value)
        return values

    def _phase(self, seconds: float, traced: bool) -> list:
        """Closed-loop clients until ``seconds`` passed: ``(latency, traced, index, status, body)``."""
        stop_at = time.perf_counter() + seconds
        answers = []
        lock = threading.Lock()

        def client():
            while time.perf_counter() < stop_at:
                index = self._next_index()
                span = self.client_tracer.open("service.query") if traced else None
                began = time.perf_counter()
                status, body = self._post(index)
                latency = time.perf_counter() - began
                if span is not None:
                    self.client_tracer.close(span)
                with lock:
                    answers.append((latency, traced, index, status, body))

        threads = [threading.Thread(target=client) for _ in range(self.clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(seconds + 2 * self.request_timeout_s)
        return answers

    def _traced_block(self, seconds: float) -> list:
        """One block with the server's hooks installed; adds its ``/metrics`` deltas."""
        self._signal(signal.SIGUSR1)
        before = self._scrape()
        self.client_tracer.op = "traced"
        answers = self._phase(seconds, traced=True)
        after = self._scrape()
        self._signal(signal.SIGUSR2)
        for key, value in after.items():
            self.service_delta[key] += value - before.get(key, 0.0)
        return answers

    def measure(self, seconds):
        if self.tracer is None:
            answers = self._phase(seconds, traced=False)
        else:
            # alternating blocks put both sides of the overhead in the same host phases
            blocks = max(2, 2 * round(seconds / (2 * self.block_s)))
            answers = []
            for block in range(blocks):
                if block % 2:
                    answers += self._traced_block(seconds / blocks)
                else:
                    answers += self._phase(seconds / blocks, traced=False)
        self.peak_rss_mb = own_peak_rss_mb() + self._server_rss_mb()
        self._stop_server()
        if self.tracer is not None:
            self.server_tracer = Tracer.load(self.spans_path)
        expected = self._expected({index for _, _, index, _, _ in answers})
        records = []
        for latency, traced, index, status, body in answers:
            ok = status == 200 and self._answer_matches(body, expected[index])
            records.append(OpRecord(latency, traced, ok))
            if traced:
                self.traced_latencies.append(latency)
        self.rejected = sum(1 for answer in answers if answer[1] and answer[3] == 429)
        return records

    def _expected(self, indices) -> dict:
        """Answers computed here from the server's store: fused panel and source model."""
        session = Session(ArtifactStore(self.store_dir), workers=1)
        trained = session.resolve_model(self.model_spec)
        panel = VictimPanel(session.build_victims(trained, self.victim_spec))
        order = sorted(indices)
        images = trained.dataset.test.images[order]
        victims = panel.predict_classes(images, workers=1)
        source = trained.model.predict_classes(images, workers=1)
        return {
            index: ({name: int(classes[row]) for name, classes in victims.items()}, int(source[row]))
            for row, index in enumerate(order)
        }

    @staticmethod
    def _answer_matches(body: bytes, expected) -> bool:
        try:
            payload = json.loads(body)
        except ValueError:
            return False
        predictions, source = expected
        return payload.get("predictions") == predictions and payload.get("source_prediction") == source

    def close(self):
        self._stop_server()
        super().close()

    # --------------------------------------------------------------- trace
    def layer_metrics(self):
        n_ops = len(self.traced_latencies)
        delta = self.service_delta
        store_delta = {stat: delta.get(f"repro_store_{stat}", 0.0) for stat in STORE_STATS}
        metrics = layer_metrics(self.server_tracer, ["traced"], n_ops, AX_LAYERS, store_delta)
        batches = delta.get("repro_query_batch_size_count", 0.0)
        eval_ms = 1e3 * delta.get("repro_query_batch_latency_seconds_sum", 0.0) / max(batches, 1.0)
        metrics.update({
            "service.batches": (delta.get("repro_query_batches_total", 0.0), "count"),
            "service.batch_size_mean": (
                delta.get("repro_query_batch_size_sum", 0.0) / max(batches, 1.0), "count"),
            "service.batch_eval_ms": (eval_ms, "ms"),
            "service.wait_ms": (statistics.median(self.traced_latencies) * 1e3 - eval_ms, "ms"),
            "service.rejected": (
                delta.get("repro_queries_rejected_total", 0.0) + self.rejected, "count"),
            "trace.stage_coverage": (0.0, "ratio"),
        })
        return metrics

    def trace_events(self):
        origin = min(
            (tracer.spans[0].start for tracer in (self.client_tracer, self.server_tracer)
             if tracer.spans),
            default=0.0,
        )
        return self.client_tracer.events(origin, "load-generator") + self.server_tracer.events(
            origin, "server"
        )


WORKLOADS = {
    workload.name: workload
    for workload in (Fig4aCold, ServiceQuery)
}
