"""Runs one workload, checks its outputs and prints the result line."""

from __future__ import annotations

import json
import math
import os
import statistics
import sys
import time

from tracer import Tracer
from workloads import WORKLOADS


def percentile(values, share: float) -> float:
    """Nearest-rank percentile (with fewer than 20 samples the p95 is the maximum)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def blas_threads() -> str:
    return ",".join(f"{key}={os.environ.get(key)}" for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"))


def setup_only(args, setup_start: float, work_dir: str) -> int:
    """Set the workload up once, tear it down and print the set-up time as the last line."""
    from repro.axnn.native import backend_name

    workload = WORKLOADS[args.workload](args.seed, work_dir, None)
    try:
        backend_name()
        workload.setup()
        setup_s = time.perf_counter() - setup_start
    finally:
        workload.close()
    print(repr(setup_s))
    return 0


def run(args, backend: str, setup_start: float, work_dir: str, child_setups) -> int:
    """One measured run; ``child_setups`` are set-up times of fresh processes."""
    from repro.axnn.native import backend_name

    tracer = Tracer() if args.trace else None
    workload = WORKLOADS[args.workload](args.seed, work_dir, tracer)
    try:
        if backend_name() != backend:
            raise RuntimeError(f"backend {backend_name()!r} differs from the probe's {backend!r}")
        if tracer is not None:
            tracer.op = "setup"
            tracer.install()
        workload.setup()
        if tracer is not None:
            tracer.uninstall()
            tracer.op = None
        setup_samples = [time.perf_counter() - setup_start, *child_setups]
        records = workload.measure(args.seconds)
        print(f"workload: {args.workload}  seed: {args.seed}  backend: {backend}  "
              f"nproc: {os.cpu_count()} (affinity {len(os.sched_getaffinity(0))})  "
              f"blas threads: {blas_threads()}")
        attempted = len(records)
        failed = sum(1 for record in records if not record.ok)
        print(f"ops: {attempted}  failed: {failed}  error_rate: {failed / attempted:.4f}")
        if attempted <= 20:
            print("op latencies (ms, in order): "
                  + ", ".join(f"{record.latency_s * 1e3:.1f}" for record in records))
        if tracer is None:
            latencies = [record.latency_s for record in records]
            # p95 is printed for people but is no end-to-end metric: on a
            # shared 2-vCPU host its run-to-run spread exceeds any usable bound
            print(f"latency samples: {len(latencies)}  "
                  f"p95 (nearest-rank): {percentile(latencies, 0.95) * 1e3:.2f} ms")
            print("set-up samples (s): " + ", ".join(f"{value:.3f}" for value in setup_samples))
            metrics = {
                "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
                "setup_s": (statistics.median(setup_samples), "s"),
                "peak_rss_mb": (workload.peak_rss_mb, "MB"),
                "success_rate": ((attempted - failed) / attempted, "ratio"),
            }
        else:
            metrics = workload.layer_metrics()
            plain = [record.latency_s for record in records if not record.traced]
            traced = [record.latency_s for record in records if record.traced]
            overhead = statistics.median(traced) - statistics.median(plain)
            metrics["trace.overhead_ms"] = (overhead * 1e3, "ms")
            metrics["trace.overhead_pct"] = (100.0 * overhead / statistics.median(plain), "%")
            metrics["trace.traced_ops"] = (float(len(traced)), "count")
            path = os.path.join(work_dir, "traces", f"{args.workload}-seed{args.seed}.json")
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w") as handle:
                json.dump({"traceEvents": workload.trace_events(), "displayTimeUnit": "ms"}, handle)
            print(f"trace: {path}  spans: traced {len(traced)} ops, untraced {len(plain)}")
        for name, (value, unit) in metrics.items():
            print(f"  {name} = {value:.6g} {unit}")
    finally:
        workload.close()
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    sys.stdout.flush()
    print(json.dumps(result))
    return 0
