"""The shared benchmark runner: timing primitives and the :class:`Suite`.

Two measurement protocols, both lifted out of the one-off scripts that
used to hand-roll them:

:func:`best_of`
    Min-of-N wall-clock timing with a warm-up call — the right statistic
    for "how fast can this go" questions (minimum filters out scheduler
    noise, warm-up charges buffer allocation and BLAS thread spin-up to
    nobody).

:func:`paired_ratios`
    The paired-run comparison protocol from the training benchmarks:
    baseline and candidate run back-to-back in each round with
    *alternating order*, and the per-round time ratios are summarized by
    median and min.  Machine drift (thermal throttling, a neighbour VM
    waking up) hits both sides of a pair equally, so it cancels out of
    the ratio — the property that makes a recorded speedup trustworthy.

A :class:`Suite` strings measurements into one
:class:`~repro.benchmarking.report.BenchmarkReport`, stamping each metric
with its unit, direction and ``min_cores`` gate.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.benchmarking.report import (
    BenchmarkReport,
    BenchmarkResult,
    env_fingerprint,
)
from repro.errors import ConfigurationError


def best_of(fn: Callable[[], object], repeats: int = 3, warmup: int = 1) -> float:
    """Minimum wall-clock seconds of ``fn()`` over ``repeats`` timed calls."""
    if repeats < 1:
        raise ConfigurationError(f"repeats must be >= 1, got {repeats}")
    for _ in range(warmup):
        fn()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def paired_ratios(
    run_a: Callable[[], object],
    run_b: Callable[[], object],
    rounds: int = 10,
) -> Dict[str, float]:
    """min/median of per-round a/b time ratios, alternating call order.

    ``ratio_median > 1`` means *b is faster than a* — callers conventionally
    pass the baseline as ``run_a`` and the candidate as ``run_b``, so the
    ratio reads as the candidate's speedup.  Both runs are called once for
    warm-up (buffers, BLAS threads, page cache) before any round is timed.
    """
    if rounds < 1:
        raise ConfigurationError(f"rounds must be >= 1, got {rounds}")
    run_a(), run_b()  # warm both (buffers, BLAS threads, page cache)
    ratios = []
    times_a, times_b = [], []
    for round_index in range(rounds):
        if round_index % 2 == 0:
            first, second = run_a, run_b
        else:
            first, second = run_b, run_a
        start = time.perf_counter()
        first()
        mid = time.perf_counter()
        second()
        end = time.perf_counter()
        if first is run_a:
            a, b = mid - start, end - mid
        else:
            b, a = mid - start, end - mid
        times_a.append(a)
        times_b.append(b)
        ratios.append(a / b)
    return {
        "ratio_median": float(np.median(ratios)),
        "ratio_min": float(np.min(ratios)),
        "a_best_s": float(np.min(times_a)),
        "b_best_s": float(np.min(times_b)),
    }


class Suite:
    """Collects one benchmark suite's metrics into a report.

    ::

        suite = Suite("training")
        suite.measure("lenet.epoch_s", lambda: trainer.fit(...))
        stats = suite.paired("lenet.fit", run_seed_loop, run_fit, rounds=10)
        record_report(suite.report(), results_dir)
    """

    def __init__(self, name: str, env_extra: Optional[dict] = None) -> None:
        self.name = name
        self.env_extra = dict(env_extra) if env_extra else None
        self.results: List[BenchmarkResult] = []

    # -------------------------------------------------------------- recording
    def record(
        self,
        name: str,
        value: float,
        unit: str = "s",
        higher_is_better: bool = False,
        min_cores: int = 0,
        **extra,
    ) -> BenchmarkResult:
        """Record one already-measured metric (replacing any same-named one)."""
        result = BenchmarkResult(
            name=name,
            value=float(value),
            unit=unit,
            higher_is_better=higher_is_better,
            min_cores=min_cores,
            extra=extra or None,
        )
        self.results = [r for r in self.results if r.name != name]
        self.results.append(result)
        return result

    def measure(
        self,
        name: str,
        fn: Callable[[], object],
        repeats: int = 3,
        warmup: int = 1,
        min_cores: int = 0,
        **extra,
    ) -> float:
        """Time ``fn`` with :func:`best_of` and record the seconds; returns them."""
        seconds = best_of(fn, repeats=repeats, warmup=warmup)
        self.record(
            name, seconds, unit="s", higher_is_better=False, min_cores=min_cores, **extra
        )
        return seconds

    def timed(self, name: str, fn: Callable[[], object], **extra):
        """Run ``fn`` once, record its wall-clock seconds, return its result.

        For expensive one-shot stages (a full figure panel through the
        Session) where best-of-N is unaffordable and the artifact store
        makes repeat runs incomparable anyway (the second run is a cache
        hit).
        """
        start = time.perf_counter()
        value = fn()
        self.record(name, time.perf_counter() - start, unit="s", **extra)
        return value

    def paired(
        self,
        name: str,
        baseline: Callable[[], object],
        candidate: Callable[[], object],
        rounds: int = 10,
        min_cores: int = 0,
    ) -> Dict[str, float]:
        """Run the paired-ratio protocol and record its four metrics.

        Records ``<name>.speedup_median`` / ``<name>.speedup_min`` (ratio,
        higher is better — portable across hosts) and
        ``<name>.baseline_best_s`` / ``<name>.candidate_best_s`` (absolute
        times, host-bound).  Returns the raw stats dict of
        :func:`paired_ratios`.
        """
        stats = paired_ratios(baseline, candidate, rounds=rounds)
        self.record(
            f"{name}.speedup_median",
            stats["ratio_median"],
            unit="ratio",
            higher_is_better=True,
            min_cores=min_cores,
        )
        self.record(
            f"{name}.speedup_min",
            stats["ratio_min"],
            unit="ratio",
            higher_is_better=True,
            min_cores=min_cores,
        )
        self.record(f"{name}.baseline_best_s", stats["a_best_s"], unit="s")
        self.record(f"{name}.candidate_best_s", stats["b_best_s"], unit="s")
        return stats

    # ----------------------------------------------------------------- report
    def report(self) -> BenchmarkReport:
        """The collected metrics as a fresh :class:`BenchmarkReport`."""
        return BenchmarkReport(
            suite=self.name,
            results=list(self.results),
            env=env_fingerprint(self.env_extra),
        )
