"""In-memory span tracer that times calls into each layer from outside.

``Tracer.install()`` replaces the public functions listed in :func:`_hooks`
with timing wrappers and ``Tracer.uninstall()`` puts the originals back, so
an untraced op runs exactly the shipped code.  A span records its name,
start, end, parent span, op id and thread.  Spans stay in memory until the
run ends; :meth:`Tracer.events` turns them into Chrome trace events
(loadable in ``chrome://tracing`` or Perfetto).

Nothing under ``src/`` changes: every hook is an attribute swap on a class or
module of the program.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict
from typing import Dict, List, Optional, Sequence, Tuple

#: kernel strategies of ``repro.axnn.kernels``, as they appear in metric names
KERNEL_STRATEGIES = ("exact", "percode", "errorcorrection", "native", "sparse", "gather")

#: spans that make up the stages of an experiment run; their union should
#: cover an op's wall time for the stage breakdown to explain it
STAGE_SPANS = (
    "datasets.synth",
    "nn.fit",
    "nn.evaluate",
    "attacks.sweep",
    "axnn.build",
    "robustness.evaluate",
    "experiments.store_get",
    "experiments.store_put",
)

#: the counted (not timed) call
GRADIENT_CALLS = "attacks.gradient_calls"


class Span:
    """One timed call; ``end`` stays ``None`` until the call returns."""

    __slots__ = ("name", "start", "end", "parent", "op", "tid", "attrs")

    def __init__(self, name, start, end, parent, op, tid, attrs) -> None:
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.op = op
        self.tid = tid
        self.attrs = attrs

    @property
    def duration(self) -> float:
        return 0.0 if self.end is None else self.end - self.start


def _fixed(name: str):
    return lambda args, kwargs: (name, None)


def _kernel_span(args, kwargs):
    kernel, codes = args[0], args[1]
    rows = codes.shape[0] if getattr(codes, "ndim", 0) == 2 else 0
    # MACs are computed from the shapes (M*K*N), not counted inside the kernel
    return f"axnn.kernel.{kernel.strategy}", {"macs": rows * kernel.inner * kernel.outputs}


def _layer_span(args, kwargs):
    return f"axnn.layer.{args[0].name}", None


def _fit_span(args, kwargs):
    epochs = kwargs.get("epochs", args[3] if len(args) > 3 else 5)
    return "nn.fit", {"epochs": int(epochs)}


def _hooks():
    """``(owner, attribute, naming)`` for every traced public call.

    ``naming`` maps a call's ``(args, kwargs)`` to ``(span name, attrs)``;
    ``None`` marks a call that is counted, not timed.
    """
    from repro.attacks.engine import AttackEngine
    from repro.axnn import kernels
    from repro.axnn.layers import AxConv2D, AxDense
    from repro.experiments import session as session_module
    from repro.experiments.session import Session
    from repro.experiments.spec import ExperimentSpec
    from repro.experiments.store import ArtifactStore
    from repro.nn.model import Sequential
    from repro.nn.trainer import Trainer

    hooks = [
        (Session, "run", _fixed("experiments.session_run")),
        (Session, "resolve_dataset", _fixed("datasets.synth")),
        (Session, "build_victims", _fixed("axnn.build")),
        (session_module, "grid_from_suite", _fixed("robustness.evaluate")),
        (Trainer, "fit", _fit_span),
        (Trainer, "evaluate", _fixed("nn.evaluate")),
        (AttackEngine, "generate_sweep", _fixed("attacks.sweep")),
        (Sequential, "input_gradient", None),
        (Sequential, "loss_and_input_gradient", None),
        (AxConv2D, "extract_cols", _fixed("axnn.im2col")),
        (AxConv2D, "quantize_cols", _fixed("axnn.quantize")),
        (AxDense, "quantize_input", _fixed("axnn.quantize")),
        (AxConv2D, "forward_from_codes", _layer_span),
        (AxDense, "forward_from_codes", _layer_span),
        (ArtifactStore, "get_arrays", _fixed("experiments.store_get")),
        (ArtifactStore, "get_json", _fixed("experiments.store_get")),
        (ArtifactStore, "put_arrays", _fixed("experiments.store_put")),
        (ArtifactStore, "put_json", _fixed("experiments.store_put")),
        (ExperimentSpec, "content_hash", _fixed("experiments.spec_hash")),
    ]
    for kernel_class in (
        kernels.ExactBLASKernel,
        kernels.PerCodeBLASKernel,
        kernels.ErrorCorrectionKernel,
        kernels.NativeLUTKernel,
        kernels.SparseOneHotKernel,
        kernels.GatherKernel,
    ):
        hooks.append((kernel_class, "matmul", _kernel_span))
    return hooks


class Tracer:
    """Collects spans and counts; installs and removes the layer hooks."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[Tuple[object, str], float] = defaultdict(float)
        #: op id stamped on every span opened from now on
        self.op: object = None
        self._lock = threading.Lock()
        self._local = threading.local()
        self._saved: List[Tuple[object, str, object]] = []
        self._lut_seen: set = set()

    # ------------------------------------------------------------ recording
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, attrs: Optional[dict] = None) -> int:
        stack = self._stack()
        span = Span(
            name,
            time.perf_counter(),
            None,
            stack[-1] if stack else None,
            self.op,
            threading.get_ident(),
            attrs,
        )
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] == index:
            stack.pop()

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counts[(self.op, name)] += amount

    # -------------------------------------------------------------- hooking
    def install(self) -> None:
        """Swap in the timing wrappers (idempotent)."""
        if self._saved:
            return
        from repro.multipliers.base import Multiplier

        for owner, attribute, naming in _hooks():
            self._swap(owner, attribute, self._wrap(getattr(owner, attribute), naming))
        self._swap(Multiplier, "lut", self._wrap_lut(Multiplier.lut))

    def uninstall(self) -> None:
        """Restore every original attribute (idempotent)."""
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)

    def _swap(self, owner, attribute: str, replacement) -> None:
        # every hooked attribute is defined on the owner itself, so putting
        # the saved object back restores the original exactly
        self._saved.append((owner, attribute, vars(owner)[attribute]))
        setattr(owner, attribute, replacement)

    def _wrap(self, original, naming):
        tracer = self
        if naming is None:

            @functools.wraps(original)
            def counted(*args, **kwargs):
                tracer.count(GRADIENT_CALLS)
                return original(*args, **kwargs)

            return counted

        @functools.wraps(original)
        def timed(*args, **kwargs):
            name, attrs = naming(args, kwargs)
            index = tracer.open(name, attrs)
            try:
                return original(*args, **kwargs)
            finally:
                tracer.close(index)

        return timed

    def _wrap_lut(self, original):
        tracer = self

        @functools.wraps(original)
        def lut(multiplier):
            # only the first build per multiplier is what set-up pays for
            if multiplier.name in tracer._lut_seen:
                return original(multiplier)
            tracer._lut_seen.add(multiplier.name)
            index = tracer.open("multipliers.lut", {"multiplier": multiplier.name})
            try:
                return original(multiplier)
            finally:
                tracer.close(index)

        return lut

    # ----------------------------------------------------------- persistence
    def dump(self, path: str) -> None:
        """Write spans and counts as JSON (the traced server's hand-off)."""
        payload = {
            "spans": [
                [s.name, s.start, s.end, s.parent, s.op, s.tid, s.attrs] for s in self.spans
            ],
            "counts": [[op, name, value] for (op, name), value in self.counts.items()],
        }
        with open(path, "w") as handle:
            json.dump(payload, handle)

    @classmethod
    def load(cls, path: str) -> "Tracer":
        with open(path) as handle:
            payload = json.load(handle)
        tracer = cls()
        tracer.spans = [Span(*fields) for fields in payload["spans"]]
        for op, name, value in payload["counts"]:
            tracer.counts[(op, name)] += value
        return tracer

    def events(self, origin: float, pid: str) -> List[dict]:
        """Closed spans as Chrome trace events (``ph: X``, microseconds).

        ``origin`` is a ``time.perf_counter()`` reading; on Linux that clock
        is system-wide, so spans of two processes share one time axis.
        """
        events = []
        for index, span in enumerate(self.spans):
            if span.end is None:
                continue
            args = {"span": index, "parent": span.parent, "op": span.op}
            args.update(span.attrs or {})
            events.append(
                {
                    "name": span.name,
                    "cat": span.name.split(".", 1)[0],
                    "ph": "X",
                    "ts": round((span.start - origin) * 1e6, 3),
                    "dur": round(span.duration * 1e6, 3),
                    "pid": pid,
                    "tid": span.tid,
                    "args": args,
                }
            )
        return events


def union_length(intervals: List[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total = 0.0
    reach = None
    for lo, hi in sorted(intervals):
        if reach is None or lo > reach:
            total += hi - lo
            reach = hi
        elif hi > reach:
            total += hi - reach
            reach = hi
    return total


def layer_metrics(
    tracer: Tracer,
    ops: Sequence[object],
    n_ops: int,
    layer_names: Sequence[str],
    store_delta: Dict[str, float],
) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics over the spans of ``ops``, per op (``name -> (value, unit)``).

    ``multipliers.lut_s`` is the set-up total (spans with op ``"setup"``):
    a multiplier's LUT is built once per process.
    """
    n_ops = max(n_ops, 1)
    wanted = set(ops)
    totals: Dict[str, float] = defaultdict(float)
    calls: Dict[str, float] = defaultdict(float)
    macs: Dict[str, float] = defaultdict(float)
    child_time: Dict[int, float] = defaultdict(float)
    epochs = 0.0
    session_runs = []
    setup_lut = 0.0
    for index, span in enumerate(tracer.spans):
        if span.end is None:
            continue
        if span.op == "setup" and span.name == "multipliers.lut":
            setup_lut += span.duration
        if span.op not in wanted:
            continue
        totals[span.name] += span.duration
        calls[span.name] += 1
        if span.parent is not None:
            child_time[span.parent] += span.duration
        if span.attrs:
            macs[span.name] += span.attrs.get("macs", 0)
            epochs += span.attrs.get("epochs", 0)
        if span.name == "experiments.session_run":
            session_runs.append(index)
    session_self = sum(tracer.spans[i].duration - child_time[i] for i in session_runs)
    gradient_calls = sum(
        value
        for (op, name), value in tracer.counts.items()
        if op in wanted and name == GRADIENT_CALLS
    )
    metrics: Dict[str, Tuple[float, str]] = {
        "datasets.synth_s": (totals["datasets.synth"] / n_ops, "s"),
        "nn.fit_s": (totals["nn.fit"] / n_ops, "s"),
        "nn.epochs": (epochs / n_ops, "count"),
        "nn.evaluate_s": (totals["nn.evaluate"] / n_ops, "s"),
        "attacks.sweep_s": (totals["attacks.sweep"] / n_ops, "s"),
        GRADIENT_CALLS: (gradient_calls / n_ops, "count"),
        "axnn.build_s": (totals["axnn.build"] / n_ops, "s"),
        "multipliers.lut_s": (setup_lut, "s"),
        "robustness.evaluate_s": (totals["robustness.evaluate"] / n_ops, "s"),
        "axnn.im2col_s": (totals["axnn.im2col"] / n_ops, "s"),
        "axnn.quantize_s": (totals["axnn.quantize"] / n_ops, "s"),
        "experiments.store_get_s": (totals["experiments.store_get"] / n_ops, "s"),
        "experiments.store_put_s": (totals["experiments.store_put"] / n_ops, "s"),
        "experiments.spec_hash_s": (totals["experiments.spec_hash"] / n_ops, "s"),
        "experiments.session_self_s": (session_self / n_ops, "s"),
    }
    for stat in ("hits", "misses", "retries", "quarantined"):
        metrics[f"experiments.store_{stat}"] = (store_delta.get(stat, 0.0) / n_ops, "count")
    for layer in layer_names:
        metrics[f"axnn.layer_s.{layer}"] = (totals[f"axnn.layer.{layer}"] / n_ops, "s")
    for strategy in KERNEL_STRATEGIES:
        name = f"axnn.kernel.{strategy}"
        metrics[f"axnn.kernel_s.{strategy}"] = (totals[name] / n_ops, "s")
        metrics[f"axnn.kernel_calls.{strategy}"] = (calls[name] / n_ops, "count")
        metrics[f"axnn.kernel_macs.{strategy}"] = (macs[name] / n_ops, "count")
    return metrics


def stage_coverage(tracer: Tracer, op_spans: Sequence[Span]) -> float:
    """Smallest share of an op's wall time covered by the union of its stage spans."""
    stages: Dict[object, List[Span]] = defaultdict(list)
    for span in tracer.spans:
        if span.name in STAGE_SPANS and span.end is not None:
            stages[span.op].append(span)
    shares = []
    for op_span in op_spans:
        intervals = [
            (max(span.start, op_span.start), min(span.end, op_span.end))
            for span in stages[op_span.op]
        ]
        shares.append(union_length(intervals) / op_span.duration)
    return min(shares) if shares else 0.0
