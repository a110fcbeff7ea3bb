"""Fault-tolerance primitives: retries, deadlines and scripted fault injection.

Every long-running stage in this repo — training, adversarial crafting,
artifact-store IO — is deterministic and content-addressed (PRs 1-5), which
makes crash recovery *provable*: a resumed or retried computation must
produce byte-identical artifacts, so fault tolerance is tested as a
bit-identity invariant rather than a best-effort behavior.  This module
holds the shared machinery the store, the remote backends and the trainer
build that recovery on:

:class:`RetryPolicy`
    Bounded attempts with deterministic exponential backoff (no jitter — the
    delay sequence is part of the reproducibility contract) and a
    transient-vs-fatal error classification.  ``OSError`` and friends are
    transient (a flaky filesystem deserves another try); programming and
    configuration errors are fatal and surface immediately.

:class:`Deadline` / :func:`run_with_deadline`
    Wall-clock budgets.  ``Deadline`` is a passive budget consulted by
    polling loops (lease waits); ``run_with_deadline`` actively bounds one
    call by running it on a worker thread.

:class:`FaultInjector` / :class:`FaultRule`
    A process-global, deterministically scripted fault plan.  Production
    code consults *named fault points* (``store.write``, ``store.read``,
    ``store.corrupt``, ``trainer.epoch``, and the remote-store points
    ``backend.get`` / ``backend.put`` / ``backend.head`` / ``backend.list``
    / ``backend.delete``, ...) via :meth:`FaultInjector.consult`; with no plan
    active the consult is a single attribute check and the runtime cost is
    nil.  A chaos test activates a plan — "raise ``OSError`` on the second
    store write", "SIGKILL the trainer at epoch 2", "corrupt 8 bytes of
    this artifact" — and the production retry/recovery paths run exactly as
    a real fault would run them, without monkeypatching.  Plans can also be
    supplied from the environment (``REPRO_FAULT_PLAN`` holding the JSON
    rule list), which is how the CI fault-injection job kills a training
    process at epoch K from outside the interpreter.

Environment knobs
-----------------
``REPRO_MAX_RETRIES``
    Attempts per retried operation (default 3; 1 disables retrying).
``REPRO_RETRY_BACKOFF``
    First backoff delay in seconds (default 0.05; doubles per attempt).
``REPRO_FAULT_PLAN``
    JSON list of fault-rule dicts activated at first consult.
"""

from __future__ import annotations

import json
import logging
import os
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass, fields
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import (
    ConfigurationError,
    DeadlineExceededError,
    FaultInjectionError,
)

logger = logging.getLogger("repro.resilience")

#: environment variable bounding retry attempts
MAX_RETRIES_ENV_VAR = "REPRO_MAX_RETRIES"

#: environment variable setting the first backoff delay (seconds)
RETRY_BACKOFF_ENV_VAR = "REPRO_RETRY_BACKOFF"

#: environment variable holding a JSON fault plan (list of rule dicts)
FAULT_PLAN_ENV_VAR = "REPRO_FAULT_PLAN"


# --------------------------------------------------------------------- retry
@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with deterministic exponential backoff.

    ``max_attempts`` counts the first try: 3 means one try plus two retries,
    1 disables retrying entirely.  The backoff sequence is deterministic
    (``backoff_s * backoff_factor ** (attempt - 1)``, capped at
    ``max_backoff_s``) — no jitter, so a retried run's timing profile is
    reproducible and tests can assert the exact schedule.

    Transient errors (``transient`` types, default ``OSError``) are retried;
    everything else is fatal and re-raised immediately — a shape mismatch or
    a misconfiguration never deserves a second attempt.
    """

    max_attempts: int = 3
    backoff_s: float = 0.05
    backoff_factor: float = 2.0
    max_backoff_s: float = 2.0
    transient: Tuple[type, ...] = (OSError,)
    sleep: Callable[[float], None] = time.sleep

    def __post_init__(self) -> None:
        if not isinstance(self.max_attempts, int) or self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be a positive int, got {self.max_attempts!r}"
            )
        if self.backoff_s < 0 or self.backoff_factor < 1 or self.max_backoff_s < 0:
            raise ConfigurationError(
                "backoff_s/max_backoff_s must be >= 0 and backoff_factor >= 1"
            )

    @classmethod
    def from_env(cls, **overrides) -> "RetryPolicy":
        """A policy configured by ``REPRO_MAX_RETRIES``/``REPRO_RETRY_BACKOFF``."""
        from repro.config import env_float, env_int

        settings = {
            "max_attempts": env_int(MAX_RETRIES_ENV_VAR, cls.max_attempts),
            "backoff_s": env_float(RETRY_BACKOFF_ENV_VAR, cls.backoff_s),
        }
        settings.update(overrides)
        return cls(**settings)

    def is_transient(self, exc: BaseException) -> bool:
        """Whether ``exc`` is worth retrying."""
        return isinstance(exc, self.transient)

    def delay_s(self, attempt: int) -> float:
        """Backoff before the retry following ``attempt`` (1-based)."""
        return min(
            self.backoff_s * self.backoff_factor ** (attempt - 1),
            self.max_backoff_s,
        )

    def run(
        self,
        fn: Callable,
        description: str = "operation",
        on_retry: Optional[Callable[[int, BaseException], None]] = None,
    ):
        """Call ``fn()`` under this policy; returns its result.

        Fatal errors and the final transient failure propagate unchanged.
        ``on_retry(attempt, exc)`` fires before each backoff sleep — the
        store uses it to count retries in its stats.
        """
        for attempt in range(1, self.max_attempts + 1):
            try:
                return fn()
            except BaseException as exc:
                if not self.is_transient(exc) or attempt == self.max_attempts:
                    raise
                if on_retry is not None:
                    on_retry(attempt, exc)
                logger.warning(
                    "%s failed (%s: %s); retry %d/%d in %.3fs",
                    description,
                    type(exc).__name__,
                    exc,
                    attempt,
                    self.max_attempts - 1,
                    self.delay_s(attempt),
                )
                self.sleep(self.delay_s(attempt))


# ----------------------------------------------------------------- deadlines
class Deadline:
    """A wall-clock budget for polling loops.

    Passive: callers ask :meth:`remaining`/:meth:`expired` (or
    :meth:`check`, which raises) between poll iterations.  ``timeout_s=None``
    never expires.
    """

    def __init__(self, timeout_s: Optional[float]) -> None:
        if timeout_s is not None and timeout_s < 0:
            raise ConfigurationError(f"timeout_s must be >= 0, got {timeout_s}")
        self.timeout_s = timeout_s
        self._expires = None if timeout_s is None else time.monotonic() + timeout_s

    def remaining(self) -> Optional[float]:
        """Seconds left (never negative), or ``None`` for no deadline."""
        if self._expires is None:
            return None
        return max(0.0, self._expires - time.monotonic())

    def expired(self) -> bool:
        return self._expires is not None and time.monotonic() >= self._expires

    def check(self, description: str = "operation") -> None:
        """Raise :class:`DeadlineExceededError` when the budget is spent."""
        if self.expired():
            raise DeadlineExceededError(
                f"{description} exceeded its {self.timeout_s:.1f}s deadline"
            )


def run_with_deadline(fn: Callable, timeout_s: float, description: str = "operation"):
    """Call ``fn()`` with a hard wall-clock bound; returns its result.

    Runs ``fn`` on a worker thread and raises :class:`DeadlineExceededError`
    when it has not finished within ``timeout_s``.  Python cannot kill a
    thread, so on timeout the call keeps running detached — use this for
    operations whose effects are idempotent or atomic (store IO is both).
    """
    if timeout_s <= 0:
        raise ConfigurationError(f"timeout_s must be positive, got {timeout_s}")
    pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix="repro-deadline")
    try:
        future = pool.submit(fn)
        try:
            return future.result(timeout=timeout_s)
        except FutureTimeoutError:
            raise DeadlineExceededError(
                f"{description} exceeded its {timeout_s:.1f}s deadline"
            ) from None
    finally:
        pool.shutdown(wait=False)


# ------------------------------------------------------------ fault injection
#: exception types a fault rule may script, by name (JSON plans use names)
FAULT_ERRORS: Dict[str, type] = {
    "OSError": OSError,
    "IOError": OSError,
    "ConnectionError": ConnectionError,
    "TimeoutError": TimeoutError,
    "RuntimeError": RuntimeError,
    "MemoryError": MemoryError,
    "KeyboardInterrupt": KeyboardInterrupt,
}

_ACTIONS = ("raise", "delay", "exit", "sigkill", "corrupt")


@dataclass(frozen=True)
class FaultRule:
    """One scripted fault: *at this point, on this consult, do this*.

    ``point`` names the fault point consulted by production code;
    ``index`` is the 0-based consult ordinal the rule fires on,
    and ``count`` how many consecutive consults it covers.  Actions:

    ``raise``
        Raise ``error`` (a :data:`FAULT_ERRORS` name) with ``message``.
    ``delay``
        Sleep ``delay_s`` (latency injection), then continue normally.
    ``exit``
        ``os._exit(exit_code)`` — an abrupt interpreter death with no
        cleanup, atexit hooks or finally blocks.
    ``sigkill``
        ``SIGKILL`` the calling process — the harshest interruption the OS
        offers (the CI resume-determinism job uses this at ``trainer.epoch``).
    ``corrupt``
        Handled by the artifact store: overwrite ``corrupt_bytes`` bytes of
        the just-written payload at ``corrupt_offset`` — a simulated torn or
        bit-rotted artifact that :meth:`ArtifactStore.verify` must catch.

    Rules hold only primitives (the error as a *name*), so a plan travels
    as JSON through :data:`FAULT_PLAN_ENV_VAR` into child processes.
    """

    point: str
    index: int = 0
    action: str = "raise"
    error: str = "OSError"
    message: str = "injected fault"
    count: int = 1
    delay_s: float = 0.0
    exit_code: int = 70
    corrupt_bytes: int = 8
    corrupt_offset: int = 0

    def __post_init__(self) -> None:
        if not self.point or not isinstance(self.point, str):
            raise FaultInjectionError(f"fault point must be a name, got {self.point!r}")
        if self.action not in _ACTIONS:
            raise FaultInjectionError(
                f"unknown fault action {self.action!r}; known: {_ACTIONS}"
            )
        if self.action == "raise" and self.error not in FAULT_ERRORS:
            raise FaultInjectionError(
                f"unknown fault error {self.error!r}; known: {sorted(FAULT_ERRORS)}"
            )
        if self.index < 0 or self.count < 1:
            raise FaultInjectionError("index must be >= 0 and count >= 1")

    def matches(self, ordinal: int) -> bool:
        """Whether the rule covers the given 0-based consult ordinal."""
        return self.index <= ordinal < self.index + self.count

    def trigger(self) -> None:
        """Perform the rule's process-local action (raise/delay/exit/sigkill)."""
        if self.action == "raise":
            raise FAULT_ERRORS[self.error](self.message)
        if self.action == "delay":
            time.sleep(self.delay_s)
        elif self.action == "exit":
            os._exit(self.exit_code)
        elif self.action == "sigkill":
            os.kill(os.getpid(), signal.SIGKILL)
        # corrupt is caller-interpreted: consult returns it

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultRule":
        unknown = set(payload) - {f.name for f in fields(cls)}
        if unknown:
            raise FaultInjectionError(f"unknown fault-rule keys: {sorted(unknown)}")
        return cls(**payload)


class FaultInjector:
    """Process-global scripted fault plan consulted at named fault points.

    With no plan active (the production state), :meth:`consult` returns
    after a single class-attribute check.  Chaos tests activate a plan with
    :meth:`activate`/:func:`fault_plan` and production code misbehaves in
    exactly the scripted ways — through its real failure paths, with no
    monkeypatching.  Consults are counted per point, so "the Nth write"
    is well-defined and deterministic.
    """

    _plan: Optional[Tuple[FaultRule, ...]] = None
    _counters: Dict[str, int] = {}
    _fired: List[Tuple[str, int, FaultRule]] = []
    _lock = threading.Lock()
    _env_loaded = False

    # ------------------------------------------------------------ lifecycle
    @classmethod
    def activate(cls, rules: Sequence[FaultRule]) -> None:
        """Install a fault plan (replacing any active one); resets counters."""
        with cls._lock:
            cls._plan = tuple(rules)
            cls._counters = {}
            cls._fired = []

    @classmethod
    def deactivate(cls) -> None:
        """Remove the active plan and reset counters."""
        with cls._lock:
            cls._plan = None
            cls._counters = {}
            cls._fired = []

    @classmethod
    def active(cls) -> bool:
        cls._load_env_plan()
        return cls._plan is not None

    @classmethod
    def fired(cls) -> List[Tuple[str, int, FaultRule]]:
        """The (point, ordinal, rule) triples that have fired, in order."""
        with cls._lock:
            return list(cls._fired)

    @classmethod
    def _load_env_plan(cls) -> None:
        # the environment plan is read once per process: child processes and
        # CLI invocations inherit chaos through the environment
        if cls._env_loaded:
            return
        with cls._lock:
            if cls._env_loaded:
                return
            cls._env_loaded = True
            raw = os.environ.get(FAULT_PLAN_ENV_VAR)
            if not raw:
                return
            try:
                payloads = json.loads(raw)
                rules = tuple(FaultRule.from_dict(p) for p in payloads)
            except (ValueError, TypeError) as exc:
                raise FaultInjectionError(
                    f"{FAULT_PLAN_ENV_VAR} holds an invalid fault plan: {exc}"
                ) from exc
            if cls._plan is None:
                cls._plan = rules
                cls._counters = {}
                cls._fired = []

    # -------------------------------------------------------------- consult
    @classmethod
    def consult(cls, point: str) -> Optional[FaultRule]:
        """Consult a fault point; fires any matching rule of the active plan.

        Process-local actions (``raise``/``delay``/``exit``/``sigkill``)
        execute here; the caller-interpreted ``corrupt`` is returned for
        the call site to apply.  Returns
        ``None`` when nothing fires — the common case, and with no plan
        active the only work is one attribute check.
        """
        if cls._plan is None and cls._env_loaded:
            return None
        cls._load_env_plan()
        with cls._lock:
            if cls._plan is None:
                return None
            ordinal = cls._counters.get(point, 0)
            cls._counters[point] = ordinal + 1
            rule = next(
                (
                    r
                    for r in cls._plan
                    if r.point == point and r.matches(ordinal)
                ),
                None,
            )
            if rule is not None:
                cls._fired.append((point, ordinal, rule))
        if rule is not None:
            logger.warning(
                "fault injected at %s[%d]: %s", point, ordinal, rule.action
            )
            rule.trigger()
        return rule


class fault_plan:
    """Context manager scripting a fault plan for one ``with`` block.

    ::

        with fault_plan([FaultRule(point="store.write", index=1)]):
            store.put_arrays(...)   # the second write raises OSError once
    """

    def __init__(self, rules: Sequence[FaultRule]) -> None:
        self.rules = list(rules)

    def __enter__(self) -> "fault_plan":
        FaultInjector.activate(self.rules)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        FaultInjector.deactivate()


def corrupt_file(path: str, offset: int = 0, n_bytes: int = 8) -> int:
    """Deterministically flip ``n_bytes`` bytes of a file at ``offset``.

    The store's ``corrupt`` fault action and the chaos tests share this
    helper.  Bytes are XORed with 0xFF, so corruption is self-inverse and
    never a no-op.  Returns the number of bytes actually corrupted (clipped
    to the file size); corrupting an empty span is a scripting error.
    """
    size = os.path.getsize(path)
    if offset >= size:
        raise FaultInjectionError(
            f"corrupt offset {offset} is past the end of {path} ({size} bytes)"
        )
    span = min(n_bytes, size - offset)
    with open(path, "r+b") as handle:
        handle.seek(offset)
        original = handle.read(span)
        handle.seek(offset)
        handle.write(bytes(b ^ 0xFF for b in original))
    return span


__all__ = [
    "RetryPolicy",
    "Deadline",
    "run_with_deadline",
    "FaultRule",
    "FaultInjector",
    "fault_plan",
    "corrupt_file",
    "FAULT_ERRORS",
    "MAX_RETRIES_ENV_VAR",
    "RETRY_BACKOFF_ENV_VAR",
    "FAULT_PLAN_ENV_VAR",
]
