"""Pluggable artifact-store backends with fault-hardened remote IO.

The content-addressed :class:`~repro.experiments.store.ArtifactStore` is
the system's only coordination point, so taking the service from one host
to many means generalising its IO behind a backend interface.  This module
holds that interface and the robustness machinery remote storage demands —
remote IO is precisely where failures stop being exceptional (timeouts,
torn uploads, stale reads, partitions), so every layer here is built
robustness-first:

:class:`StoreBackend`
    The ABC: ``get`` / ``put_atomic`` / ``head`` / ``list_kind`` /
    ``delete`` over opaque keys (``"<kind>/<digest><ext>"``), with
    ETag-style conditional puts (``if_match`` / ``if_none_match``).  ETags
    are the payload's SHA-256, so a conditional put doubles as an
    end-to-end integrity check.

:class:`LocalDirBackend`
    Sharded-directory storage and the only code that knows the on-disk
    layout (``<kind>/<digest[:2]>/<digest><ext>``).  The store keeps one
    over its own root for its local tier, so a ``file://`` remote reads
    and writes bytes identical to a directly-rooted store — the
    shared-filesystem deployment story.  It does not retry: a ``file://``
    remote is retried once, by :class:`ResilientBackend`.

:class:`InMemoryBackend`
    A dict behind a lock, for tests; ``mem://<name>`` URLs share one
    process-global instance per name so two stores in one test can talk
    through a common "remote".

:class:`SimulatedRemoteBackend`
    An in-memory backend wearing a failure harness: injectable latency,
    deterministic error rates, and — via the :class:`FaultInjector` points
    ``backend.get`` / ``backend.put`` / ``backend.head`` — scripted error
    bursts, torn writes (the stored bytes are corrupted but the put
    reports success with the *original* payload's ETag, i.e. a stale
    ETag) and corrupted reads.  The chaos suite and the CI
    ``remote-store-chaos`` job drive the whole degradation ladder through
    it with zero monkeypatching.

:class:`ResilientBackend`
    The wrapper every remote backend runs under, and the one retry owner
    of the remote tier: per-call timeouts
    (:func:`repro.resilience.run_with_deadline`) inside transient-error
    retries (:class:`repro.resilience.RetryPolicy`).

:class:`CircuitBreaker`
    closed → open → half-open.  ``threshold`` consecutive failures open
    the circuit; after ``cooldown_s`` it admits ``probes`` trial requests,
    and that many consecutive successes close it again.  While open the
    store degrades to write-through local-cache mode (reads served
    locally, writes journaled for later upload) instead of hanging on a
    dead remote.

:class:`WriteJournal`
    The degraded-mode write log: artifact keys whose upload is pending,
    persisted as one atomically-rewritten JSON file under the store root
    so a crash during an outage loses no uploads.

Selection is by URL — :func:`backend_from_url` understands ``file://``,
``mem://`` and ``sim://`` — normally supplied via ``$REPRO_STORE_URL``.

Environment knobs
-----------------
``REPRO_STORE_URL``
    Backend URL; unset means local-only (no remote tier).
``REPRO_BACKEND_TIMEOUT``
    Per-call timeout in seconds (default 10; 0 disables).
``REPRO_BREAKER_THRESHOLD``
    Consecutive failures that open the circuit (default 5).
``REPRO_BREAKER_COOLDOWN``
    Seconds the circuit stays open before probing (default 30).
``REPRO_BREAKER_PROBES``
    Consecutive probe successes that close it again (default 2).
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import tempfile
import threading
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.config import env_float, env_int
from repro.errors import (
    ConfigurationError,
    DeadlineExceededError,
    PreconditionFailedError,
)
from repro.resilience import FaultInjector, RetryPolicy, run_with_deadline

#: environment variable selecting the store backend by URL
STORE_URL_ENV_VAR = "REPRO_STORE_URL"

#: environment variable setting the per-call backend timeout (seconds)
BACKEND_TIMEOUT_ENV_VAR = "REPRO_BACKEND_TIMEOUT"

#: environment variables tuning the circuit breaker
BREAKER_THRESHOLD_ENV_VAR = "REPRO_BREAKER_THRESHOLD"
BREAKER_COOLDOWN_ENV_VAR = "REPRO_BREAKER_COOLDOWN"
BREAKER_PROBES_ENV_VAR = "REPRO_BREAKER_PROBES"

#: default per-call backend timeout (seconds)
DEFAULT_BACKEND_TIMEOUT_S = 10.0


# ------------------------------------------------------------------ file IO
# The one temp-file + ``os.replace`` of the package and the fault-seamed,
# retried write built on it (store.py re-exports the public ones).


def _sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _json_bytes(payload, indent: int = 2) -> bytes:
    """``payload`` as the sorted-key UTF-8 JSON every on-disk document uses."""
    return json.dumps(payload, indent=indent, sort_keys=True).encode("utf-8")


def _read_json(path: str):
    with open(path) as handle:
        return json.load(handle)


def _replace_file(path: str, writer) -> str:
    """Atomically replace ``path`` with what ``writer(handle)`` writes.

    ``writer`` receives the open binary temp file, so large payloads
    stream to disk; returns their SHA-256.  No fault point and no retry.
    """
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    descriptor, temp_path = tempfile.mkstemp(
        dir=directory, prefix=".tmp-", suffix=os.path.splitext(path)[1]
    )
    try:
        with os.fdopen(descriptor, "wb") as handle:
            writer(handle)
        payload_hash = _sha256_file(temp_path)
        os.replace(temp_path, path)
    except BaseException:
        if os.path.exists(temp_path):
            os.unlink(temp_path)
        raise
    return payload_hash


def _atomic_write_with(path: str, writer, retry=None, on_retry=None) -> str:
    """:func:`_replace_file` behind the ``store.write`` fault point.

    Consults ``store.write`` before each attempt and retries transient IO
    errors under ``retry`` (default :meth:`RetryPolicy.from_env`).
    """
    policy = retry if retry is not None else RetryPolicy.from_env()

    def attempt() -> str:
        FaultInjector.consult("store.write")
        return _replace_file(path, writer)

    return policy.run(
        attempt, description=f"store write {path}", on_retry=on_retry
    )


def atomic_write_bytes(path: str, data: bytes, retry=None) -> str:
    """Atomically replace ``path`` with ``data``; returns the payload SHA-256."""
    return _atomic_write_with(path, lambda handle: handle.write(data), retry=retry)


def atomic_write_json(path: str, payload, retry=None, indent: int = 2) -> str:
    """Atomically replace ``path`` with ``payload`` as JSON; returns the SHA-256."""
    return atomic_write_bytes(path, _json_bytes(payload, indent), retry=retry)


def _etag_of(data: bytes) -> str:
    """The ETag of a payload: its SHA-256 hex digest."""
    return hashlib.sha256(data).hexdigest()


def _validate_backend_key(key: str) -> Tuple[str, str]:
    """Split a backend key into ``(kind, filename)``; reject path tricks."""
    if not isinstance(key, str) or key.count("/") != 1:
        raise ConfigurationError(
            f"backend key must look like 'kind/digest.ext', got {key!r}"
        )
    kind, name = key.split("/")
    if not kind or kind.startswith(".") or not name or name.startswith("."):
        raise ConfigurationError(f"backend key has an invalid component: {key!r}")
    return kind, name


# ---------------------------------------------------------------- interface
@dataclass(frozen=True)
class Blob:
    """One stored object: its bytes and the ETag (payload SHA-256)."""

    data: bytes
    etag: str


class StoreBackend(ABC):
    """Abstract key/blob storage under the artifact store.

    Keys are ``"<kind>/<digest><ext>"`` — flat from the interface's point
    of view; backends may shard however they like.  All methods may raise
    ``OSError`` for transport failures (the transient class the resilience
    layer retries) and :class:`PreconditionFailedError` for failed
    conditional puts.
    """

    #: short scheme name ("file", "mem", "sim") for diagnostics
    scheme: str = "?"

    @abstractmethod
    def get(self, key: str) -> Optional[Blob]:
        """The object at ``key``, or ``None`` when absent."""

    @abstractmethod
    def put_atomic(
        self,
        key: str,
        data: bytes,
        if_match: Optional[str] = None,
        if_none_match: bool = False,
    ) -> str:
        """Store ``data`` at ``key`` atomically; returns the new ETag.

        ``if_match=etag`` only replaces an object whose current ETag
        matches; ``if_none_match=True`` only creates (never replaces).
        Violations raise :class:`PreconditionFailedError`.
        """

    @abstractmethod
    def head(self, key: str) -> Optional[str]:
        """The ETag of ``key`` without fetching the payload, or ``None``."""

    @abstractmethod
    def list_kind(self, kind: str) -> List[str]:
        """Every key under one artifact kind, sorted."""

    @abstractmethod
    def delete(self, key: str) -> bool:
        """Remove ``key``; True when something was removed."""

    def describe(self) -> str:
        """A short human-readable identity for logs and errors."""
        return f"{self.scheme}://"


# ----------------------------------------------------------------- local dir
class LocalDirBackend(StoreBackend):
    """Sharded-directory storage: ``<root>/<kind>/<digest[:2]>/<digest><ext>``.

    Writes are one :func:`_replace_file` attempt; the caller owns retries
    (:class:`ResilientBackend` for a remote, the store for its local tier).
    """

    scheme = "file"

    def __init__(self, root: str) -> None:
        if not root:
            raise ConfigurationError("file:// backend needs a root directory")
        self.root = os.path.abspath(root)
        os.makedirs(self.root, exist_ok=True)

    def path(self, key: str) -> str:
        """The file holding ``key`` (the one place the shard path is built)."""
        kind, name = _validate_backend_key(key)
        return os.path.join(self.root, kind, name[:2], name)

    def get(self, key: str) -> Optional[Blob]:
        try:
            with open(self.path(key), "rb") as handle:
                data = handle.read()
        except FileNotFoundError:
            return None
        return Blob(data=data, etag=_etag_of(data))

    def put_atomic(
        self,
        key: str,
        data: bytes,
        if_match: Optional[str] = None,
        if_none_match: bool = False,
    ) -> str:
        current = self.head(key)
        if if_none_match and current is not None:
            raise PreconditionFailedError(
                f"{key} already exists (etag {current[:12]})"
            )
        if if_match is not None and current != if_match:
            raise PreconditionFailedError(
                f"{key} etag mismatch (expected {if_match[:12]}, "
                f"found {(current or 'absent')[:12]})"
            )
        return _replace_file(self.path(key), lambda handle: handle.write(data))

    def head(self, key: str) -> Optional[str]:
        path = self.path(key)
        if not os.path.exists(path):
            return None
        return _sha256_file(path)

    def kinds(self) -> List[str]:
        """Every artifact kind directory under the root, sorted."""
        if not os.path.isdir(self.root):
            return []
        return [
            name
            for name in sorted(os.listdir(self.root))
            if not name.startswith(".")
            and os.path.isdir(os.path.join(self.root, name))
        ]

    def list_kind(self, kind: str) -> List[str]:
        kind_dir = os.path.join(self.root, kind)
        keys: List[str] = []
        if not os.path.isdir(kind_dir):
            return keys
        for shard in sorted(os.listdir(kind_dir)):
            shard_dir = os.path.join(kind_dir, shard)
            if not os.path.isdir(shard_dir):
                continue
            keys.extend(
                f"{kind}/{name}"
                for name in sorted(os.listdir(shard_dir))
                if not name.startswith(".")
            )
        return keys

    def delete(self, key: str) -> bool:
        try:
            os.unlink(self.path(key))
        except FileNotFoundError:
            return False
        return True

    def describe(self) -> str:
        return f"file://{self.root}"


# ----------------------------------------------------------------- in-memory
class InMemoryBackend(StoreBackend):
    """Dict-backed storage for tests (and the substrate of ``sim://``)."""

    scheme = "mem"

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._objects: Dict[str, bytes] = {}
        self._lock = threading.Lock()

    def get(self, key: str) -> Optional[Blob]:
        _validate_backend_key(key)
        with self._lock:
            data = self._objects.get(key)
        if data is None:
            return None
        return Blob(data=data, etag=_etag_of(data))

    def put_atomic(
        self,
        key: str,
        data: bytes,
        if_match: Optional[str] = None,
        if_none_match: bool = False,
    ) -> str:
        _validate_backend_key(key)
        with self._lock:
            current = self._objects.get(key)
            current_etag = None if current is None else _etag_of(current)
            if if_none_match and current is not None:
                raise PreconditionFailedError(
                    f"{key} already exists (etag {current_etag[:12]})"
                )
            if if_match is not None and current_etag != if_match:
                raise PreconditionFailedError(
                    f"{key} etag mismatch (expected {if_match[:12]}, "
                    f"found {(current_etag or 'absent')[:12]})"
                )
            self._objects[key] = bytes(data)
            return _etag_of(data)

    def head(self, key: str) -> Optional[str]:
        _validate_backend_key(key)
        with self._lock:
            data = self._objects.get(key)
        return None if data is None else _etag_of(data)

    def list_kind(self, kind: str) -> List[str]:
        prefix = f"{kind}/"
        with self._lock:
            return sorted(key for key in self._objects if key.startswith(prefix))

    def delete(self, key: str) -> bool:
        _validate_backend_key(key)
        with self._lock:
            return self._objects.pop(key, None) is not None

    # ------------------------------------------------------------- test hooks
    def tamper(self, key: str, flip: int = 8) -> None:
        """XOR the first ``flip`` bytes of a stored object (bit-rot seam)."""
        with self._lock:
            data = self._objects.get(key)
            if data is None:
                raise ConfigurationError(f"cannot tamper with absent key {key!r}")
            span = min(flip, len(data))
            self._objects[key] = (
                bytes(b ^ 0xFF for b in data[:span]) + data[span:]
            )

    def clear(self) -> None:
        with self._lock:
            self._objects.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._objects)

    def describe(self) -> str:
        return f"mem://{self.name}"


#: process-global registry backing ``mem://<name>`` / ``sim://<name>`` URLs —
#: every store resolving the same name in one process shares one backend,
#: which is how tests give two stores a common "remote"
_MEM_REGISTRY: Dict[str, InMemoryBackend] = {}
_MEM_REGISTRY_LOCK = threading.Lock()


def shared_memory_backend(name: str) -> InMemoryBackend:
    """The process-global :class:`InMemoryBackend` registered under ``name``."""
    with _MEM_REGISTRY_LOCK:
        backend = _MEM_REGISTRY.get(name)
        if backend is None:
            backend = _MEM_REGISTRY[name] = InMemoryBackend(name=name)
        return backend


def reset_memory_backends() -> None:
    """Drop every registered ``mem://`` backend (test isolation)."""
    with _MEM_REGISTRY_LOCK:
        _MEM_REGISTRY.clear()


# ------------------------------------------------------------------ simulated
class SimulatedRemoteBackend(StoreBackend):
    """An in-memory "remote" with an injectable failure harness.

    Three chaos seams, all deterministic:

    * ``latency_s`` sleeps before every call (network RTT).
    * ``error_rate`` raises ``OSError`` on that fraction of calls, driven
      by a seeded RNG — the same seed replays the same failure sequence.
    * The :class:`FaultInjector` points ``backend.get`` / ``backend.put``
      / ``backend.head`` run scripted plans: ``raise``/``delay`` rules act
      directly; a ``corrupt`` rule on ``backend.put`` stores *corrupted*
      bytes while reporting success with the original payload's ETag (a
      torn upload with a stale ETag — exactly what read-repair must
      catch), and on ``backend.get`` returns a corrupted copy of the
      stored bytes once (a stale/bit-rotted read the second fetch heals).
    """

    scheme = "sim"

    def __init__(
        self,
        inner: Optional[InMemoryBackend] = None,
        latency_s: float = 0.0,
        error_rate: float = 0.0,
        seed: int = 0,
        name: str = "",
    ) -> None:
        if latency_s < 0:
            raise ConfigurationError(f"latency_s must be >= 0, got {latency_s}")
        if not 0.0 <= error_rate < 1.0:
            raise ConfigurationError(
                f"error_rate must be in [0, 1), got {error_rate}"
            )
        self.inner = inner if inner is not None else InMemoryBackend(name=name)
        self.name = name or self.inner.name
        self.latency_s = float(latency_s)
        self.error_rate = float(error_rate)
        self._rng = random.Random(seed)
        self._rng_lock = threading.Lock()

    def _chaos(self, point: str):
        """Latency + seeded errors + the scripted plan; returns a corrupt rule."""
        if self.latency_s:
            time.sleep(self.latency_s)
        if self.error_rate:
            with self._rng_lock:
                roll = self._rng.random()
            if roll < self.error_rate:
                raise OSError(f"simulated remote error at {point}")
        return FaultInjector.consult(point)

    @staticmethod
    def _corrupt_copy(data: bytes, rule) -> bytes:
        offset = min(rule.corrupt_offset, max(0, len(data) - 1))
        span = min(rule.corrupt_bytes, len(data) - offset)
        return (
            data[:offset]
            + bytes(b ^ 0xFF for b in data[offset : offset + span])
            + data[offset + span :]
        )

    def get(self, key: str) -> Optional[Blob]:
        rule = self._chaos("backend.get")
        blob = self.inner.get(key)
        if blob is not None and rule is not None and rule.action == "corrupt":
            # a stale or bit-rotted read: corrupted bytes under the old ETag
            return Blob(data=self._corrupt_copy(blob.data, rule), etag=blob.etag)
        return blob

    def put_atomic(
        self,
        key: str,
        data: bytes,
        if_match: Optional[str] = None,
        if_none_match: bool = False,
    ) -> str:
        rule = self._chaos("backend.put")
        if rule is not None and rule.action == "corrupt":
            # torn upload: corrupted bytes land, but the backend reports
            # success with the *intended* payload's ETag (stale ETag)
            self.inner.put_atomic(
                key,
                self._corrupt_copy(data, rule),
                if_match=if_match,
                if_none_match=if_none_match,
            )
            return _etag_of(data)
        return self.inner.put_atomic(
            key, data, if_match=if_match, if_none_match=if_none_match
        )

    def head(self, key: str) -> Optional[str]:
        self._chaos("backend.head")
        return self.inner.head(key)

    def list_kind(self, kind: str) -> List[str]:
        self._chaos("backend.list")
        return self.inner.list_kind(kind)

    def delete(self, key: str) -> bool:
        self._chaos("backend.delete")
        return self.inner.delete(key)

    def describe(self) -> str:
        return f"sim://{self.name}"


# --------------------------------------------------------------- URL parsing
def backend_from_url(url: str) -> StoreBackend:
    """Build a :class:`StoreBackend` from a ``file://``/``mem://``/``sim://`` URL.

    * ``file:///shared/artifacts`` — :class:`LocalDirBackend` on a path
      (shared-filesystem remote).
    * ``mem://name`` — the process-global :class:`InMemoryBackend`
      registered under ``name``.
    * ``sim://name?latency_ms=20&error_rate=0.05&seed=7`` —
      :class:`SimulatedRemoteBackend` over the same shared registry, so
      every store resolving one name sees one object space.
    """
    if not isinstance(url, str) or "://" not in url:
        raise ConfigurationError(
            f"store URL must look like scheme://..., got {url!r}"
        )
    parts = urlsplit(url)
    scheme = parts.scheme.lower()
    if scheme == "file":
        root = (parts.netloc + parts.path) if parts.netloc else parts.path
        if not root:
            raise ConfigurationError(f"file:// URL needs a path, got {url!r}")
        return LocalDirBackend(root)
    name = parts.netloc + parts.path.rstrip("/")
    if scheme == "mem":
        return shared_memory_backend(name or "default")
    if scheme == "sim":
        query = parse_qs(parts.query)

        def _param(key: str, default: float, caster=float) -> float:
            values = query.get(key)
            if not values:
                return default
            try:
                return caster(values[-1])
            except ValueError:
                raise ConfigurationError(
                    f"store URL parameter {key}={values[-1]!r} must be "
                    f"{caster.__name__}"
                ) from None

        return SimulatedRemoteBackend(
            inner=shared_memory_backend(name or "default"),
            latency_s=_param("latency_ms", 0.0) / 1000.0,
            error_rate=_param("error_rate", 0.0),
            seed=int(_param("seed", 0, caster=int)),
            name=name or "default",
        )
    raise ConfigurationError(
        f"unknown store URL scheme {scheme!r} in {url!r}; "
        f"known: file://, mem://, sim://"
    )


# ------------------------------------------------------------ circuit breaker
class CircuitBreaker:
    """closed → open → half-open failure isolation for one backend.

    ``threshold`` *consecutive* failures open the circuit; while open,
    :meth:`allow` answers False (degraded mode) without touching the
    backend.  After ``cooldown_s`` the breaker moves to half-open and
    admits probe requests; ``probes`` consecutive successes close it, any
    failure snaps it back open for another cooldown.  ``clock`` is
    injectable (monotonic seconds) so tests step time instead of sleeping.
    """

    def __init__(
        self,
        threshold: int = 5,
        cooldown_s: float = 30.0,
        probes: int = 2,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if not isinstance(threshold, int) or threshold < 1:
            raise ConfigurationError(
                f"breaker threshold must be a positive int, got {threshold!r}"
            )
        if cooldown_s <= 0:
            raise ConfigurationError(
                f"breaker cooldown_s must be positive, got {cooldown_s!r}"
            )
        if not isinstance(probes, int) or probes < 1:
            raise ConfigurationError(
                f"breaker probes must be a positive int, got {probes!r}"
            )
        self.threshold = threshold
        self.cooldown_s = float(cooldown_s)
        self.probes = probes
        self.clock = clock
        self.opened_total = 0
        self.closed_total = 0
        self._lock = threading.Lock()
        self._state = "closed"
        self._consecutive_failures = 0
        self._probe_successes = 0
        self._opened_at = 0.0

    @classmethod
    def from_env(cls, **overrides) -> "CircuitBreaker":
        """A breaker tuned by the ``REPRO_BREAKER_*`` environment knobs."""
        settings = {
            "threshold": env_int(BREAKER_THRESHOLD_ENV_VAR, 5, minimum=1),
            "cooldown_s": env_float(BREAKER_COOLDOWN_ENV_VAR, 30.0),
            "probes": env_int(BREAKER_PROBES_ENV_VAR, 2, minimum=1),
        }
        settings.update(overrides)
        return cls(**settings)

    def _tick(self) -> None:
        # lazily promote open -> half_open once the cooldown has elapsed
        if (
            self._state == "open"
            and self.clock() - self._opened_at >= self.cooldown_s
        ):
            self._state = "half_open"
            self._probe_successes = 0

    @property
    def state(self) -> str:
        """``"closed"``, ``"open"`` or ``"half_open"`` (cooldown-aware)."""
        with self._lock:
            self._tick()
            return self._state

    def state_code(self) -> int:
        """The state as a gauge value: 0 closed, 1 half-open, 2 open."""
        return {"closed": 0, "half_open": 1, "open": 2}[self.state]

    def allow(self) -> bool:
        """Whether the next backend call may proceed (False = degraded)."""
        with self._lock:
            self._tick()
            return self._state != "open"

    def record_success(self) -> None:
        """Note one successful backend call (closes a probed half-open)."""
        with self._lock:
            self._tick()
            self._consecutive_failures = 0
            if self._state == "half_open":
                self._probe_successes += 1
                if self._probe_successes >= self.probes:
                    self._state = "closed"
                    self.closed_total += 1

    def record_failure(self) -> None:
        """Note one failed backend call (may open the circuit)."""
        with self._lock:
            self._tick()
            if self._state == "half_open":
                # a failed probe snaps straight back open
                self._state = "open"
                self._opened_at = self.clock()
                self.opened_total += 1
                self._consecutive_failures = 0
                return
            self._consecutive_failures += 1
            if self._state == "closed" and (
                self._consecutive_failures >= self.threshold
            ):
                self._state = "open"
                self._opened_at = self.clock()
                self.opened_total += 1
                self._consecutive_failures = 0

    def reset(self) -> None:
        """Force-close the breaker (administrative override)."""
        with self._lock:
            self._state = "closed"
            self._consecutive_failures = 0
            self._probe_successes = 0


# ---------------------------------------------------------------- resilience
class ResilientBackend(StoreBackend):
    """Retry + per-call timeout around any backend.

    Every call runs under the wrapped :class:`RetryPolicy` (transient =
    ``OSError`` *and* :class:`DeadlineExceededError`, so a timed-out call
    earns another attempt) with an optional hard per-call deadline.  It is
    the remote tier's only retry loop.
    """

    scheme = "resilient"

    def __init__(
        self,
        inner: StoreBackend,
        retry: Optional[RetryPolicy] = None,
        timeout_s: Optional[float] = None,
    ) -> None:
        if timeout_s is not None and timeout_s < 0:
            raise ConfigurationError(f"timeout_s must be >= 0, got {timeout_s}")
        self.inner = inner
        self.retry = (
            retry
            if retry is not None
            else RetryPolicy.from_env(transient=(OSError, DeadlineExceededError))
        )
        self.timeout_s = timeout_s or None

    @classmethod
    def from_env(cls, inner: StoreBackend, **overrides) -> "ResilientBackend":
        """Wrap ``inner`` per ``REPRO_BACKEND_TIMEOUT``."""
        timeout_s = env_float(
            BACKEND_TIMEOUT_ENV_VAR, DEFAULT_BACKEND_TIMEOUT_S, minimum=0.0
        )
        return cls(inner, **{"timeout_s": timeout_s, **overrides})

    def _call(self, fn: Callable, description: str):
        def bounded():
            if self.timeout_s:
                return run_with_deadline(fn, self.timeout_s, description)
            return fn()

        return self.retry.run(bounded, description=description)

    # ------------------------------------------------------------------ API
    def get(self, key: str) -> Optional[Blob]:
        return self._call(lambda: self.inner.get(key), f"backend get {key}")

    def put_atomic(
        self,
        key: str,
        data: bytes,
        if_match: Optional[str] = None,
        if_none_match: bool = False,
    ) -> str:
        # PreconditionFailedError is not transient: it propagates on the
        # first attempt so content-addressed dedupe stays a cheap signal
        return self._call(
            lambda: self.inner.put_atomic(
                key, data, if_match=if_match, if_none_match=if_none_match
            ),
            f"backend put {key}",
        )

    def head(self, key: str) -> Optional[str]:
        return self._call(lambda: self.inner.head(key), f"backend head {key}")

    def list_kind(self, kind: str) -> List[str]:
        return self._call(
            lambda: self.inner.list_kind(kind), f"backend list {kind}"
        )

    def delete(self, key: str) -> bool:
        return self._call(lambda: self.inner.delete(key), f"backend delete {key}")

    def describe(self) -> str:
        return self.inner.describe()


# ------------------------------------------------------------- write journal
class WriteJournal:
    """Degraded-mode write log: artifact keys awaiting upload.

    One JSON file (a sorted list of ``{"kind", "digest"}`` entries),
    rewritten atomically on every change so a crash mid-outage never loses
    or tears the pending set.  The payload bytes themselves stay in the
    local cache — the journal records *which* artifacts to re-upload, and
    the flusher reads their current local bytes at flush time.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._lock = threading.Lock()
        self._entries: List[Tuple[str, str]] = []
        self._load()

    def _load(self) -> None:
        try:
            payload = _read_json(self.path)
            entries = [
                (str(item["kind"]), str(item["digest"]))
                for item in payload.get("pending", [])
            ]
        except FileNotFoundError:
            return
        except (OSError, ValueError, TypeError, KeyError):
            # a torn or malformed journal must not brick the store: start
            # empty (worst case some uploads are redone — puts are
            # idempotent by content address)
            return
        self._entries = entries

    def _persist(self) -> None:
        # deliberately *not* through the store.write fault point: journal
        # writes happen while chaos plans are live, and shifting scripted
        # store.write ordinals would make fault plans nondeterministic
        body = _json_bytes(
            {"pending": [{"kind": k, "digest": d} for k, d in self._entries]}
        )
        _replace_file(self.path, lambda handle: handle.write(body))

    def add(self, kind: str, digest: str) -> bool:
        """Journal one artifact for later upload; False when already pending."""
        with self._lock:
            if (kind, digest) in self._entries:
                return False
            self._entries.append((kind, digest))
            self._persist()
            return True

    def remove(self, kind: str, digest: str) -> bool:
        """Drop one flushed (or evicted) entry."""
        with self._lock:
            try:
                self._entries.remove((kind, digest))
            except ValueError:
                return False
            self._persist()
            return True

    def pending(self) -> List[Tuple[str, str]]:
        """The journaled ``(kind, digest)`` pairs, oldest first."""
        with self._lock:
            return list(self._entries)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


__all__ = [
    "Blob",
    "StoreBackend",
    "LocalDirBackend",
    "InMemoryBackend",
    "SimulatedRemoteBackend",
    "ResilientBackend",
    "CircuitBreaker",
    "WriteJournal",
    "backend_from_url",
    "shared_memory_backend",
    "reset_memory_backends",
    "atomic_write_bytes",
    "atomic_write_json",
    "STORE_URL_ENV_VAR",
    "BACKEND_TIMEOUT_ENV_VAR",
    "BREAKER_THRESHOLD_ENV_VAR",
    "BREAKER_COOLDOWN_ENV_VAR",
    "BREAKER_PROBES_ENV_VAR",
]
