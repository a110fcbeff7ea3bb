"""Content-addressed on-disk artifact store.

Artifacts — trained model weights, crafted adversarial suites, finished
result grids — are cached under a root directory keyed by *(kind, digest)*,
where ``digest`` is the spec content hash that produced the artifact
(:mod:`repro.experiments.spec`).  Because the digest covers everything that
determines the computation (architecture, dataset parameters, training
budget, seeds, attack parameters, budgets), a hit is always safe to reuse
and sharing a store between runs, processes or CI jobs is free.

Layout (built only by :class:`~repro.experiments.backends.LocalDirBackend`)::

    <root>/<kind>/<digest[:2]>/<digest>.npz         array artifacts
    <root>/<kind>/<digest[:2]>/<digest>.json        JSON artifacts
    <root>/<kind>/<digest[:2]>/<digest>.meta.json   provenance + payload hash
    <root>/<kind>/<digest[:2]>/<digest>.lease.json  single-writer claim
    <root>/.quarantine/<kind>/<digest>.*            artifacts verify() failed

The root defaults to ``$REPRO_ARTIFACT_DIR`` when set, else
``~/.cache/repro``.

Fault tolerance (the resilience layer, PR 6):

* Writes are atomic (temp file + ``os.replace``) and *retried* under a
  :class:`repro.resilience.RetryPolicy` on transient IO errors, so a flaky
  filesystem costs a deterministic backoff, not a crashed run.  The store
  is the one retry owner of its local tier (counted in
  ``StoreStats.retries``).
* Every payload's SHA-256 is recorded in the meta sidecar at put time;
  :meth:`ArtifactStore.verify` re-hashes the store and *quarantines*
  truncated or bit-rotted entries (readers also quarantine entries they
  fail to load), so the next ``Session.run`` recomputes instead of
  crashing.
* :meth:`ArtifactStore.lease` hands out single-writer lease files with
  expiry and takeover — the claim mechanism that lets N hosts fill one
  shared store without duplicate training.
* :class:`TrainingCheckpointer` stores epoch-granular training state keyed
  by *(model digest, epoch)* so an interrupted ``Trainer.fit`` resumes with
  byte-identical results.
* The store consults the fault points ``store.write``, ``store.read`` and
  ``store.corrupt`` (see :class:`repro.resilience.FaultInjector`), which is
  how the chaos suite drives all of the above without monkeypatching.

Remote tier (PR 10): pointing the store at a backend URL
(``REPRO_STORE_URL`` / the ``store_url`` argument / an explicit
``backend``) layers a remote :class:`~repro.experiments.backends.
StoreBackend` *behind* the local directory, which stays the authoritative
cache for bit-identical reproduction:

* Reads that miss locally fetch from the remote, re-hash the payload
  against its ``payload_sha256`` sidecar (*read-repair*: mismatches are
  quarantined and re-fetched once), and land in the local cache through
  the same atomic write path as a local put.
* Writes go through locally first, then upload write-through with
  ``if_none_match`` conditional puts (a precondition failure means the
  content-addressed payload is already uploaded — dedupe, not an error).
* Every remote call runs under the
  :class:`~repro.experiments.backends.ResilientBackend` (retry + per-call
  timeout) — the remote tier's one retry owner, so a ``file://`` remote
  is retried once, by it — and is accounted to a
  :class:`~repro.experiments.backends.CircuitBreaker`.  When the breaker
  opens the store *degrades* instead of hanging: reads are served from
  the local cache, writes are journaled
  (:class:`~repro.experiments.backends.WriteJournal`) for upload after
  recovery, and a local read miss raises
  :class:`~repro.errors.MissingArtifactError` with
  ``backend_degraded=True``.  Recovery is automatic via half-open probe
  requests; the journal flushes opportunistically on the next healthy
  remote operation (or explicitly via :meth:`ArtifactStore.flush_journal`).
* :meth:`ArtifactStore.warm` prefetches one artifact remote→local — the
  Session's speculative-prefetch thread uses it to warm the next stage's
  artifacts while the current stage computes.
"""

from __future__ import annotations

import hashlib
import json
import os
import secrets
import socket
import threading
import time
import zipfile
import zlib
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.config import env_float
from repro.errors import (
    ConfigurationError,
    DeadlineExceededError,
    LeaseHeldError,
    MissingArtifactError,
    PreconditionFailedError,
)
from repro.experiments.backends import (
    STORE_URL_ENV_VAR,
    CircuitBreaker,
    LocalDirBackend,
    ResilientBackend,
    StoreBackend,
    WriteJournal,
    _atomic_write_with,
    _json_bytes,
    _read_json,
    _replace_file,
    atomic_write_bytes,
    atomic_write_json,
    backend_from_url,
)
from repro.resilience import FaultInjector, RetryPolicy, corrupt_file

#: environment variable overriding the default store root
STORE_ENV_VAR = "REPRO_ARTIFACT_DIR"

#: environment variable overriding the default lease time-to-live (seconds)
LEASE_TTL_ENV_VAR = "REPRO_LEASE_TTL"

#: environment variable overriding the quarantine retention (seconds)
QUARANTINE_TTL_ENV_VAR = "REPRO_QUARANTINE_TTL"

#: default single-writer lease time-to-live
DEFAULT_LEASE_TTL_S = 900.0

#: default quarantine retention before verify()/prune sweep it (7 days)
DEFAULT_QUARANTINE_TTL_S = 7 * 24 * 3600.0

#: errors a remote backend call may fail with after retries
_REMOTE_ERRORS = (OSError, DeadlineExceededError)

#: tolerated wall-clock skew between lease writers (seconds) — expiry is a
#: comparison of clocks stamped on different hosts (or on one host across a
#: clock step), so a lease is only *taken over* once it is expired by more
#: than this margin
LEASE_SKEW_S = 5.0

#: directory (under the root) holding quarantined artifacts
QUARANTINE_DIR = ".quarantine"

_HEX_DIGITS = frozenset("0123456789abcdef")


def default_store_root() -> str:
    """The artifact-store root: ``$REPRO_ARTIFACT_DIR`` or ``~/.cache/repro``."""
    override = os.environ.get(STORE_ENV_VAR)
    if override:
        return override
    return os.path.join(os.path.expanduser("~"), ".cache", "repro")


def default_lease_ttl_s() -> float:
    """The lease TTL: ``$REPRO_LEASE_TTL`` seconds or 900."""
    ttl = env_float(LEASE_TTL_ENV_VAR, DEFAULT_LEASE_TTL_S)
    if ttl <= 0:
        raise ConfigurationError(f"{LEASE_TTL_ENV_VAR} must be positive, got {ttl}")
    return ttl


def default_quarantine_ttl_s() -> float:
    """The quarantine retention: ``$REPRO_QUARANTINE_TTL`` seconds or 7 days."""
    ttl = env_float(QUARANTINE_TTL_ENV_VAR, DEFAULT_QUARANTINE_TTL_S)
    if ttl <= 0:
        raise ConfigurationError(
            f"{QUARANTINE_TTL_ENV_VAR} must be positive, got {ttl}"
        )
    return ttl


@dataclass
class StoreStats:
    """Hit/miss/put counters of one :class:`ArtifactStore` instance.

    The ``remote_*`` / journal / prefetch counters only move when a remote
    backend is configured; ``quarantine_swept`` counts quarantined files
    removed by the TTL sweep in :meth:`ArtifactStore.verify` / ``prune``.
    """

    hits: int = 0
    misses: int = 0
    puts: int = 0
    evictions: int = 0
    retries: int = 0
    quarantined: int = 0
    quarantine_swept: int = 0
    remote_hits: int = 0
    remote_misses: int = 0
    remote_puts: int = 0
    remote_failures: int = 0
    journaled: int = 0
    flushed: int = 0
    read_repairs: int = 0
    prefetched: int = 0
    prefetch_hits: int = 0

    def snapshot(self) -> dict:
        """The counters as a plain dict, in field order."""
        return asdict(self)


@dataclass(frozen=True)
class ArtifactEntry:
    """One stored artifact: its key, payload size and modification time."""

    kind: str
    digest: str
    path: str
    size_bytes: int
    mtime: float


@dataclass(frozen=True)
class VerifyFinding:
    """One problem :meth:`ArtifactStore.verify` found (and what it did)."""

    kind: str
    digest: str
    path: str
    problem: str
    quarantined: bool


def _validate_key(kind: str, digest: str) -> None:
    if not isinstance(kind, str) or not kind or "/" in kind or kind.startswith("."):
        raise ConfigurationError(f"artifact kind must be a simple name, got {kind!r}")
    if (
        not isinstance(digest, str)
        or len(digest) < 8
        or not set(digest) <= _HEX_DIGITS
    ):
        raise ConfigurationError(
            f"artifact digest must be a lowercase hex string, got {digest!r}"
        )


#: what parsing a torn, truncated or bit-rotted payload raises
_PARSE_ERRORS = (OSError, ValueError, zipfile.BadZipFile, zlib.error)


def _read_npz(path: str) -> Dict[str, np.ndarray]:
    with np.load(path) as archive:
        return {key: archive[key] for key in archive.files}


#: payload extension -> parser, in lookup order
_READERS = {".npz": _read_npz, ".json": _read_json}


def _parse_meta(data: bytes) -> dict:
    """A meta sidecar's JSON object.

    Raises :class:`ValueError` for anything else: undecodable or invalid
    JSON, a document that is not an object, nesting too deep for the
    parser, or a ``payload_sha256`` that is neither a string nor null.
    """
    try:
        meta = json.loads(data)
    except RecursionError:
        raise ValueError("meta sidecar nests too deeply") from None
    if not isinstance(meta, dict):
        raise ValueError(f"meta sidecar is a JSON {type(meta).__name__}, not an object")
    if not isinstance(meta.get("payload_sha256"), (str, type(None))):
        raise ValueError("meta sidecar payload_sha256 is not a string")
    return meta


def _lease_skew_s(doc: dict) -> float:
    """The expiry grace margin for one lease document.

    A quarter of the holder's own TTL, capped at :data:`LEASE_SKEW_S` — so
    production leases (minutes) absorb several seconds of cross-writer
    clock skew while the short TTLs used in tests and CI takeover paths
    stay promptly stealable.
    """
    ttl = doc.get("ttl_s")
    if not isinstance(ttl, (int, float)) or ttl <= 0:
        expires, acquired = doc.get("expires"), doc.get("acquired")
        if isinstance(expires, (int, float)) and isinstance(acquired, (int, float)):
            ttl = expires - acquired
        else:
            return LEASE_SKEW_S
    return min(LEASE_SKEW_S, max(0.0, 0.25 * ttl))


def _lease_expired(doc: Optional[dict], now: float) -> bool:
    """Whether a lease document is safely past its expiry.

    Expiry compares wall clocks stamped by *different* writers, so a raw
    ``expires <= now`` check lets a backwards clock step (or modest
    cross-host skew) make a live lease look dead and be stolen from a
    healthy writer.  A lease is only considered expired once ``now`` is
    past ``expires`` by more than the skew margin (:func:`_lease_skew_s`).
    Malformed documents — no numeric expiry, or a *negative* remaining TTL
    relative to their own ``acquired`` stamp (the writer's clock stepped
    between the two reads, or the doc is corrupt) — are treated as
    expired: their timing claims cannot be trusted.
    """
    if not doc:
        return True
    expires = doc.get("expires")
    if not isinstance(expires, (int, float)):
        return True
    acquired = doc.get("acquired")
    if isinstance(acquired, (int, float)) and expires < acquired:
        return True  # negative TTL: the document's own clocks disagree
    return now - expires > _lease_skew_s(doc)


class Lease:
    """A single-writer claim on one artifact key, backed by a lease file.

    Acquisition is atomic (``O_CREAT | O_EXCL``); an expired lease — its
    writer crashed or lost the host — is *taken over* by atomically
    replacing the file and confirming ownership on read-back, so two
    racing claimants resolve to exactly one winner.  Holders should
    :meth:`refresh` within the TTL for long computations (the Session
    refreshes once per training epoch).

    Use as a context manager (raises :class:`LeaseHeldError` when the claim
    is lost to a live holder) or poll :meth:`acquire` directly.
    """

    def __init__(self, path: str, ttl_s: float, owner: Optional[str] = None) -> None:
        if ttl_s <= 0:
            raise ConfigurationError(f"lease ttl_s must be positive, got {ttl_s}")
        self.path = path
        self.ttl_s = float(ttl_s)
        self.owner = owner or f"{socket.gethostname()}:{os.getpid()}"
        self._token = secrets.token_hex(8)
        self._held = False

    # -------------------------------------------------------------- helpers
    def _write_doc(self, handle) -> None:
        now = time.time()
        doc = {
            "owner": self.owner,
            "token": self._token,
            "pid": os.getpid(),
            "acquired": now,
            "expires": now + self.ttl_s,
            "ttl_s": self.ttl_s,
        }
        handle.write(_json_bytes(doc))

    def holder(self) -> Optional[dict]:
        """The current lease document, or ``None`` when unclaimed/unreadable."""
        try:
            return _read_json(self.path)
        except (OSError, ValueError):
            return None

    def held_by_self(self) -> bool:
        holder = self.holder()
        return bool(holder) and holder.get("token") == self._token

    def _claim_in_progress(self) -> bool:
        """Whether an unreadable lease file is a racing claimant's fresh one.

        A claim creates the file (``O_EXCL``) before writing its document,
        so for a moment a live lease reads as empty.  Only an unreadable
        file older than :data:`LEASE_SKEW_S` is a dead writer's leftover.
        """
        try:
            age = time.time() - os.path.getmtime(self.path)
        except OSError:
            return False
        return age < LEASE_SKEW_S

    def remaining_s(self) -> float:
        """Seconds until the current holder's expiry (never negative).

        A backwards clock step can put ``expires`` in the apparent past (or
        ``now`` past it) — callers budgeting refresh intervals must never
        see a negative remaining TTL, so the value is clamped at zero.
        """
        holder = self.holder()
        if not holder:
            return 0.0
        expires = holder.get("expires")
        if not isinstance(expires, (int, float)):
            return 0.0
        return max(0.0, expires - time.time())

    # ------------------------------------------------------------------ API
    def acquire(self) -> bool:
        """Try to claim the lease (non-blocking); True on success.

        A missing lease file is claimed atomically; an *expired* one —
        expired by more than :data:`LEASE_SKEW_S`, so a clock step or
        cross-host skew cannot make a live lease look dead — is taken
        over.  A live lease held by someone else returns False.
        """
        os.makedirs(os.path.dirname(self.path), exist_ok=True)
        try:
            descriptor = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            holder = self.holder()
            if holder is not None and not _lease_expired(holder, time.time()):
                return False
            if holder is None and self._claim_in_progress():
                return False
            # expired (or unreadable) lease: take over atomically and confirm
            # ownership on read-back — of two racing replacers exactly one
            # token survives in the file.  Lease writes never consult the
            # store.write fault point, so chaos-plan ordinals stay put.
            _replace_file(self.path, self._write_doc)
            self._held = self.held_by_self()
            return self._held
        with os.fdopen(descriptor, "wb") as handle:
            self._write_doc(handle)
        self._held = True
        return True

    def refresh(self) -> bool:
        """Extend the expiry of a lease this object holds; False if lost."""
        if not self._held or not self.held_by_self():
            self._held = False
            return False
        _replace_file(self.path, self._write_doc)
        return True

    def release(self) -> None:
        """Drop the claim (only when still held by this object)."""
        if self._held and self.held_by_self():
            try:
                os.unlink(self.path)
            except OSError:
                pass
        self._held = False

    def __enter__(self) -> "Lease":
        if not self.acquire():
            holder = self.holder() or {}
            raise LeaseHeldError(
                f"lease {self.path} is held by {holder.get('owner', 'unknown')} "
                f"until {holder.get('expires', 0):.0f}"
            )
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.release()


class ArtifactStore:
    """Content-addressed artifact cache rooted at a directory.

    Array artifacts travel as ``dict[str, np.ndarray]`` (stored as ``.npz``);
    JSON artifacts as plain JSON-serialisable payloads.  Every ``put``
    writes a meta sidecar carrying the payload's SHA-256 (for
    :meth:`verify`) plus an optional ``meta`` payload (typically the
    producing spec's ``to_dict()``) for provenance and debugging.

    ``retry`` governs transient-IO retries on every read and write
    (default: :meth:`RetryPolicy.from_env`, honouring ``REPRO_MAX_RETRIES``
    / ``REPRO_RETRY_BACKOFF``).

    A *remote tier* is attached by passing a
    :class:`~repro.experiments.backends.StoreBackend` (``backend``), a
    backend URL (``store_url``), or by setting ``$REPRO_STORE_URL``
    (precedence in that order).  The local directory stays the
    authoritative cache; the remote backend is consulted on local read
    misses and written through on puts — see the module docstring for the
    degradation/recovery ladder.  ``breaker`` injects a pre-built
    :class:`~repro.experiments.backends.CircuitBreaker` (tests use a fake
    clock); the default is :meth:`CircuitBreaker.from_env`.
    """

    def __init__(
        self,
        root: Optional[str] = None,
        retry: Optional[RetryPolicy] = None,
        backend: Optional[StoreBackend] = None,
        store_url: Optional[str] = None,
        breaker: Optional[CircuitBreaker] = None,
    ) -> None:
        self.root = os.path.abspath(root if root is not None else default_store_root())
        self.stats = StoreStats()
        self.retry = retry if retry is not None else RetryPolicy.from_env()
        self._lock = threading.Lock()
        self._local = LocalDirBackend(self.root)
        if store_url is None:
            store_url = os.environ.get(STORE_URL_ENV_VAR) or None
        self.store_url = store_url
        if backend is None and store_url:
            backend = backend_from_url(store_url)
        if backend is not None and not isinstance(backend, ResilientBackend):
            backend = ResilientBackend.from_env(backend)
        self.remote: Optional[ResilientBackend] = backend
        self.breaker: Optional[CircuitBreaker] = None
        self.journal: Optional[WriteJournal] = None
        if self.remote is not None:
            self.breaker = breaker if breaker is not None else CircuitBreaker.from_env()
            self.journal = WriteJournal(
                os.path.join(self.root, ".journal", "pending.json")
            )
        self._warmed: Set[Tuple[str, str]] = set()

    def _count_retry(self, attempt: int, exc: BaseException) -> None:
        self.stats.retries += 1

    # ----------------------------------------------------------------- paths
    @staticmethod
    def _key(kind: str, digest: str, extension: str) -> str:
        """The backend key of one file of an entry, local and remote alike."""
        return f"{kind}/{digest}{extension}"

    def _path(self, kind: str, digest: str, extension: str) -> str:
        _validate_key(kind, digest)
        return self._local.path(self._key(kind, digest, extension))

    def _quarantine_path(self, kind: str, name: str) -> str:
        return os.path.join(self.root, QUARANTINE_DIR, kind, name)

    def _payload_path(self, kind: str, digest: str) -> Optional[str]:
        for extension in _READERS:
            path = self._path(kind, digest, extension)
            if os.path.exists(path):
                return path
        return None

    def _atomic_write(self, path: str, writer) -> str:
        """Write atomically (with fault seam + retry); returns the payload hash."""
        return _atomic_write_with(
            path, writer, retry=self.retry, on_retry=self._count_retry
        )

    def _write_bytes(self, kind: str, digest: str, extension: str, data: bytes) -> None:
        self._atomic_write(
            self._path(kind, digest, extension), lambda handle: handle.write(data)
        )

    def _write_meta(
        self, kind: str, digest: str, meta: Optional[dict], payload_hash: str
    ) -> None:
        payload = {
            "kind": kind,
            "digest": digest,
            "created": time.time(),
            "payload_sha256": payload_hash,
            "meta": meta,
        }
        self._write_bytes(kind, digest, ".meta.json", _json_bytes(payload))

    def _apply_corrupt_fault(self, path: str) -> None:
        # chaos seam: a scripted plan flips payload bytes *after* a
        # successful atomic write — the torn/bit-rotted artifact verify()
        # and the readers must survive
        rule = FaultInjector.consult("store.corrupt")
        if rule is not None and rule.action == "corrupt":
            corrupt_file(path, offset=rule.corrupt_offset, n_bytes=rule.corrupt_bytes)

    # ------------------------------------------------------------------- API
    def has(self, kind: str, digest: str) -> bool:
        """Whether an artifact exists for *(kind, digest)* (does not count stats)."""
        return self._payload_path(kind, digest) is not None

    def get_arrays(self, kind: str, digest: str) -> Optional[Dict[str, np.ndarray]]:
        """Load an array artifact, or ``None`` on a miss.

        Transient IO errors are retried; an entry that still cannot be read
        (torn, truncated, bit-rotted) is quarantined and reported as a miss
        — unless a remote backend holds a clean copy, in which case the
        local cache is repaired from it and the read succeeds.  With a
        *degraded* remote (circuit open) a local miss raises
        :class:`MissingArtifactError` with ``backend_degraded=True``.
        """
        return self._get(kind, digest, ".npz")

    def get_json(self, kind: str, digest: str):
        """Load a JSON artifact, or ``None`` on a miss (see :meth:`get_arrays`)."""
        return self._get(kind, digest, ".json")

    def _get(self, kind: str, digest: str, extension: str):
        """The one read body of :meth:`get_arrays`/:meth:`get_json`.

        Ladder: local file → remote restore on absence → quarantine + one
        remote repair on local corruption → malformed-meta check — any
        dead end is a counted miss (raising instead when the remote is
        degraded).
        """
        path = self._path(kind, digest, extension)
        read = _READERS[extension]

        def attempt():
            FaultInjector.consult("store.read")
            return read(path)

        def load():
            # None for a torn/corrupt payload
            try:
                return self.retry.run(
                    attempt,
                    description=f"store read {kind}/{digest[:12]}",
                    on_retry=self._count_retry,
                )
            except _PARSE_ERRORS:
                return None

        with self._lock:
            if not os.path.exists(path):
                if not self._restore_remote(kind, digest, extension):
                    self.stats.misses += 1
                    self._raise_if_degraded(kind, digest, path)
                    return None
            payload = load()
            if payload is None:
                # torn or corrupted local entry: quarantine it, then repair
                # from the remote copy when one is reachable and clean
                self._quarantine_entry(kind, digest)
                if self._restore_remote(kind, digest, extension):
                    payload = load()
                    if payload is None:
                        self._quarantine_entry(kind, digest)
            if payload is not None and self._meta_malformed(kind, digest):
                # a malformed/truncated meta sidecar is treated exactly like
                # a corrupt payload: quarantine the entry and report a miss
                self._quarantine_entry(kind, digest)
                payload = None
            if payload is None:
                self.stats.misses += 1
                return None
            self.stats.hits += 1
            if (kind, digest) in self._warmed:
                self._warmed.discard((kind, digest))
                self.stats.prefetch_hits += 1
            return payload

    def put_arrays(
        self,
        kind: str,
        digest: str,
        arrays: Dict[str, np.ndarray],
        meta: Optional[dict] = None,
    ) -> str:
        """Store an array artifact; returns the payload path."""
        if not arrays:
            raise ConfigurationError("array artifacts must contain at least one array")
        return self._put(
            kind, digest, ".npz", lambda handle: np.savez(handle, **arrays), meta
        )

    def put_json(self, kind: str, digest: str, payload, meta: Optional[dict] = None) -> str:
        """Store a JSON artifact; returns the payload path."""
        body = _json_bytes(payload)
        return self._put(kind, digest, ".json", lambda handle: handle.write(body), meta)

    def _put(self, kind: str, digest: str, extension: str, writer, meta) -> str:
        """The one write body of :meth:`put_arrays`/:meth:`put_json`."""
        path = self._path(kind, digest, extension)
        with self._lock:
            payload_hash = self._atomic_write(path, writer)
            self._write_meta(kind, digest, meta, payload_hash)
            self.stats.puts += 1
            # write-through before the corrupt fault seam: the upload ships
            # the bytes that were actually written; scripted local rot
            # happens to the local copy afterwards (and read-repair heals it)
            self._push_remote(kind, digest)
            self._apply_corrupt_fault(path)
        return path

    def _read_meta_raw(self, kind: str, digest: str) -> Tuple[Optional[dict], bool]:
        """``(meta, malformed)`` — malformed means the sidecar exists but
        is not a meta object (truncated, torn or garbage, see
        :func:`_parse_meta`), as opposed to simply absent."""
        try:
            with open(self._path(kind, digest, ".meta.json"), "rb") as handle:
                return _parse_meta(handle.read()), False
        except ValueError:
            return None, True
        except OSError:
            return None, False

    def _meta_malformed(self, kind: str, digest: str) -> bool:
        return self._read_meta_raw(kind, digest)[1]

    def get_meta(self, kind: str, digest: str) -> Optional[dict]:
        """Load the provenance sidecar of an artifact, if one was written.

        A malformed or truncated sidecar is treated like a corrupt payload
        — the whole entry is quarantined and the read reports ``None`` —
        instead of surfacing a parse error or silently trusting an entry
        whose provenance cannot be read.
        """
        meta, malformed = self._read_meta_raw(kind, digest)
        if malformed:
            self._quarantine_entry(kind, digest)
            return None
        return meta

    # ----------------------------------------------------------- remote tier
    @property
    def degraded(self) -> bool:
        """Whether the remote backend is degraded (circuit breaker open)."""
        return self.breaker is not None and self.breaker.state == "open"

    def breaker_state_code(self) -> int:
        """The breaker state as a gauge: 0 closed (or no remote), 1 half-open, 2 open."""
        return 0 if self.breaker is None else self.breaker.state_code()

    def journal_pending(self) -> int:
        """Journaled writes awaiting upload (0 without a remote)."""
        return 0 if self.journal is None else len(self.journal)

    def _raise_if_degraded(self, kind: str, digest: str, path: str) -> None:
        if self.remote is None or not self.degraded:
            return
        raise MissingArtifactError(
            f"artifact {kind}/{digest[:12]} is not in the local cache and the "
            f"remote backend ({self.remote.describe()}) is degraded (circuit "
            f"open); it may exist remotely — retry after the breaker recovers",
            kind=kind,
            digest=digest,
            path=path,
            backend_degraded=True,
        )

    def _quarantine_fetched_bytes(
        self, kind: str, digest: str, extension: str, data: bytes
    ) -> None:
        """Preserve a hash-mismatched remote payload for debugging."""
        target = self._quarantine_path(kind, f"{digest}{extension}.fetched")
        try:
            _replace_file(target, lambda handle: handle.write(data))
        except OSError:  # pragma: no cover - debris preservation is best-effort
            pass

    def _remote_call(self, call) -> Tuple[bool, object]:
        """``(True, call())``, or ``(False, None)`` after a transport failure.

        The one place a transport failure is accounted to the breaker.
        Successes are the caller's to record (evict records none).
        """
        try:
            return True, call()
        except _REMOTE_ERRORS:
            self.breaker.record_failure()
            self.stats.remote_failures += 1
            return False, None

    def _restore_remote(self, kind: str, digest: str, extension: str) -> bool:
        """Fetch one artifact remote→local cache; True when restored.

        Called under the store lock.  Applies read-repair: the fetched
        payload is re-hashed against the ``payload_sha256`` recorded in
        its remote meta sidecar; a mismatch quarantines the fetched bytes
        and re-fetches exactly once (a torn upload or stale read), and a
        second mismatch is a remote miss.  Transport failures are
        accounted to the circuit breaker; payload-integrity failures are
        not (the transport worked — the bytes are just wrong).
        """
        if self.remote is None or not self.breaker.allow():
            return False
        key = self._key(kind, digest, extension)
        meta_key = self._key(kind, digest, ".meta.json")

        def fetch():
            blob = self.remote.get(key)
            return blob, (self.remote.get(meta_key) if blob is not None else None)

        ok, fetched = self._remote_call(fetch)
        if not ok:
            return False
        blob, meta_blob = fetched
        if blob is None:
            self.breaker.record_success()
            self.stats.remote_misses += 1
            return False
        expected = None
        if meta_blob is not None:
            try:
                expected = _parse_meta(meta_blob.data).get("payload_sha256")
            except ValueError:
                expected = None
        data = blob.data
        if expected is not None and hashlib.sha256(data).hexdigest() != expected:
            # read-repair: quarantine the bad bytes, re-fetch exactly once
            self.stats.read_repairs += 1
            self._quarantine_fetched_bytes(kind, digest, extension, data)
            ok, blob = self._remote_call(lambda: self.remote.get(key))
            if not ok:
                return False
            if (
                blob is None
                or hashlib.sha256(blob.data).hexdigest() != expected
            ):
                self.breaker.record_success()
                self.stats.remote_misses += 1
                return False
            data = blob.data
        self.breaker.record_success()
        try:
            self._write_bytes(kind, digest, extension, data)
            if meta_blob is not None:
                self._write_bytes(kind, digest, ".meta.json", meta_blob.data)
        except OSError:
            return False
        self.stats.remote_hits += 1
        self._flush_journal_locked()
        return True

    def _upload_entry(self, kind: str, digest: str) -> bool:
        """Upload one locally-cached artifact (payload + meta) to the remote.

        Content-addressed dedupe: the payload goes up with
        ``if_none_match=True`` and a precondition failure counts as
        success (an identical payload is already there).  Raises the
        transport error on failure; returns False when the local payload
        has vanished (nothing to upload).
        """
        for extension in _READERS:
            key = self._key(kind, digest, extension)
            payload = self._local.get(key)
            if payload is not None:
                break
        else:
            return False
        try:
            self.remote.put_atomic(key, payload.data, if_none_match=True)
        except PreconditionFailedError:
            pass  # already uploaded (same content address): success
        meta_key = self._key(kind, digest, ".meta.json")
        meta = self._local.get(meta_key)
        if meta is not None:
            # meta carries a creation timestamp, so last-writer-wins here
            self.remote.put_atomic(meta_key, meta.data)
        return True

    def _journal_add(self, kind: str, digest: str) -> None:
        if self.journal is not None and self.journal.add(kind, digest):
            self.stats.journaled += 1

    def _push_remote(self, kind: str, digest: str) -> None:
        """Write-through one just-put artifact (called under the lock)."""
        if self.remote is None:
            return
        if not self.breaker.allow():
            # degraded: journal the write for upload after recovery
            self._journal_add(kind, digest)
            return
        ok, _ = self._remote_call(lambda: self._upload_entry(kind, digest))
        if not ok:
            self._journal_add(kind, digest)
            return
        self.breaker.record_success()
        self.stats.remote_puts += 1
        self._flush_journal_locked()

    def _flush_journal_locked(self) -> int:
        """Drain journaled writes while the breaker stays willing."""
        if self.journal is None:
            return 0
        flushed = 0
        for kind, digest in self.journal.pending():
            if not self.breaker.allow():
                break
            ok, uploaded = self._remote_call(
                lambda: self._upload_entry(kind, digest)
            )
            if not ok:
                break
            self.breaker.record_success()
            self.journal.remove(kind, digest)
            if uploaded:
                self.stats.remote_puts += 1
                self.stats.flushed += 1
                flushed += 1
            # a vanished payload (evicted while journaled) is just dropped
        return flushed

    def flush_journal(self) -> int:
        """Upload journaled degraded-mode writes; returns the count flushed.

        Flushing also happens opportunistically after any successful
        remote operation, so an explicit call is only needed to bound
        recovery time (e.g. at the end of a run).
        """
        with self._lock:
            return self._flush_journal_locked()

    def warm(self, kind: str, digest: str) -> bool:
        """Prefetch one artifact into the local cache; True when it is local.

        The Session's speculative-prefetch thread calls this for the
        artifacts the next pipeline stage will need.  Already-local
        entries are True without remote traffic; restored entries are
        counted as ``prefetched`` and their first read as a
        ``prefetch_hit``.  Never raises — a failed warm simply leaves the
        read path to fetch (or recompute) later.
        """
        try:
            with self._lock:
                if self._payload_path(kind, digest) is not None:
                    return True
                for extension in _READERS:
                    if self._restore_remote(kind, digest, extension):
                        self.stats.prefetched += 1
                        self._warmed.add((kind, digest))
                        return True
                return False
        except Exception:  # noqa: BLE001 - prefetch is opportunistic
            return False

    # --------------------------------------------------------------- leases
    def lease(
        self,
        kind: str,
        digest: str,
        ttl_s: Optional[float] = None,
        owner: Optional[str] = None,
    ) -> Lease:
        """A single-writer :class:`Lease` on one artifact key.

        The multi-host claim mechanism: before paying for an expensive
        computation, a writer claims *(kind, digest)*; other hosts seeing a
        live lease poll the store for the winner's artifact instead of
        duplicating the work.  TTL defaults to ``$REPRO_LEASE_TTL`` or 900
        seconds; holders of long computations refresh per epoch.
        """
        return Lease(
            self._path(kind, digest, ".lease.json"),
            ttl_s if ttl_s is not None else default_lease_ttl_s(),
            owner=owner,
        )

    # ------------------------------------------------------------ management
    def _unlink_entry(self, kind: str, digest: str) -> bool:
        _validate_key(kind, digest)
        removed = False
        for extension in (".npz", ".json", ".meta.json", ".lease.json"):
            removed |= self._local.delete(self._key(kind, digest, extension))
        return removed

    def _quarantine_entry(self, kind: str, digest: str) -> bool:
        """Move an artifact (payload + sidecar) into the quarantine area.

        Quarantined entries read as misses — the next run recomputes — but
        the bytes are preserved for debugging instead of being destroyed.
        """
        moved = False
        for extension in (".npz", ".json", ".meta.json"):
            path = self._path(kind, digest, extension)
            if not os.path.exists(path):
                continue
            target = self._quarantine_path(kind, os.path.basename(path))
            os.makedirs(os.path.dirname(target), exist_ok=True)
            os.replace(path, target)
            moved = True
        if moved:
            self.stats.quarantined += 1
        return moved

    def evict(self, kind: str, digest: str, remote: bool = True) -> bool:
        """Remove one artifact (and its sidecar); True when something was removed.

        ``remote`` also deletes the remote copy (best-effort) — an evicted
        artifact is *invalid* (e.g. weights from an incompatible build)
        and must not be restored on the next read.  ``prune`` passes
        ``remote=False``: trimming the local cache for capacity must not
        destroy the remote tier it would refill from.
        """
        with self._lock:
            removed = self._unlink_entry(kind, digest)
            if removed:
                self.stats.evictions += 1
            if remote and self.remote is not None and self.breaker.allow():

                def delete_remote() -> None:
                    for extension in (".npz", ".json", ".meta.json"):
                        self.remote.delete(self._key(kind, digest, extension))

                self._remote_call(delete_remote)
            return removed

    def clear(self) -> int:
        """Remove every artifact in the store; returns the number evicted."""
        evicted = 0
        for entry in self.entries():
            if self.evict(entry.kind, entry.digest):
                evicted += 1
        return evicted

    def entries(self) -> List[ArtifactEntry]:
        """Every stored artifact, oldest first (leases and sidecars excluded)."""
        found: List[ArtifactEntry] = []
        for kind in self._local.kinds():
            for key in self._local.list_kind(kind):
                if key.endswith((".meta.json", ".lease.json")):
                    continue
                path = self._local.path(key)
                try:
                    stat = os.stat(path)
                except OSError:  # pragma: no cover - raced removal
                    continue
                found.append(
                    ArtifactEntry(
                        kind=kind,
                        digest=os.path.splitext(os.path.basename(path))[0],
                        path=path,
                        size_bytes=int(stat.st_size),
                        mtime=stat.st_mtime,
                    )
                )
        found.sort(key=lambda entry: (entry.mtime, entry.kind, entry.digest))
        return found

    def size_bytes(self) -> int:
        """Total payload size of the store."""
        return sum(entry.size_bytes for entry in self.entries())

    def prune(self, max_bytes: int) -> List[ArtifactEntry]:
        """Evict oldest artifacts until the store fits ``max_bytes``.

        Returns the evicted entries (oldest first).  ``max_bytes=0`` empties
        the store.  Each candidate is re-stat'ed immediately before its
        unlink and skipped when touched since the scan (size or mtime
        moved), so LRU eviction can never delete an artifact a concurrent
        writer is replacing mid-write.
        """
        if max_bytes < 0:
            raise ConfigurationError(f"max_bytes must be >= 0, got {max_bytes}")
        entries = self.entries()
        total = sum(entry.size_bytes for entry in entries)
        evicted: List[ArtifactEntry] = []
        for entry in entries:
            if total <= max_bytes:
                break
            try:
                stat = os.stat(entry.path)
            except OSError:
                # already gone (raced eviction): its bytes no longer count
                total -= entry.size_bytes
                continue
            if stat.st_mtime != entry.mtime or int(stat.st_size) != entry.size_bytes:
                # touched since the scan — a concurrent writer refreshed it;
                # deleting now could tear their artifact, and it is no
                # longer the LRU candidate the scan believed it was
                continue
            if self.evict(entry.kind, entry.digest, remote=False):
                total -= entry.size_bytes
                evicted.append(entry)
        with self._lock:
            self._sweep_quarantine()
        return evicted

    # ---------------------------------------------------------------- verify
    def verify(self, repair: bool = True) -> List[VerifyFinding]:
        """Audit every artifact; quarantine the broken ones (when ``repair``).

        Detects entries that fail to parse (truncated/torn payloads) and
        entries whose bytes do not match the SHA-256 recorded in their meta
        sidecar (bit rot, partial overwrites).  Also sweeps leftover
        ``.tmp-*`` files from crashed writers and expired lease files.
        Returns the findings; an empty list means a clean store.
        """
        findings: List[VerifyFinding] = []
        with self._lock:
            for entry in self.entries():
                problem = self._check_entry(entry)
                if problem is None:
                    continue
                quarantined = False
                if repair:
                    quarantined = self._quarantine_entry(entry.kind, entry.digest)
                findings.append(
                    VerifyFinding(
                        kind=entry.kind,
                        digest=entry.digest,
                        path=entry.path,
                        problem=problem,
                        quarantined=quarantined,
                    )
                )
            if repair:
                self._sweep_debris()
        return findings

    def _check_entry(self, entry: ArtifactEntry) -> Optional[str]:
        meta, malformed = self._read_meta_raw(entry.kind, entry.digest)
        if malformed:
            return "malformed meta sidecar"
        expected = (meta or {}).get("payload_sha256")
        if expected is not None:
            try:
                actual = self._local.head(
                    f"{entry.kind}/{os.path.basename(entry.path)}"
                )
            except OSError as exc:
                return f"unreadable: {exc}"
            if actual != expected:
                return (
                    f"payload hash mismatch (expected {expected[:12]}, "
                    f"got {(actual or 'nothing')[:12]})"
                )
            return None
        # no recorded hash (artifact predates hashing): fall back to a parse
        read = _read_npz if entry.path.endswith(".npz") else _read_json
        try:
            read(entry.path)
        except _PARSE_ERRORS as exc:
            return f"unparseable: {type(exc).__name__}: {exc}"
        return None

    def _sweep_debris(self) -> None:
        """Remove crashed writers' temp files and expired lease files."""
        now = time.time()
        for dirpath, dirnames, filenames in os.walk(self.root):
            if QUARANTINE_DIR in dirpath.split(os.sep):
                continue
            for name in filenames:
                path = os.path.join(dirpath, name)
                try:
                    if name.startswith(".tmp-"):
                        # a live writer's temp file is seconds old; anything
                        # older is debris from a crash
                        if now - os.path.getmtime(path) > 60.0:
                            os.unlink(path)
                    elif name.endswith(".lease.json"):
                        if _lease_expired(_read_json(path), now):
                            os.unlink(path)
                except (OSError, ValueError):  # pragma: no cover - raced
                    continue
        self._sweep_quarantine()

    def _sweep_quarantine(self) -> None:
        """Bound the quarantine area: drop files past their retention TTL.

        Quarantined artifacts exist for debugging, not forever —
        ``$REPRO_QUARANTINE_TTL`` (default 7 days) after quarantining they
        have either been looked at or never will be.  Swept files are
        counted in ``StoreStats.quarantine_swept``.
        """
        ttl = default_quarantine_ttl_s()
        now = time.time()
        quarantine_root = os.path.join(self.root, QUARANTINE_DIR)
        if not os.path.isdir(quarantine_root):
            return
        for dirpath, dirnames, filenames in os.walk(quarantine_root, topdown=False):
            for name in filenames:
                path = os.path.join(dirpath, name)
                try:
                    if now - os.path.getmtime(path) > ttl:
                        os.unlink(path)
                        self.stats.quarantine_swept += 1
                except OSError:  # pragma: no cover - raced removal
                    continue
            # prune now-empty kind directories so the area stays tidy
            try:
                if dirpath != quarantine_root and not os.listdir(dirpath):
                    os.rmdir(dirpath)
            except OSError:  # pragma: no cover - raced
                continue

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ArtifactStore(root={self.root!r})"


class TrainingCheckpointer:
    """Epoch-granular training checkpoints in an :class:`ArtifactStore`.

    Checkpoints are keyed by *(model digest, epoch)* — the model digest is
    the :class:`~repro.experiments.spec.ModelSpec` content hash, so a
    checkpoint can only ever be resumed by the exact training run that
    wrote it.  :class:`repro.nn.trainer.Trainer` captures/restores the
    state arrays; this class only names, stores and finds them.
    """

    KIND = "checkpoint"

    def __init__(
        self,
        store: ArtifactStore,
        model_digest: str,
        every: int = 1,
        meta: Optional[dict] = None,
    ) -> None:
        if not isinstance(every, int) or isinstance(every, bool) or every < 1:
            raise ConfigurationError(
                f"checkpoint cadence must be a positive int, got {every!r}"
            )
        self.store = store
        self.model_digest = model_digest
        self.every = every
        self.meta = meta

    def digest(self, epoch: int) -> str:
        """The content digest of one epoch's checkpoint."""
        return hashlib.sha256(
            f"checkpoint\x00{self.model_digest}\x00{int(epoch)}".encode()
        ).hexdigest()

    def save(self, epoch: int, arrays: Dict[str, np.ndarray]) -> str:
        """Store one epoch's state; returns the payload path."""
        meta = {"model": self.model_digest, "epoch": int(epoch)}
        if self.meta:
            meta["spec"] = self.meta
        return self.store.put_arrays(self.KIND, self.digest(epoch), arrays, meta=meta)

    def load_latest(
        self, max_epoch: int
    ) -> Optional[Tuple[int, Dict[str, np.ndarray]]]:
        """The newest loadable checkpoint at or below ``max_epoch``.

        Probes newest-first; a corrupted checkpoint is quarantined by the
        store's read path and the probe falls back to the previous epoch —
        a damaged latest checkpoint costs one extra epoch of recompute, not
        the whole run.
        """
        for epoch in range(int(max_epoch), 0, -1):
            digest = self.digest(epoch)
            if not self.store.has(self.KIND, digest):
                continue
            try:
                arrays = self.store.get_arrays(self.KIND, digest)
            except MissingArtifactError:
                # degraded remote mid-probe: fall back to an older epoch
                continue
            if arrays is not None:
                return epoch, arrays
        return None

    def latest_epoch(self, max_epoch: int) -> Optional[int]:
        """The newest epoch with a checkpoint present (no payload read)."""
        for epoch in range(int(max_epoch), 0, -1):
            if self.store.has(self.KIND, self.digest(epoch)):
                return epoch
        return None

    def clear(self, max_epoch: int) -> int:
        """Evict every checkpoint up to ``max_epoch``; returns the count."""
        evicted = 0
        for epoch in range(1, int(max_epoch) + 1):
            if self.store.evict(self.KIND, self.digest(epoch)):
                evicted += 1
        return evicted
