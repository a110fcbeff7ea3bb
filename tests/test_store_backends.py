"""Tests for the pluggable store backends and the degradation ladder.

Covers the backend contract (every implementation), URL selection, the
chaos seams of the simulated remote, the resilience wrapper, the circuit
breaker state machine, the write journal, the store's remote tier
(write-through, restore, read-repair, degraded mode, quarantine TTL) and
— the acceptance property — a full ``Session.run`` under a scripted
fault plan completing bit-identically to a local-only run while the
breaker opens and re-closes and journaled writes flush.
"""

import json
import os
import tempfile
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import (
    ConfigurationError,
    MissingArtifactError,
    PreconditionFailedError,
)
from repro.experiments import (
    ArtifactStore,
    AttackSpec,
    ExperimentSpec,
    ModelSpec,
    Session,
    SweepSpec,
    VictimSpec,
)
from repro.experiments.backends import (
    Blob,
    CircuitBreaker,
    InMemoryBackend,
    LocalDirBackend,
    ResilientBackend,
    SimulatedRemoteBackend,
    WriteJournal,
    backend_from_url,
    shared_memory_backend,
)
from repro.experiments.store import QUARANTINE_TTL_ENV_VAR, STORE_ENV_VAR
from repro.resilience import FaultInjector, FaultRule, RetryPolicy, fault_plan

DIGEST = "a" * 64
OTHER = "b" * 64

#: JSON-shaped sidecar bytes: any JSON value, meta-like objects with odd
#: field types, and nesting deeper than the parser's recursion limit
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=10,
)
_SIDECAR_DOCUMENTS = (
    _JSON_VALUES.map(lambda value: json.dumps(value).encode())
    | st.fixed_dictionaries(
        {"kind": _JSON_VALUES, "digest": _JSON_VALUES, "payload_sha256": _JSON_VALUES}
    ).map(lambda value: json.dumps(value).encode())
    | st.sampled_from([b"[" * 100_000, b'{"a":' * 100_000, b"\xff\xfe{}"])
)

_FAST_RETRY = RetryPolicy(max_attempts=3, backoff_s=0.0, sleep=lambda _s: None)

#: a no-op rule on every ``store.write`` consult, so ``fired()`` counts them
_COUNT_STORE_WRITES = FaultRule(point="store.write", count=10**6, action="delay")


def _store_write_consults() -> int:
    """``store.write`` consults under the active plan (call inside it)."""
    return sum(1 for point, _, _ in FaultInjector.fired() if point == "store.write")


class FakeClock:
    """A steppable monotonic clock for breaker tests."""

    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class FlakyBackend(InMemoryBackend):
    """An in-memory backend with a failure switch (partition simulator)."""

    def __init__(self) -> None:
        super().__init__(name="flaky")
        self.failing = False
        self.calls = 0

    def _maybe_fail(self) -> None:
        self.calls += 1
        if self.failing:
            raise OSError("simulated partition")

    def get(self, key):
        self._maybe_fail()
        return super().get(key)

    def put_atomic(self, key, data, if_match=None, if_none_match=False):
        self._maybe_fail()
        return super().put_atomic(
            key, data, if_match=if_match, if_none_match=if_none_match
        )

    def head(self, key):
        self._maybe_fail()
        return super().head(key)

    def delete(self, key):
        self._maybe_fail()
        return super().delete(key)


def remote_store(tmp_path, backend, name="store", breaker=None, clock=None):
    """An ArtifactStore over ``backend`` with fast retries and a fake clock."""
    clock = clock or FakeClock()
    breaker = breaker or CircuitBreaker(
        threshold=3, cooldown_s=30.0, probes=1, clock=clock
    )
    store = ArtifactStore(
        str(tmp_path / name),
        retry=_FAST_RETRY,
        backend=ResilientBackend(backend, retry=_FAST_RETRY),
        breaker=breaker,
    )
    return store, clock


def local_store(tmp_path, name="store"):
    """A store with no remote tier, even when ``$REPRO_STORE_URL`` is set
    in the surrounding environment (the CI remote-store-chaos job)."""
    return ArtifactStore(str(tmp_path / name), retry=_FAST_RETRY, store_url="")


# ----------------------------------------------------------- backend contract
@pytest.fixture(params=["file", "mem", "sim"])
def backend(request, tmp_path):
    if request.param == "file":
        return LocalDirBackend(str(tmp_path / "remote"))
    if request.param == "mem":
        return InMemoryBackend()
    return SimulatedRemoteBackend()


class TestBackendContract:
    def test_round_trip_and_etag(self, backend):
        key = f"model/{DIGEST}.npz"
        assert backend.get(key) is None
        assert backend.head(key) is None
        etag = backend.put_atomic(key, b"payload")
        blob = backend.get(key)
        assert isinstance(blob, Blob)
        assert blob.data == b"payload"
        assert blob.etag == etag
        assert backend.head(key) == etag
        assert backend.list_kind("model") == [key]
        assert backend.list_kind("suite") == []
        assert backend.delete(key)
        assert not backend.delete(key)
        assert backend.get(key) is None

    def test_conditional_puts(self, backend):
        key = f"model/{DIGEST}.npz"
        etag = backend.put_atomic(key, b"one", if_none_match=True)
        with pytest.raises(PreconditionFailedError):
            backend.put_atomic(key, b"two", if_none_match=True)
        backend.put_atomic(key, b"two", if_match=etag)
        assert backend.get(key).data == b"two"
        with pytest.raises(PreconditionFailedError):
            backend.put_atomic(key, b"three", if_match=etag)  # now stale

    def test_key_validation(self, backend):
        for bad in ("noslash", "a/b/c", "../x/y", ".hidden/x", "kind/.dot"):
            with pytest.raises(ConfigurationError):
                backend.get(bad)

    def test_list_is_sorted(self, backend):
        backend.put_atomic(f"model/{OTHER}.npz", b"b")
        backend.put_atomic(f"model/{DIGEST}.npz", b"a")
        assert backend.list_kind("model") == [
            f"model/{DIGEST}.npz",
            f"model/{OTHER}.npz",
        ]


class TestLocalDirInterop:
    def test_file_backend_matches_store_layout(self, tmp_path):
        """A file:// backend and a store rooted at the same dir share bytes."""
        store = local_store(tmp_path, "shared")
        store.put_json("result", DIGEST, {"v": 1})
        backend = LocalDirBackend(store.root)
        blob = backend.get(f"result/{DIGEST}.json")
        assert json.loads(blob.data) == {"v": 1}
        backend.put_atomic(f"result/{OTHER}.json", b'{"v": 2}')
        assert local_store(tmp_path, "shared").get_json("result", OTHER) == {
            "v": 2
        }


# ------------------------------------------------------------------ selection
class TestBackendFromUrl:
    def test_file_url(self, tmp_path):
        backend = backend_from_url(f"file://{tmp_path}/remote")
        assert isinstance(backend, LocalDirBackend)
        assert backend.root == str(tmp_path / "remote")

    def test_mem_url_shares_one_registry(self):
        one = backend_from_url("mem://alpha")
        two = backend_from_url("mem://alpha")
        other = backend_from_url("mem://beta")
        assert one is two
        assert one is not other
        assert one is shared_memory_backend("alpha")

    def test_sim_url_parameters(self):
        backend = backend_from_url(
            "sim://chaos?latency_ms=20&error_rate=0.25&seed=7"
        )
        assert isinstance(backend, SimulatedRemoteBackend)
        assert backend.latency_s == pytest.approx(0.020)
        assert backend.error_rate == 0.25
        assert backend.inner is shared_memory_backend("chaos")

    def test_bad_urls(self):
        for bad in ("nourl", "s3://bucket/x", "sim://x?error_rate=nope", "file://"):
            with pytest.raises(ConfigurationError):
                backend_from_url(bad)

    def test_store_env_url_attaches_remote(self, monkeypatch, tmp_path):
        from repro.experiments.backends import STORE_URL_ENV_VAR

        monkeypatch.setenv(STORE_ENV_VAR, str(tmp_path / "root"))
        monkeypatch.setenv(STORE_URL_ENV_VAR, "mem://envtest")
        store = ArtifactStore()
        assert store.remote is not None
        store.put_json("result", DIGEST, {"v": 9})
        assert shared_memory_backend("envtest").head(f"result/{DIGEST}.json")

    def test_no_url_means_local_only(self, monkeypatch, tmp_path):
        from repro.experiments.backends import STORE_URL_ENV_VAR

        monkeypatch.delenv(STORE_URL_ENV_VAR, raising=False)
        store = ArtifactStore(str(tmp_path / "root"))
        assert store.remote is None
        assert store.breaker_state_code() == 0
        assert store.journal_pending() == 0
        assert not store.degraded


# ----------------------------------------------------------- simulated remote
class TestSimulatedRemote:
    def test_seeded_error_rate_is_deterministic(self):
        def failure_pattern():
            backend = SimulatedRemoteBackend(error_rate=0.5, seed=42)
            backend.inner.put_atomic(f"model/{DIGEST}.npz", b"x")
            pattern = []
            for _ in range(20):
                try:
                    backend.get(f"model/{DIGEST}.npz")
                    pattern.append(False)
                except OSError:
                    pattern.append(True)
            return pattern

        first, second = failure_pattern(), failure_pattern()
        assert first == second
        assert any(first) and not all(first)

    def test_scripted_raise_burst(self):
        backend = SimulatedRemoteBackend()
        backend.inner.put_atomic(f"model/{DIGEST}.npz", b"x")
        with fault_plan([FaultRule(point="backend.get", index=0, count=2)]):
            with pytest.raises(OSError):
                backend.get(f"model/{DIGEST}.npz")
            with pytest.raises(OSError):
                backend.get(f"model/{DIGEST}.npz")
            assert backend.get(f"model/{DIGEST}.npz").data == b"x"

    def test_torn_write_reports_stale_etag(self):
        backend = SimulatedRemoteBackend()
        key = f"model/{DIGEST}.npz"
        with fault_plan(
            [FaultRule(point="backend.put", action="corrupt", corrupt_bytes=4)]
        ):
            reported = backend.put_atomic(key, b"intended-bytes")
        stored = backend.inner.get(key)
        assert stored.data != b"intended-bytes"  # torn upload landed
        assert reported != stored.etag  # ...under a stale ETag
        import hashlib

        assert reported == hashlib.sha256(b"intended-bytes").hexdigest()

    def test_corrupted_read_is_transient(self):
        backend = SimulatedRemoteBackend()
        key = f"model/{DIGEST}.npz"
        backend.put_atomic(key, b"clean-payload")
        with fault_plan(
            [FaultRule(point="backend.get", action="corrupt", corrupt_bytes=5)]
        ):
            first = backend.get(key)
            second = backend.get(key)
        assert first.data != b"clean-payload"
        assert first.etag == second.etag  # stale ETag alongside the bad bytes
        assert second.data == b"clean-payload"


# --------------------------------------------------------------- resilience
class TestResilientBackend:
    def test_retries_transient_errors(self):
        flaky = SimulatedRemoteBackend()
        flaky.inner.put_atomic(f"model/{DIGEST}.npz", b"x")
        wrapped = ResilientBackend(flaky, retry=_FAST_RETRY)
        with fault_plan([FaultRule(point="backend.get", index=0)]):
            assert wrapped.get(f"model/{DIGEST}.npz").data == b"x"

    def test_exhausted_retries_propagate(self):
        flaky = SimulatedRemoteBackend()
        wrapped = ResilientBackend(flaky, retry=_FAST_RETRY)
        with fault_plan([FaultRule(point="backend.get", index=0, count=10)]):
            with pytest.raises(OSError):
                wrapped.get(f"model/{DIGEST}.npz")

    def test_precondition_failures_do_not_retry(self):
        inner = InMemoryBackend()
        inner.put_atomic(f"model/{DIGEST}.npz", b"x")
        calls = []
        original = inner.put_atomic

        def counting(key, data, if_match=None, if_none_match=False):
            calls.append(key)
            return original(key, data, if_match=if_match, if_none_match=if_none_match)

        inner.put_atomic = counting
        wrapped = ResilientBackend(inner, retry=_FAST_RETRY)
        with pytest.raises(PreconditionFailedError):
            wrapped.put_atomic(f"model/{DIGEST}.npz", b"y", if_none_match=True)
        assert len(calls) == 1

    def test_file_remote_is_retried_once(self, tmp_path, monkeypatch):
        """A failing file:// put retries in ResilientBackend only — never
        in a nested loop — and spends no local ``store.write`` ordinals."""
        root = tmp_path / "remote"
        root.mkdir()
        # a regular file where the kind directory belongs: every write fails
        (root / "model").write_text("not a directory")
        shard = str(root / "model" / DIGEST[:2])
        attempts = []
        makedirs = os.makedirs

        def counting_makedirs(name, *args, **kwargs):
            if os.fspath(name) == shard:
                attempts.append(name)
            return makedirs(name, *args, **kwargs)

        monkeypatch.setattr(os, "makedirs", counting_makedirs)
        wrapped = ResilientBackend(
            LocalDirBackend(str(root)), retry=RetryPolicy(max_attempts=3, backoff_s=0)
        )
        with fault_plan([_COUNT_STORE_WRITES]):
            with pytest.raises(OSError):
                wrapped.put_atomic(f"model/{DIGEST}.npz", b"x")
            assert _store_write_consults() == 0
        assert len(attempts) == 3

    def test_per_call_timeout(self):
        from repro.errors import DeadlineExceededError

        slow = SimulatedRemoteBackend(latency_s=0.2)
        wrapped = ResilientBackend(
            slow,
            retry=RetryPolicy(
                max_attempts=1,
                backoff_s=0.001,
                transient=(OSError, DeadlineExceededError),
            ),
            timeout_s=0.01,
        )
        with pytest.raises(DeadlineExceededError):
            wrapped.get(f"model/{DIGEST}.npz")


# ------------------------------------------------------------ circuit breaker
class TestCircuitBreaker:
    def test_threshold_opens_and_cooldown_probes_close(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=3, cooldown_s=10.0, probes=2, clock=clock)
        assert breaker.state == "closed"
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == "closed"  # not yet at threshold
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()
        assert breaker.opened_total == 1
        clock.advance(10.1)
        assert breaker.state == "half_open"
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == "half_open"  # one of two probes
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.closed_total == 1

    def test_success_resets_the_failure_streak(self):
        breaker = CircuitBreaker(threshold=3, cooldown_s=10.0, clock=FakeClock())
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "closed"  # never 3 *consecutive* failures

    def test_failed_probe_snaps_back_open(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=1, cooldown_s=5.0, probes=2, clock=clock)
        breaker.record_failure()
        clock.advance(5.1)
        assert breaker.state == "half_open"
        breaker.record_failure()
        assert breaker.state == "open"
        assert breaker.opened_total == 2
        assert not breaker.allow()

    def test_state_codes(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=1, cooldown_s=5.0, clock=clock)
        assert breaker.state_code() == 0
        breaker.record_failure()
        assert breaker.state_code() == 2
        clock.advance(5.1)
        assert breaker.state_code() == 1

    def test_env_tuning(self, monkeypatch):
        monkeypatch.setenv("REPRO_BREAKER_THRESHOLD", "7")
        monkeypatch.setenv("REPRO_BREAKER_COOLDOWN", "3.5")
        monkeypatch.setenv("REPRO_BREAKER_PROBES", "4")
        breaker = CircuitBreaker.from_env()
        assert (breaker.threshold, breaker.cooldown_s, breaker.probes) == (7, 3.5, 4)

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            CircuitBreaker(threshold=0)
        with pytest.raises(ConfigurationError):
            CircuitBreaker(cooldown_s=0.0)
        with pytest.raises(ConfigurationError):
            CircuitBreaker(probes=0)


# -------------------------------------------------------------- write journal
class TestWriteJournal:
    def test_add_remove_persist(self, tmp_path):
        path = str(tmp_path / ".journal" / "pending.json")
        journal = WriteJournal(path)
        assert journal.add("model", DIGEST)
        assert not journal.add("model", DIGEST)  # dedupe
        assert journal.add("result", OTHER)
        assert len(journal) == 2
        reloaded = WriteJournal(path)
        assert reloaded.pending() == [("model", DIGEST), ("result", OTHER)]
        assert reloaded.remove("model", DIGEST)
        assert not reloaded.remove("model", DIGEST)
        assert WriteJournal(path).pending() == [("result", OTHER)]

    def test_malformed_journal_starts_empty(self, tmp_path):
        path = tmp_path / "pending.json"
        path.write_text("{torn")
        journal = WriteJournal(str(path))
        assert len(journal) == 0
        assert journal.add("model", DIGEST)


# ---------------------------------------------------------------- remote tier
class TestRemoteTier:
    def test_write_through_and_cross_store_restore(self, tmp_path):
        shared = InMemoryBackend()
        one, _ = remote_store(tmp_path, shared, name="one")
        one.put_arrays("model", DIGEST, {"w": np.arange(4.0)})
        assert one.stats.remote_puts == 1
        assert shared.head(f"model/{DIGEST}.npz") is not None
        assert shared.head(f"model/{DIGEST}.meta.json") is not None

        two, _ = remote_store(tmp_path, shared, name="two")
        arrays = two.get_arrays("model", DIGEST)
        np.testing.assert_array_equal(arrays["w"], np.arange(4.0))
        assert two.stats.remote_hits == 1
        assert two.stats.hits == 1
        assert two.has("model", DIGEST)  # restored into the local cache
        assert two.get_meta("model", DIGEST)["digest"] == DIGEST

    def test_read_repair_rejects_tampered_remote(self, tmp_path):
        shared = InMemoryBackend()
        one, _ = remote_store(tmp_path, shared, name="one")
        one.put_json("result", DIGEST, {"v": 1})
        shared.tamper(f"result/{DIGEST}.json")

        two, _ = remote_store(tmp_path, shared, name="two")
        assert two.get_json("result", DIGEST) is None
        assert two.stats.read_repairs == 1
        assert two.stats.remote_misses == 1  # persistent mismatch = miss
        # the bad fetched bytes are preserved for debugging
        quarantine = tmp_path / "two" / ".quarantine" / "result"
        assert any(
            name.endswith(".fetched") for name in os.listdir(quarantine)
        )

    def test_corrupt_local_heals_from_remote(self, tmp_path):
        shared = InMemoryBackend()
        store, _ = remote_store(tmp_path, shared)
        path = store.put_arrays("model", DIGEST, {"w": np.ones(3)})
        with open(path, "wb") as handle:
            handle.write(b"rotten")
        arrays = store.get_arrays("model", DIGEST)
        np.testing.assert_array_equal(arrays["w"], np.ones(3))
        assert store.stats.quarantined == 1
        assert store.stats.remote_hits == 1

    def test_evict_removes_remote_but_prune_does_not(self, tmp_path):
        shared = InMemoryBackend()
        store, _ = remote_store(tmp_path, shared)
        store.put_json("result", DIGEST, {"v": 1})
        store.evict("result", DIGEST)
        assert shared.head(f"result/{DIGEST}.json") is None

        store.put_json("result", OTHER, {"v": 2})
        store.prune(0)  # capacity trim must not destroy the remote tier
        assert not store.has("result", OTHER)
        assert shared.head(f"result/{OTHER}.json") is not None
        assert store.get_json("result", OTHER) == {"v": 2}  # refilled

    def test_warm_prefetches_and_counts_first_read(self, tmp_path):
        shared = InMemoryBackend()
        one, _ = remote_store(tmp_path, shared, name="one")
        one.put_arrays("suite", DIGEST, {"x": np.arange(2.0)})

        two, _ = remote_store(tmp_path, shared, name="two")
        assert two.warm("suite", DIGEST)
        assert two.stats.prefetched == 1
        assert two.warm("suite", DIGEST)  # already local: no extra traffic
        assert two.stats.prefetched == 1
        two.get_arrays("suite", DIGEST)
        assert two.stats.prefetch_hits == 1
        assert two.warm("model", OTHER) is False  # nowhere to warm from

    def test_degradation_ladder(self, tmp_path):
        backend = FlakyBackend()
        store, clock = remote_store(tmp_path, backend)
        store.put_arrays("model", DIGEST, {"w": np.ones(2)})

        backend.failing = True
        # three consecutive failed remote ops trip the breaker (threshold=3);
        # the third call records the opening failure and then — the circuit
        # now being open — raises the degraded-miss error itself
        for _ in range(2):
            assert store.get_json("result", OTHER) is None
        with pytest.raises(MissingArtifactError):
            store.get_json("result", OTHER)
        assert store.degraded
        assert store.breaker_state_code() == 2

        # degraded reads: local hits still served, misses raise typed errors
        assert store.get_arrays("model", DIGEST) is not None
        with pytest.raises(MissingArtifactError) as excinfo:
            store.get_json("result", OTHER)
        assert excinfo.value.backend_degraded
        # degraded writes: local put succeeds, upload journaled
        store.put_json("result", DIGEST, {"v": 1})
        assert store.journal_pending() == 1
        assert store.stats.journaled == 1
        backend.failing = False  # peek at the remote without tripping faults
        assert backend.head(f"result/{DIGEST}.json") is None
        backend.failing = True

        # heal the backend and let the cooldown elapse: the next remote op
        # is a half-open probe; success closes the breaker and the
        # opportunistic flush drains the journal
        backend.failing = False
        clock.advance(31.0)
        assert store.breaker_state_code() == 1
        flushed = store.flush_journal()
        assert flushed == 1
        assert store.journal_pending() == 0
        assert store.stats.flushed == 1
        assert not store.degraded
        assert store.breaker.closed_total == 1
        assert backend.head(f"result/{DIGEST}.json") is not None

    def test_journal_survives_restart(self, tmp_path):
        backend = FlakyBackend()
        store, _ = remote_store(tmp_path, backend)
        backend.failing = True
        # trip the breaker through puts: each failed upload journals its
        # artifact, and the third consecutive failure opens the circuit
        for index in range(3):
            store.put_json("result", f"{index:064x}", {"v": index})
        assert store.degraded
        assert store.journal_pending() == 3

        backend.failing = False
        revived, _ = remote_store(tmp_path, backend)  # same root: same journal
        assert revived.journal_pending() == 3
        assert revived.flush_journal() == 3
        assert revived.journal_pending() == 0
        assert backend.head("result/" + "0" * 64 + ".json") is not None


# ------------------------------------------------------- meta sidecar hygiene
class TestMalformedMeta:
    def test_get_json_treats_malformed_meta_as_corrupt(self, tmp_path):
        store = local_store(tmp_path)
        store.put_json("result", DIGEST, {"v": 1})
        meta_path = store._path("result", DIGEST, ".meta.json")
        with open(meta_path, "w") as handle:
            handle.write('{"payload_sha256": "tor')  # truncated sidecar
        assert store.get_json("result", DIGEST) is None
        assert store.stats.quarantined == 1
        assert not store.has("result", DIGEST)

    def test_get_arrays_treats_malformed_meta_as_corrupt(self, tmp_path):
        store = local_store(tmp_path)
        store.put_arrays("model", DIGEST, {"w": np.ones(2)})
        with open(store._path("model", DIGEST, ".meta.json"), "w") as handle:
            handle.write("not json")
        assert store.get_arrays("model", DIGEST) is None
        assert store.stats.quarantined == 1

    def test_get_meta_quarantines_malformed_sidecar(self, tmp_path):
        store = local_store(tmp_path)
        store.put_json("result", DIGEST, {"v": 1})
        with open(store._path("result", DIGEST, ".meta.json"), "w") as handle:
            handle.write("{")
        assert store.get_meta("result", DIGEST) is None
        assert store.stats.quarantined == 1
        assert store.get_meta("result", OTHER) is None  # absent is not corrupt
        assert store.stats.quarantined == 1

    @given(data=st.binary(max_size=256) | _SIDECAR_DOCUMENTS)
    @example(data=b'{"payload_sha256": null, "meta": NaN}')
    @example(data=b'{"payload_sha256": {"a": 1}}')
    @example(data=b"[1, 2]")
    @settings(max_examples=120, deadline=5000)
    def test_any_sidecar_reads_as_meta_or_quarantine(self, data):
        # whatever bytes sit in the sidecar, a read returns the meta object
        # or None with the entry quarantined — never a traceback or a hang
        with tempfile.TemporaryDirectory() as root:
            store = ArtifactStore(root, retry=_FAST_RETRY, store_url="")
            store.put_json("result", DIGEST, {"v": 1})
            with open(store._path("result", DIGEST, ".meta.json"), "wb") as handle:
                handle.write(data)
            meta, malformed = store._read_meta_raw("result", DIGEST)
            assert (meta is None) == malformed
            assert meta is None or isinstance(meta, dict)
            findings = store.verify(repair=False)  # reads every sidecar field
            assert len(findings) <= 1
            got = store.get_meta("result", DIGEST)
            if malformed:
                assert got is None
                assert store.stats.quarantined == 1
                assert not store.has("result", DIGEST)
            else:
                # compared as canonical JSON: NaN values are != themselves
                canonical = json.dumps(json.loads(data), sort_keys=True)
                assert json.dumps(got, sort_keys=True) == canonical
                assert json.dumps(meta, sort_keys=True) == canonical
                assert store.has("result", DIGEST)

    def test_verify_reports_malformed_meta(self, tmp_path):
        store = local_store(tmp_path)
        store.put_json("result", DIGEST, {"v": 1})
        with open(store._path("result", DIGEST, ".meta.json"), "w") as handle:
            handle.write("][")
        findings = store.verify(repair=True)
        assert len(findings) == 1
        assert "malformed meta sidecar" in findings[0].problem
        assert findings[0].quarantined


# ------------------------------------------------------------- quarantine TTL
class TestQuarantineTTL:
    def _quarantine_one(self, store):
        path = store.put_json("result", DIGEST, {"v": 1})
        with open(path, "w") as handle:
            handle.write("{broken")
        assert store.get_json("result", DIGEST) is None
        quarantine = os.path.join(store.root, ".quarantine", "result")
        return [os.path.join(quarantine, name) for name in os.listdir(quarantine)]

    def test_verify_sweeps_expired_quarantine(self, tmp_path, monkeypatch):
        monkeypatch.setenv(QUARANTINE_TTL_ENV_VAR, "3600")
        store = local_store(tmp_path)
        files = self._quarantine_one(store)
        assert store.verify() == []
        assert all(os.path.exists(path) for path in files)  # fresh: kept
        for path in files:
            os.utime(path, (1.0, 1.0))  # backdate past any TTL
        assert store.verify() == []
        assert not any(os.path.exists(path) for path in files)
        assert store.stats.quarantine_swept == len(files)
        # the per-kind quarantine directory is pruned once empty
        assert not os.path.isdir(os.path.join(store.root, ".quarantine", "result"))

    def test_prune_sweeps_quarantine_too(self, tmp_path, monkeypatch):
        monkeypatch.setenv(QUARANTINE_TTL_ENV_VAR, "3600")
        store = local_store(tmp_path)
        files = self._quarantine_one(store)
        for path in files:
            os.utime(path, (1.0, 1.0))
        store.prune(10**9)  # capacity untouched, sweep still runs
        assert not any(os.path.exists(path) for path in files)
        assert store.stats.quarantine_swept == len(files)

    def test_invalid_ttl_rejected(self, monkeypatch, tmp_path):
        from repro.experiments.store import default_quarantine_ttl_s

        monkeypatch.setenv(QUARANTINE_TTL_ENV_VAR, "-5")
        with pytest.raises(ConfigurationError):
            default_quarantine_ttl_s()


# --------------------------------------------------------- session + prefetch
TINY_MODEL = ModelSpec(
    architecture="lenet5", dataset="mnist", n_train=64, n_test=32, epochs=1
)


def tiny_spec(**overrides):
    defaults = dict(
        name="backend-chaos",
        model=TINY_MODEL,
        victims=VictimSpec(multipliers=("M1", "M4"), calibration_samples=32),
        attacks=(AttackSpec(attack="FGM_linf"),),
        sweep=SweepSpec(epsilons=(0.0, 0.1), n_samples=8),
    )
    defaults.update(overrides)
    return ExperimentSpec(**defaults)


class TestSessionPrefetch:
    def test_prefetch_warms_deterministically(self, tmp_path):
        """Drive the prefetch machinery directly (no thread race)."""
        shared = InMemoryBackend()
        seeder, _ = remote_store(tmp_path, shared, name="seed")
        spec = tiny_spec()
        Session(store=seeder, prefetch=False).run(spec)

        cold, _ = remote_store(tmp_path, shared, name="cold")
        session = Session(store=cold, prefetch=True)
        digest = spec.model.content_hash()
        session._prefetch([("model", digest)] + session._suite_keys(spec, spec.model))
        session.wait_for_prefetch()
        assert cold.stats.prefetched == 2  # model + the one suite
        assert cold.has("model", digest)
        trained = session.resolve_model(spec.model)
        assert trained is not None
        assert cold.stats.prefetch_hits == 1  # the warmed model was read

    def test_cold_cache_run_is_served_remotely(self, tmp_path):
        shared = InMemoryBackend()
        seeder, _ = remote_store(tmp_path, shared, name="seed")
        spec = tiny_spec()
        baseline = Session(store=seeder, prefetch=False).run(spec).to_dict()

        cold, _ = remote_store(tmp_path, shared, name="cold")
        session = Session(store=cold, prefetch=True)
        result = session.run(spec)
        session.wait_for_prefetch()
        assert result.from_cache  # the result artifact itself was remote
        assert result.to_dict() == baseline

        # with the result evicted the run goes stage-by-stage: model and
        # suite come from the remote (via prefetch or the read path — the
        # winner of that race is irrelevant to the served bytes)
        colder, _ = remote_store(tmp_path, shared, name="colder")
        colder.evict("result", spec.content_hash(), remote=True)
        session = Session(store=colder, prefetch=True)
        result = session.run(spec)
        session.wait_for_prefetch()
        assert not result.from_cache
        assert result.to_dict() == baseline
        assert colder.stats.remote_hits >= 2  # model + suite restored

    def test_prefetch_env_toggle(self, monkeypatch, tmp_path):
        from repro.experiments.session import PREFETCH_ENV_VAR

        shared = InMemoryBackend()
        store, _ = remote_store(tmp_path, shared)
        monkeypatch.setenv(PREFETCH_ENV_VAR, "0")
        assert not Session(store=store).prefetch
        monkeypatch.setenv(PREFETCH_ENV_VAR, "off")
        assert not Session(store=store).prefetch
        monkeypatch.setenv(PREFETCH_ENV_VAR, "1")
        assert Session(store=store).prefetch
        monkeypatch.setenv(PREFETCH_ENV_VAR, "flase")
        with pytest.raises(ConfigurationError, match=PREFETCH_ENV_VAR):
            Session(store=store)
        monkeypatch.delenv(PREFETCH_ENV_VAR)
        assert Session(store=store).prefetch  # default: on with a remote
        assert not Session(store=local_store(tmp_path)).prefetch  # ...off without one


class _RecordingBackend(InMemoryBackend):
    """An in-memory remote that records every get/put as ``(op, kind+ext)``."""

    def __init__(self) -> None:
        super().__init__(name="recording")
        self.ops = []

    def _record(self, op, key):
        kind, name = key.split("/")
        self.ops.append((op, kind + name[name.index(".") :]))

    def get(self, key):
        self._record("get", key)
        return super().get(key)

    def put_atomic(self, key, data, if_match=None, if_none_match=False):
        self._record("put", key)
        return super().put_atomic(
            key, data, if_match=if_match, if_none_match=if_none_match
        )


class TestChaosPlanOrdinals:
    """Pin the op order the CI fault plans index into by ordinal."""

    def test_cold_run_remote_ops_and_store_write_consults(self, tmp_path):
        # the CI remote-store-chaos Fig. 4a spec
        spec = ExperimentSpec(
            name="ci-remote-chaos",
            model=ModelSpec(
                architecture="lenet5", dataset="mnist",
                n_train=400, n_test=80, epochs=2,
            ),
            victims=VictimSpec(multipliers=("M1", "M4"), calibration_samples=64),
            attacks=(AttackSpec(attack="BIM_linf"),),
            sweep=SweepSpec(epsilons=(0.0, 0.1, 0.25), n_samples=24),
        )
        remote = _RecordingBackend()
        store = ArtifactStore(str(tmp_path / "store"), backend=remote)
        with fault_plan([_COUNT_STORE_WRITES]):
            Session(store=store, prefetch=False).run(spec)
            consults = _store_write_consults()
        assert remote.ops == [
            ("get", "result.json"),
            ("get", "model.npz"),
            ("put", "model.npz"),
            ("put", "model.meta.json"),
            ("get", "suite.npz"),
            ("put", "suite.npz"),
            ("put", "suite.meta.json"),
            ("put", "result.json"),
            ("put", "result.meta.json"),
        ]
        assert consults == 6

    def test_lease_and_journal_writes_skip_the_store_write_point(self, tmp_path):
        store = local_store(tmp_path)
        journal = WriteJournal(str(tmp_path / "journal" / "pending.json"))
        with fault_plan([_COUNT_STORE_WRITES]):
            lease = store.lease("model", DIGEST, ttl_s=60.0)
            assert lease.acquire()
            assert lease.refresh()
            stale = store.lease("model", OTHER, ttl_s=0.01)
            assert stale.acquire()
            time.sleep(0.05)
            taker = store.lease("model", OTHER, ttl_s=60.0)
            assert taker.acquire()  # takeover of the expired lease
            assert journal.add("model", DIGEST)
            assert _store_write_consults() == 0


class TestSessionDegradationLadder:
    """The acceptance property: chaos mid-run, bit-identical completion."""

    def test_run_under_scripted_faults_matches_local_only(self, tmp_path):
        spec = tiny_spec()
        local = Session(store=str(tmp_path / "local"))
        baseline = local.run(spec).to_dict()

        chaos_backend = SimulatedRemoteBackend(name="chaos")
        store, _ = remote_store(tmp_path, chaos_backend, name="chaos")
        # error bursts + torn writes + corrupted reads across the run
        plan = [
            FaultRule(point="backend.put", index=1, count=2),
            FaultRule(point="backend.put", action="corrupt", index=4, corrupt_bytes=12),
            FaultRule(point="backend.get", index=0, count=2),
            FaultRule(point="backend.get", action="corrupt", index=3, corrupt_bytes=6),
            FaultRule(point="backend.head", index=2, count=2),
        ]
        with fault_plan(plan):
            session = Session(store=store, prefetch=False)
            result = session.run(spec)
        assert result.to_dict() == baseline
        # whatever chaos did, the local cache must audit clean afterwards
        assert store.verify() == []

    def test_breaker_trips_mid_run_heals_and_flushes(self, tmp_path):
        spec = tiny_spec()
        baseline = Session(store=str(tmp_path / "local")).run(spec).to_dict()

        backend = FlakyBackend()
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=1, cooldown_s=30.0, probes=1, clock=clock)
        store, _ = remote_store(
            tmp_path, backend, name="chaos", breaker=breaker, clock=clock
        )

        def sever_after_first_store(event):
            # the partition starts the moment the trained model is stored:
            # every later upload in the run must journal, not fail the run
            if (event.stage, event.status) == ("model", "store"):
                backend.failing = True

        session = Session(
            store=store, progress=sever_after_first_store, prefetch=False
        )
        result = session.run(spec)
        assert result.to_dict() == baseline  # bit-identical despite the outage
        assert store.breaker.opened_total >= 1
        assert store.degraded
        pending = store.journal_pending()
        assert pending >= 2  # suite + result journaled during the outage
        backend.failing = False  # peek at the remote without tripping faults
        assert backend.head(f"result/{spec.content_hash()}.json") is None
        backend.failing = True

        # repeated runs while degraded are served from the local cache
        rerun = Session(store=store, prefetch=False).run(spec)
        assert rerun.from_cache
        assert rerun.to_dict() == baseline

        # heal: cooldown elapses, the flush probe closes the breaker and
        # every journaled artifact reaches the remote
        backend.failing = False
        clock.advance(31.0)
        assert store.flush_journal() == pending
        assert store.journal_pending() == 0
        assert not store.degraded
        assert store.breaker.closed_total >= 1
        assert backend.head(f"result/{spec.content_hash()}.json") is not None

        # a third host with an empty cache now restores the result remotely
        fresh, _ = remote_store(tmp_path, backend, name="fresh")
        restored = Session(store=fresh, prefetch=False).run(spec)
        assert restored.from_cache
        assert restored.to_dict() == baseline

    def test_degraded_miss_raises_only_under_require_cached(self, tmp_path):
        backend = FlakyBackend()
        backend.failing = True
        store, _ = remote_store(tmp_path, backend)
        for _ in range(2):
            assert store.get_json("result", OTHER) is None
        with pytest.raises(MissingArtifactError):
            store.get_json("result", OTHER)  # the opening failure
        assert store.degraded

        spec = tiny_spec()
        with pytest.raises(MissingArtifactError) as excinfo:
            Session(store=store, require_cached=True, prefetch=False).run(spec)
        assert excinfo.value.backend_degraded

        # without require_cached the session recomputes and completes
        result = Session(store=store, prefetch=False).run(spec)
        assert not result.from_cache
        assert store.journal_pending() >= 1
