"""Tests for the content-addressed artifact store."""

import dataclasses
import os

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.experiments import ArtifactStore, default_store_root
from repro.experiments.store import STORE_ENV_VAR, StoreStats

DIGEST = "a" * 64
OTHER = "b" * 64


@pytest.fixture()
def store(tmp_path):
    return ArtifactStore(str(tmp_path / "store"))


class TestRoot:
    def test_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv(STORE_ENV_VAR, str(tmp_path / "env-store"))
        assert default_store_root() == str(tmp_path / "env-store")
        store = ArtifactStore()
        assert store.root == str(tmp_path / "env-store")

    def test_default_root_under_home(self, monkeypatch):
        monkeypatch.delenv(STORE_ENV_VAR, raising=False)
        assert default_store_root().endswith(os.path.join(".cache", "repro"))


class TestStats:
    def test_snapshot_keys_are_the_dataclass_fields(self):
        snapshot = StoreStats(puts=1).snapshot()
        assert list(snapshot) == [f.name for f in dataclasses.fields(StoreStats)]
        assert snapshot["puts"] == 1


class TestArrays:
    def test_miss_then_hit(self, store):
        assert store.get_arrays("model", DIGEST) is None
        assert store.stats.misses == 1
        store.put_arrays("model", DIGEST, {"w": np.arange(4.0)})
        assert store.has("model", DIGEST)
        arrays = store.get_arrays("model", DIGEST)
        assert store.stats.hits == 1
        np.testing.assert_array_equal(arrays["w"], np.arange(4.0))

    def test_arrays_round_trip_bitexact(self, store):
        payload = {
            "f64": np.random.default_rng(0).normal(size=(3, 5)),
            "i64": np.arange(7, dtype=np.int64),
        }
        store.put_arrays("suite", DIGEST, payload)
        arrays = store.get_arrays("suite", DIGEST)
        for key, value in payload.items():
            np.testing.assert_array_equal(arrays[key], value)
            assert arrays[key].dtype == value.dtype

    def test_empty_arrays_rejected(self, store):
        with pytest.raises(ConfigurationError, match="at least one array"):
            store.put_arrays("model", DIGEST, {})

    def test_corrupt_entry_is_a_miss_and_self_heals(self, store):
        path = store.put_arrays("model", DIGEST, {"w": np.ones(2)})
        with open(path, "wb") as handle:
            handle.write(b"not a zip archive")
        if store.remote is not None:
            # the write-through remote holds a clean copy: the corrupt
            # local entry is quarantined and restored in one read
            arrays = store.get_arrays("model", DIGEST)
            np.testing.assert_array_equal(arrays["w"], np.ones(2))
            assert store.has("model", DIGEST)
        else:
            assert store.get_arrays("model", DIGEST) is None
            assert not store.has("model", DIGEST)

    def test_truncated_zip_entry_is_a_miss(self, store):
        # a payload truncated after the zip magic raises BadZipFile inside
        # np.load — it must read as a miss, not crash the session
        path = store.put_arrays("model", DIGEST, {"w": np.ones(64)})
        with open(path, "rb") as handle:
            intact = handle.read()
        with open(path, "wb") as handle:
            handle.write(intact[:20])
        if store.remote is not None:
            arrays = store.get_arrays("model", DIGEST)
            np.testing.assert_array_equal(arrays["w"], np.ones(64))
        else:
            assert store.get_arrays("model", DIGEST) is None
            assert not store.has("model", DIGEST)


class TestJson:
    def test_round_trip(self, store):
        payload = {"grids": [{"values": [[1.0, 2.0]]}], "n": 3}
        store.put_json("result", DIGEST, payload, meta={"spec": "tiny"})
        assert store.get_json("result", DIGEST) == payload
        meta = store.get_meta("result", DIGEST)
        assert meta["meta"] == {"spec": "tiny"}
        assert meta["digest"] == DIGEST

    def test_miss(self, store):
        assert store.get_json("result", DIGEST) is None


class TestKeys:
    def test_bad_kind_rejected(self, store):
        with pytest.raises(ConfigurationError, match="kind"):
            store.has("../escape", DIGEST)

    def test_bad_digest_rejected(self, store):
        with pytest.raises(ConfigurationError, match="digest"):
            store.has("model", "ZZZZZZZZZZ")
        with pytest.raises(ConfigurationError, match="digest"):
            store.has("model", "abc")  # too short

    def test_kinds_are_namespaced(self, store):
        store.put_json("result", DIGEST, {"a": 1})
        assert store.get_json("other", DIGEST) is None


class TestEviction:
    def test_evict(self, store):
        store.put_arrays("model", DIGEST, {"w": np.ones(2)}, meta={"m": 1})
        assert store.evict("model", DIGEST)
        assert not store.has("model", DIGEST)
        assert store.get_meta("model", DIGEST) is None
        assert store.stats.evictions == 1
        assert not store.evict("model", DIGEST)

    def test_clear(self, store):
        store.put_arrays("model", DIGEST, {"w": np.ones(2)})
        store.put_json("result", OTHER, {"a": 1})
        assert store.clear() == 2
        assert store.entries() == []

    def test_entries_and_size(self, store):
        store.put_arrays("model", DIGEST, {"w": np.ones(8)})
        store.put_json("result", OTHER, {"a": 1})
        entries = store.entries()
        assert {(entry.kind, entry.digest) for entry in entries} == {
            ("model", DIGEST),
            ("result", OTHER),
        }
        assert store.size_bytes() == sum(entry.size_bytes for entry in entries)

    def test_prune_evicts_oldest_first(self, store):
        store.put_arrays("model", DIGEST, {"w": np.ones(64)})
        path = store.put_arrays("model", OTHER, {"w": np.ones(64)})
        # make the second entry strictly newer regardless of fs timestamp
        # granularity
        first = store._path("model", DIGEST, ".npz")
        os.utime(first, (1, 1))
        evicted = store.prune(os.path.getsize(path))
        assert [entry.digest for entry in evicted] == [DIGEST]
        assert store.has("model", OTHER)
        assert not store.has("model", DIGEST)

    def test_prune_zero_empties_store(self, store):
        store.put_json("result", DIGEST, {"a": 1})
        store.prune(0)
        assert store.entries() == []

    def test_prune_negative_rejected(self, store):
        with pytest.raises(ConfigurationError):
            store.prune(-1)
