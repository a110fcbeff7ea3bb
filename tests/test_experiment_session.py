"""End-to-end tests for the Session pipeline and its artifact reuse.

The acceptance property of the experiment API: running the same spec twice
performs **zero training and zero adversarial crafting** on the second run
(verified by call counters installed on ``Trainer.fit`` and
``AttackEngine.generate_sweep``), and results are bit-identical.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks.engine import AttackEngine
from repro.errors import ConfigurationError, MissingArtifactError
from repro.experiments import (
    ArtifactStore,
    AttackSpec,
    ExperimentResult,
    ExperimentSpec,
    ModelSpec,
    Session,
    SweepSpec,
    VictimSpec,
)
from repro.experiments.session import REQUIRE_CACHED_ENV_VAR, RESULT_VERSION
from repro.nn.trainer import Trainer

TINY_MODEL = ModelSpec(
    architecture="lenet5", dataset="mnist", n_train=64, n_test=32, epochs=1
)


def tiny_spec(**overrides):
    defaults = dict(
        name="session-smoke",
        model=TINY_MODEL,
        victims=VictimSpec(multipliers=("M1", "M4"), calibration_samples=32),
        attacks=(AttackSpec(attack="FGM_linf"),),
        sweep=SweepSpec(epsilons=(0.0, 0.1), n_samples=8),
    )
    defaults.update(overrides)
    return ExperimentSpec(**defaults)


#: any JSON document, and result documents whose fields hold any JSON
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=8,
)


def _fields(*keys):
    return st.fixed_dictionaries({}, optional={key: JSON_VALUES for key in keys})


RESULT_PAYLOADS = JSON_VALUES | st.fixed_dictionaries(
    {"result_version": st.just(RESULT_VERSION)},
    optional={
        "grids": st.lists(
            _fields("attack", "dataset", "epsilons", "victims", "values", "metadata"),
            max_size=2,
        )
        | JSON_VALUES,
        "study": st.dictionaries(
            st.text(max_size=3),
            _fields("attack", "epsilons", "float", "quantized"),
            max_size=2,
        )
        | JSON_VALUES,
        "table": st.fixed_dictionaries(
            {},
            optional={
                "attack": JSON_VALUES,
                "epsilon": JSON_VALUES,
                "cells": st.lists(
                    _fields("source", "victim", "dataset", "before", "after"),
                    max_size=2,
                )
                | JSON_VALUES,
            },
        )
        | JSON_VALUES,
        "source_accuracies": st.dictionaries(
            st.text(max_size=3), JSON_VALUES, max_size=2
        )
        | JSON_VALUES,
    },
)


SMOKE_SPEC = tiny_spec()


@pytest.fixture()
def store(tmp_path):
    return ArtifactStore(str(tmp_path / "store"))


@pytest.fixture()
def counters(monkeypatch):
    """Install train/craft call counters on the expensive pipeline stages."""
    counts = {"train": 0, "craft": 0}
    original_fit = Trainer.fit
    original_sweep = AttackEngine.generate_sweep

    def counting_fit(self, *args, **kwargs):
        counts["train"] += 1
        return original_fit(self, *args, **kwargs)

    def counting_sweep(self, *args, **kwargs):
        counts["craft"] += 1
        return original_sweep(self, *args, **kwargs)

    monkeypatch.setattr(Trainer, "fit", counting_fit)
    monkeypatch.setattr(AttackEngine, "generate_sweep", counting_sweep)
    return counts


class TestPanelRuns:
    def test_smoke_grid_shape(self, store):
        spec = tiny_spec()
        result = Session(store=store).run(spec)
        assert not result.from_cache
        (grid,) = result.grids
        assert grid.attack_key == "FGM_linf"
        assert grid.victim_labels == ["M1", "M4"]
        assert grid.values.shape == (2, 2)
        assert grid.epsilons == [0.0, 0.1]
        assert "AccL5" in result.source_accuracies

    def test_second_run_zero_train_zero_craft(self, store, counters):
        spec = tiny_spec()
        first = Session(store=store).run(spec)
        assert counters == {"train": 1, "craft": 1}
        second = Session(store=store).run(spec)
        assert counters == {"train": 1, "craft": 1}
        assert second.from_cache
        assert np.array_equal(first.grids[0].values, second.grids[0].values)
        assert first.grids[0].to_dict() == second.grids[0].to_dict()

    def test_victim_change_reuses_model_and_suite(self, store, counters):
        Session(store=store).run(tiny_spec())
        assert counters == {"train": 1, "craft": 1}
        changed = tiny_spec(
            victims=VictimSpec(multipliers=("M8",), calibration_samples=32)
        )
        result = Session(store=store).run(changed)
        # new victim set => new result, but the trained weights and the
        # crafted suite are both served from the store
        assert not result.from_cache
        assert counters == {"train": 1, "craft": 1}

    def test_attack_change_reuses_model_only(self, store, counters):
        Session(store=store).run(tiny_spec())
        changed = tiny_spec(attacks=(AttackSpec(attack="BIM_linf"),))
        Session(store=store).run(changed)
        assert counters == {"train": 1, "craft": 2}

    def test_model_change_retrains(self, store, counters):
        Session(store=store).run(tiny_spec())
        changed = tiny_spec(
            model=ModelSpec(
                architecture="lenet5", dataset="mnist", n_train=64, n_test=32,
                epochs=2,
            )
        )
        Session(store=store).run(changed)
        assert counters == {"train": 2, "craft": 2}

    def test_identical_specs_reproduce_bitwise_from_scratch(self, tmp_path):
        # artifact-friendly determinism: two cold stores, same spec, same bits
        spec = tiny_spec()
        a = Session(store=ArtifactStore(str(tmp_path / "a"))).run(spec)
        b = Session(store=ArtifactStore(str(tmp_path / "b"))).run(spec)
        assert np.array_equal(a.grids[0].values, b.grids[0].values)

    def test_use_cache_false_bypasses_store(self, store, counters):
        session = Session(store=store)
        session.run(tiny_spec(), use_cache=False)
        session.run(tiny_spec(), use_cache=False)
        assert counters == {"train": 2, "craft": 2}
        assert store.entries() == []

    def test_run_rejects_non_spec(self, store):
        with pytest.raises(ConfigurationError, match="ExperimentSpec"):
            Session(store=store).run({"name": "nope"})

    def test_n_samples_must_fit_test_split(self, store):
        spec = tiny_spec(sweep=SweepSpec(epsilons=(0.0,), n_samples=64))
        with pytest.raises(ConfigurationError, match="test samples"):
            Session(store=store).run(spec)


class TestOtherKinds:
    def test_quantization_round_trip(self, store, counters):
        spec = tiny_spec(
            name="quant",
            kind="quantization",
            attacks=(AttackSpec("FGM_linf"), AttackSpec("CR_l2")),
        )
        first = Session(store=store).run(spec)
        assert set(first.study.comparisons) == {"FGM_linf", "CR_l2"}
        second = Session(store=store).run(spec)
        assert second.from_cache
        assert second.study.to_dict() == first.study.to_dict()
        assert counters == {"train": 1, "craft": 2}

    def test_transfer_round_trip(self, store, counters):
        spec = tiny_spec(
            name="transfer",
            kind="transfer",
            transfer_sources=(
                ModelSpec(
                    architecture="ffnn", dataset="mnist", n_train=64, n_test=32,
                    epochs=1,
                ),
            ),
            victims=VictimSpec(multipliers=("M4",), calibration_samples=32),
            attacks=(AttackSpec("BIM_linf"),),
            sweep=SweepSpec(epsilons=(0.05,), n_samples=8),
        )
        first = Session(store=store).run(spec)
        assert counters == {"train": 2, "craft": 2}
        assert {cell.source for cell in first.table.cells} == {"AccL5", "AccFF"}
        assert {cell.victim for cell in first.table.cells} == {"AxL5", "AxFF"}
        second = Session(store=store).run(spec)
        assert second.from_cache
        assert counters == {"train": 2, "craft": 2}
        assert second.table.to_dict() == first.table.to_dict()


class TestConcurrentSessions:
    def test_concurrent_identical_runs_train_once_bit_identical(
        self, store, counters
    ):
        """Three threads race one spec through one store: the training lease
        makes exactly one of them train; all get bit-identical results."""
        import threading

        spec = tiny_spec(name="concurrent")
        results = [None] * 3
        errors = []

        def run(index):
            try:
                results[index] = Session(store=store).run(spec)
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=run, args=(index,)) for index in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
        assert not errors, f"concurrent runs failed: {errors!r}"
        assert all(result is not None for result in results)
        assert counters["train"] == 1, "the lease must admit exactly one trainer"
        payloads = [result.to_dict() for result in results]
        assert payloads[0] == payloads[1] == payloads[2]


class TestRequireCached:
    def test_cold_store_raises(self, store):
        session = Session(store=store, require_cached=True)
        with pytest.raises(MissingArtifactError, match="train"):
            session.run(tiny_spec())

    def test_warm_store_serves(self, store):
        Session(store=store).run(tiny_spec())
        result = Session(store=store, require_cached=True).run(tiny_spec())
        assert result.from_cache

    def test_env_var_enables_it(self, store, monkeypatch):
        monkeypatch.setenv(REQUIRE_CACHED_ENV_VAR, "1")
        with pytest.raises(MissingArtifactError):
            Session(store=store).run(tiny_spec())
        monkeypatch.setenv(REQUIRE_CACHED_ENV_VAR, "0")
        assert Session(store=store).run(tiny_spec()).grids

    def test_env_var_falsey_spellings_disable_it(self, store, monkeypatch):
        for value in ("false", "False", "FALSE", "no", "0", "", "off", " OFF "):
            monkeypatch.setenv(REQUIRE_CACHED_ENV_VAR, value)
            assert not Session(store=store).require_cached

    def test_env_var_typo_fails_loudly(self, store, monkeypatch):
        # a misspelt switch must not silently turn cache-only mode on
        monkeypatch.setenv(REQUIRE_CACHED_ENV_VAR, "flase")
        with pytest.raises(ConfigurationError, match=REQUIRE_CACHED_ENV_VAR):
            Session(store=store)


class TestResultPlumbing:
    def test_result_dict_round_trip(self, store):
        spec = tiny_spec()
        result = Session(store=store).run(spec)
        again = ExperimentResult.from_dict(result.to_dict(), spec=spec)
        assert np.array_equal(again.grids[0].values, result.grids[0].values)
        assert again.source_accuracies == result.source_accuracies

    def test_unknown_result_version_rejected(self, store):
        spec = tiny_spec()
        payload = Session(store=store).run(spec).to_dict()
        payload["result_version"] = 99
        with pytest.raises(ConfigurationError, match="result_version"):
            ExperimentResult.from_dict(payload, spec=spec)

    def test_incompatible_stored_result_is_recomputed(self, store, counters):
        spec = tiny_spec()
        session = Session(store=store)
        session.run(spec)
        # simulate a result written by an older/newer build
        digest = spec.content_hash()
        payload = store.get_json("result", digest)
        payload["result_version"] = 99
        store.put_json("result", digest, payload)
        result = Session(store=store).run(spec)
        assert not result.from_cache
        assert result.grids[0].values.shape == (2, 2)
        # model and suite were still valid artifacts — only the result level
        # was recomputed
        assert counters == {"train": 1, "craft": 1}

    @pytest.mark.parametrize(
        "stored",
        [
            [],
            {"result_version": RESULT_VERSION, "study": []},
            {"result_version": RESULT_VERSION, "source_accuracies": []},
        ],
        ids=["list", "list-study", "list-source-accuracies"],
    )
    def test_misshapen_stored_result_is_evicted_and_recomputed(
        self, store, counters, stored
    ):
        spec = tiny_spec()
        digest = spec.content_hash()
        store.put_json("result", digest, stored)
        result = Session(store=store).run(spec)
        assert not result.from_cache
        assert result.grids[0].values.shape == (2, 2)
        assert store.get_json("result", digest) == result.to_dict()
        assert counters == {"train": 1, "craft": 1}

    def test_payloadless_stored_result_is_evicted_and_recomputed(
        self, store, counters
    ):
        # parses as a result, but holds no grid: served from the store it
        # would make every result.grid(...) raise
        spec = tiny_spec()
        digest = spec.content_hash()
        store.put_json("result", digest, {"result_version": RESULT_VERSION})
        result = Session(store=store).run(spec)
        assert not result.from_cache
        assert result.grids[0].values.shape == (2, 2)
        assert store.get_json("result", digest) == result.to_dict()
        assert counters == {"train": 1, "craft": 1}

    def test_result_missing_one_attacks_grid_is_recomputed(self, store, counters):
        spec = tiny_spec(attacks=(AttackSpec("FGM_linf"), AttackSpec("BIM_linf")))
        digest = spec.content_hash()
        first = Session(store=store).run(spec)
        payload = store.get_json("result", digest)
        payload["grids"] = payload["grids"][:1]
        store.put_json("result", digest, payload)
        again = Session(store=store).run(spec)
        assert not again.from_cache
        assert again.to_dict() == first.to_dict()
        # the model and both suites were still valid: only the result level
        # was recomputed
        assert counters == {"train": 1, "craft": 2}

    @pytest.mark.parametrize(
        "spec",
        [
            tiny_spec(),
            tiny_spec(name="quant", kind="quantization"),
            tiny_spec(
                name="transfer",
                kind="transfer",
                transfer_sources=(
                    ModelSpec(
                        architecture="ffnn", dataset="mnist", n_train=64,
                        n_test=32, epochs=1,
                    ),
                ),
                sweep=SweepSpec(epsilons=(0.05,), n_samples=8),
            ),
        ],
        ids=["panel", "quantization", "transfer"],
    )
    def test_from_dict_refuses_a_result_without_its_kinds_payload(self, spec):
        payload = {"result_version": RESULT_VERSION, "source_accuracies": {"A": 1.0}}
        with pytest.raises(ConfigurationError, match=f"lacks the {spec.kind}"):
            ExperimentResult.from_dict(payload, spec=spec)

    @settings(max_examples=300, deadline=None)
    @given(payload=RESULT_PAYLOADS)
    def test_from_dict_refuses_any_other_shape(self, payload):
        # a stored document of any shape is either a result or a
        # ConfigurationError, the one type Session.run treats as a miss
        try:
            result = ExperimentResult.from_dict(payload, spec=SMOKE_SPEC)
        except ConfigurationError:
            return
        assert isinstance(result, ExperimentResult)

    def test_grid_lookup(self, store):
        result = Session(store=store).run(tiny_spec())
        assert result.grid("FGM_linf") is result.grids[0]
        with pytest.raises(ConfigurationError, match="no grid"):
            result.grid("BIM_linf")

    def test_progress_events(self, store):
        events = []
        session = Session(store=store, progress=events.append)
        session.run(tiny_spec())
        stages = {(event.stage, event.status) for event in events}
        assert ("model", "compute") in stages
        assert ("suite", "compute") in stages
        assert ("result", "store") in stages
        events.clear()
        Session(store=store, progress=events.append).run(tiny_spec())
        assert {(event.stage, event.status) for event in events} == {("result", "hit")}

    def test_workers_do_not_change_results(self, store):
        spec = tiny_spec()
        serial = Session(store=store, workers=1).run(spec, use_cache=False)
        sharded = Session(store=store, workers=2).run(spec, use_cache=False)
        assert np.array_equal(serial.grids[0].values, sharded.grids[0].values)


class TestParameterKeyEscape:
    def test_double_underscore_layer_names_rejected(self):
        """'/' -> '__' escaping is lossy for keys holding '__'; storing such
        a model would corrupt the cache key round-trip and silently retrain
        on every run — the session must refuse loudly instead."""
        from repro.experiments.session import _escape, _unescape

        assert _unescape(_escape("dense_3/weight")) == "dense_3/weight"
        with pytest.raises(ConfigurationError):
            _escape("fc__out/weight")
